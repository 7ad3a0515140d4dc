"""Low-lying spectra of assembled operators, with reference chain models.

An operator is split into the connected components of its off-diagonal
pattern, found in numpy by hook and jump (``_components``: roots hook onto
the smallest root across their edges, pointers jump to their roots, and
each round strictly lowers a root, so at most dim rounds run; components
are numbered by smallest index, as scipy.sparse.csgraph numbers them).
Each component spans an invariant block, solved on its own: up to
DENSE_THRESHOLD states densely (equal-size blocks share one stacked LAPACK
call), above it by shift-invert Lanczos (Ericsson and Ruhe, Math. Comp. 35,
1980) at sigma = b - SHIFT_MARGIN * max(1, |b|).  b is the block's
Gershgorin bound, or the caller's ``lower_bound`` when larger: by Weyl's
inequality every block of a total lies above -alpha J2
(``CouplingConstants.lower_bound``), as J1 H_input, J2 H_comp and w_out
H_output are positive semidefinite and H_form's ring minimum is -1.  H -
sigma is factored once (SuperLU, symmetric mode, diagonal pivots); by
Sylvester's law of inertia, positive pivots in matching row and column
orders prove it positive definite, so the k largest levels of (H -
sigma)^-1 are the k lowest of H.  Otherwise the bound was wrong and
SpectralError is raised, as it is when the factor and the copy of U its
pivots are read from would exceed FACTOR_BYTE_CAP bytes.
ARPACK starts from a LANCZOS_SEED vector, so runs are deterministic;
scipy.sparse.linalg, which loads scipy.linalg, is imported on the first
such solve.  Every level of both routes passes one residual check,
DENSE_RESIDUAL_TOL times the operator's norm estimate.

Every reported level comes from ``low_spectrum``: ground energies
(``ground_energy``), gaps (``gap``, which ``gapscan`` prints for the orbit
block), and the separation's filtered and orbit levels, on its V0 total
at the touched keys and at the sorted walk keys among them.  Only the
projection-lemma checks of ``promise``, on their own random matrices (8 x 8
by default), call LAPACK directly.  Also: the hermiticity residual,
restriction to configurations, full-space orbit and frozen configuration
indices (the latter list every clock pattern: full-space checks only), and
the uniform/engineered hopping chains used as exact references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, cos, isfinite, pi

import numpy as np
import scipy.sparse as sp

from .basis import SpinBasis, frozen_patterns, orbit_label_walk
from .circuit import ProblemShape

DENSE_RESIDUAL_TOL = 1e-8
CLUSTER_RTOL = 1e-7  # eigenvalues within CLUSTER_RTOL * max(1, ||H||) share a cluster
GAP_K_CAP = 64
# Largest component block diagonalized densely: the crossover, measured with
# one BLAS thread on a 2-CPU Xeon.  At k = 64 on real path blocks (gapscan)
# dense takes 7 ms per 193-state block against 9 ms for shift-invert, and
# 12 ms against 9 ms at 257; at k = 1 and 8 on complex random (2,1,R) orbit
# blocks shift-invert leads from about 128 states (3.0 ms against 4.0 ms) and
# takes 3-4 ms against 18 ms at 256.
DENSE_THRESHOLD = 256
# Shift-invert's sigma lies SHIFT_MARGIN * max(1, |b|) below the lower bound
# b: far above the rounding of H - sigma (about 1e-7 on the random (2,1,1100)
# orbit block, norm 5e8), near enough b to keep the lowest levels apart once
# inverted.  k = 8 on a 4,480-state random (7,1,1) V0 component took 1.27 s
# at 1e-3 and 0.83 s at 1e-4; gapscan's paths and the (2,1,1100) orbit block
# took the same at every margin from 1e-3 to 1e-6.
SHIFT_MARGIN = 1e-4
# Bytes of one shifted block's LU factor and of the CSC copy of U that
# reading its pivots makes (lu.U), which is at most as large as the factor.
# SuperLU has no symbolic pass to ask first, so a factor is refused once
# built, before U is copied: twice the factor of the 4,480-state random
# (7,1,1) V0 component is 68 MiB, of the 17,920-state random (8,1,1) one
# 1.1 GiB (the factor alone took 20 s and a 1.2 GB peak).
FACTOR_BYTE_CAP = 2 ** 29
LANCZOS_SEED = 7
# Elements one array pass holds, here and in hamiltonian: the codes of one
# ring-sum run (and of a block of site-0 digits, unless one digit holds
# more), the rows of one shift-operator pass, and the stored entries of one
# Hermiticity or translation check block (about 3 MiB of scratch per
# translation block of the (3,1,3) and (4,1,1) totals).
CHUNK = 2 ** 16


class SpectralError(RuntimeError):
    pass


class ConvergenceError(SpectralError):
    """A solve did not converge or failed its residual check."""


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray
    residuals: np.ndarray
    clusters: list[list[int]]
    method: str
    vectors: np.ndarray | None = field(default=None, repr=False)  # not in format()

    def format(self) -> str:
        cluster_of = {i: ci for ci, members in enumerate(self.clusters) for i in members}
        return "".join(f"eig {i} {val:.12g} {res:.3g} {cluster_of[i]}\n"
                       for i, (val, res) in enumerate(zip(self.eigenvalues, self.residuals)))


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN pass through, as in M - M^H
def hermiticity_residual(mat) -> float:
    """Largest entry of |M - M^H|; exactly 0 for a Hermitian sparse matrix.

    When M is CSR with no duplicate or unsorted entries, labels of its
    stored positions are transposed instead of its values: one integer
    transpose of the pattern, holding the labels, gives, when its pattern
    is M's, the label of each stored entry's mirror.  Up to 2^16 entries the
    labels are the positions, in the smallest unsigned type.  Above that,
    when no row holds more than 256 entries, they are the positions modulo
    2^8, one byte each: the mirror of entry k lies in row j = indices[k],
    whose positions differ by less than 256, so it is s + ((label - s) mod
    256) with s = indptr[j]; longer rows keep the positions.  The
    differences a[k] - conj(a[mirror[k]]) are then taken about CHUNK stored
    entries at a time, so the check holds a byte or index array, not a
    complex copy of M.  Any other M is subtracted from its conjugate
    transpose."""
    if mat.format == "csr" and mat.has_canonical_format:
        indptr, indices = mat.indptr, mat.indices
        exact = np.min_scalar_type(max(mat.nnz - 1, 0))  # the positions themselves
        wraps = exact.itemsize > 2 and all(np.diff(indptr[first:first + CHUNK + 1]).max(initial=0) <= 256
                                           for first in range(0, mat.shape[0], CHUNK))
        # The labels in M's pattern, read as the CSC of M^T, turned to CSR;
        # wrapping labels are uint8, which np.arange wraps at 256.
        labels = np.arange(mat.nnz, dtype=np.uint8 if wraps else exact)
        flipped = sp.csc_matrix((labels, indices, indptr), shape=mat.shape[::-1]).tocsr()
        del labels
        if np.array_equal(flipped.indptr, indptr) and np.array_equal(flipped.indices, indices):
            labels, data = flipped.data, mat.data
            del flipped  # only the mirror labels are read from here on
            worst = 0.0
            for first in range(0, data.size, CHUNK):
                mirror = labels[first:first + CHUNK]
                if wraps:  # from the byte label back to the position
                    row_start = np.take(indptr, indices[first:first + CHUNK], mode="clip")
                    mirror = np.subtract(mirror, row_start)
                    mirror &= 255
                    mirror += row_start
                # A copy: the mirrors' values (take is faster than fancy
                # indexing with int32 positions; every position is in range).
                delta = np.take(data, mirror, mode="clip")
                np.subtract(data[first:first + CHUNK], np.conjugate(delta, out=delta), out=delta)
                worst = np.maximum(worst, np.abs(delta, out=delta).real.max())  # NaN propagates
            return float(worst)
    delta = mat - mat.T.tocsr().conj()
    return 0.0 if delta.nnz == 0 else float(np.abs(delta.data).max())


def _as_matrix(operator):
    return operator.matrix if hasattr(operator, "matrix") else operator


def _hermiticity_check(mat):
    res = hermiticity_residual(mat)
    if not res <= 1e-9:
        raise SpectralError(f"operator is not Hermitian: residual {res:.3g}")


def _norm_estimate(mat) -> float:
    """Scale of the residual and cluster tolerances; SpectralError on overflow."""
    if mat.nnz == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        est = float(np.abs(mat.data).sum() / max(1, mat.shape[0]) + np.abs(mat.data).max())
    if not isfinite(est):
        raise SpectralError(f"operator norm estimate {est} is not finite")
    return est


def _cluster(eigenvalues: np.ndarray, tol: float) -> list[list[int]]:
    clusters: list[list[int]] = []
    for i, val in enumerate(eigenvalues):
        if clusters and val - eigenvalues[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _components(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component label of every index, component sizes, and the row of every
    stored entry, for the graph whose edges are the stored off-diagonal
    entries of mat, either way round.

    Hook and jump (Shiloach and Vishkin, J. Algorithms 3, 1982): every index
    points at a parent no larger than itself, and a root, which points at
    itself, is the smallest index of its tree.  Self-loops are dropped once
    and each edge is held by its two ends' roots.  Each round, every root
    hooks onto the smallest root across its edges (np.minimum.at), pointers
    jump (parent = parent[parent]) until nothing changes, and edges whose
    ends now share a root are dropped.  A round turns the larger root of
    every edge it starts with into a non-root, so the roots strictly
    decrease and at most dim rounds run.  With no edges left each tree is a
    component; components are numbered by their smallest index, the
    undirected numbering of scipy.sparse.csgraph.connected_components.
    """
    dim = mat.shape[0]
    # Indices in intp, numpy's own index type: gathers with them need no cast.
    parent = np.arange(dim)
    rows = np.repeat(parent, np.diff(mat.indptr))
    heads, tails = rows, mat.indices.astype(np.intp)
    while (edge := heads != tails).any():
        heads, tails = heads.compress(edge), tails.compress(edge)
        np.minimum.at(parent, np.maximum(heads, tails), np.minimum(heads, tails))
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
        heads, tails = parent[heads], parent[tails]
    roots = parent == np.arange(dim)
    labels = (np.cumsum(roots) - 1)[parent]
    return labels, np.bincount(labels, minlength=int(np.count_nonzero(roots))), rows


def _block_eigenpairs(mat, labels: np.ndarray, sizes: np.ndarray, rows: np.ndarray, k: int,
                      lower_bound: float | None):
    """The k lowest eigenpairs, and whether shift-invert solved any block;
    `rows` holds the row of every stored entry of mat.

    A component is diagonalized densely with the others of its size, unless
    it exceeds DENSE_THRESHOLD states and k < size - 1: then by shift-invert
    Lanczos on its own block (_shift_invert_eigenpairs, below the larger of
    `lower_bound` and the block's Gershgorin bound).  Each component offers
    its min(size, k) lowest levels, ordered by component label, then level;
    a stable sort picks the k lowest, so ties break the same way on every
    run.  Each vector is supported on its own block.
    """
    dim = mat.shape[0]
    members = np.argsort(labels, kind="stable")  # component-major, index order inside
    start = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    local = np.empty(dim, dtype=np.int64)
    local[members] = np.arange(dim) - np.repeat(start, sizes)
    entry_comp = labels[rows]
    entry_size = sizes[entry_comp]
    dtype = np.result_type(mat.dtype, np.float64)

    offered = np.minimum(sizes, k)
    owner = np.repeat(np.arange(len(sizes)), offered)
    first = np.concatenate(([0], np.cumsum(offered)[:-1]))
    candidates = np.empty(owner.size)  # level j of component c sits at first[c] + j
    slot = np.empty(len(sizes), dtype=np.int64)  # position of a component in its size group
    block_vectors = {}
    iterative = False
    for size in np.unique(sizes):
        comps = np.flatnonzero(sizes == size)
        slot[comps] = np.arange(len(comps))
        if size > DENSE_THRESHOLD and k < size - 1:
            iterative = True
            states = members[start[comps][:, None] + np.arange(size)]  # one component's per row
            values, vectors = map(np.array, zip(*[_shift_invert_eigenpairs(mat[i][:, i], k, lower_bound)
                                                  for i in states]))
        else:
            blocks = np.zeros((len(comps), size, size), dtype=dtype)
            mine = entry_size == size
            np.add.at(
                blocks,
                (slot[entry_comp[mine]], local[rows[mine]], local[mat.indices[mine]]),
                mat.data[mine],
            )
            values, vectors = np.linalg.eigh(blocks)
        candidates[first[comps][:, None] + np.arange(min(size, k))] = values[:, :k]
        # Keep a copy of the offered columns only: a view, or `vectors` itself,
        # would hold the whole stack through the next group's solve.
        block_vectors[size] = vectors[:, :, :k].copy()
        del vectors

    chosen = np.argsort(candidates, kind="stable")[:k]
    chosen_comp = owner[chosen]
    chosen_level = chosen - first[chosen_comp]
    out = np.zeros((dim, k), dtype=dtype)
    for size, vectors in block_vectors.items():
        cols = np.flatnonzero(sizes[chosen_comp] == size)
        comp = chosen_comp[cols]
        states = members[start[comp][:, None] + np.arange(size)]
        out[states, cols[:, None]] = vectors[slot[comp], :, chosen_level[cols]]
    return candidates[chosen], out, iterative


def _shift_invert_eigenpairs(mat, k: int, lower_bound: float | None):
    """The k lowest eigenpairs of one component block, by Lanczos on
    (H - sigma)^-1 (see the module docstring); needs k < dim - 1.  The
    Gershgorin bound is the least row diagonal less the row's off-diagonal
    magnitudes.  SuperLU's P (H - sigma) P^T = L U, L unit lower triangular,
    is L D L^H with D the diagonal of U, so its negative pivots count the
    eigenvalues below sigma (Sylvester)."""
    import scipy.sparse.linalg as spla  # here only: it loads scipy.linalg too

    dim = mat.shape[0]
    if not mat.data.imag.any():  # symmetric Lanczos, about five times faster than complex Arnoldi
        mat = mat.real
    off_diagonal = np.asarray(abs(mat).sum(axis=1)).ravel() - abs(mat.diagonal())
    bound = float((mat.diagonal().real - off_diagonal).min())
    if lower_bound is not None:
        bound = max(bound, lower_bound)
    sigma = bound - SHIFT_MARGIN * max(1.0, abs(bound))
    shifted = (mat - sigma * sp.identity(dim, dtype=mat.dtype, format="csr")).tocsc()
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly singular pivot: sigma is an eigenvalue
        raise SpectralError(f"H - {sigma:.12g} is singular: {bound:.12g} is no lower bound") from exc
    held = lu.nnz * (shifted.dtype.itemsize + 4)  # L and U entries with their int32 row indices
    if 2 * held > FACTOR_BYTE_CAP:  # with lu.U's copy: U and its column pointers fit in `held`
        raise SpectralError(f"the LU factor of a {dim}-state block holds {held:,} bytes and reading "
                            f"its pivots copies up to as many again, over the cap of {FACTOR_BYTE_CAP:,}")
    negative = int(np.count_nonzero(lu.U.diagonal().real <= 0))
    if negative or not np.array_equal(lu.perm_r, lu.perm_c):
        raise SpectralError(f"H - {sigma:.12g} is not proven positive definite ({negative} pivots "
                            f"not positive): {bound:.12g} is no lower bound")
    inverse = spla.LinearOperator(shifted.shape, matvec=lu.solve, dtype=shifted.dtype)
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    try:
        values, vectors = spla.eigsh(mat, k=k, sigma=sigma, which="LM", v0=v0 / np.linalg.norm(v0),
                                     OPinv=inverse, tol=0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"shift-invert Lanczos at {sigma:.12g} did not converge for k = {k}") from exc
    order = np.argsort(values)
    return values[order], vectors[:, order]


def low_spectrum(operator, k: int, lower_bound: float | None = None) -> SpectralReport:
    """The k smallest eigenvalues with residuals and degeneracy clusters,
    solved block by block (see _block_eigenpairs); method is "iterative"
    when shift-invert solved a block.  `lower_bound`, when given, is a
    lower bound on every eigenvalue, known to the caller from the
    operator's structure; shift-invert proves it before using it."""
    mat = _as_matrix(operator).tocsr()
    dim = mat.shape[0]
    if not 1 <= k <= dim:
        raise SpectralError(f"k = {k} out of range 1..{dim}")
    _hermiticity_check(mat)

    values, vectors, iterative = _block_eigenpairs(mat, *_components(mat), k, lower_bound)
    residuals = np.array(
        [np.linalg.norm(mat @ vectors[:, i] - values[i] * vectors[:, i]) for i in range(len(values))]
    )
    scale = max(1.0, _norm_estimate(mat))
    if not np.all(residuals <= DENSE_RESIDUAL_TOL * scale):
        raise ConvergenceError(f"residuals exceed {DENSE_RESIDUAL_TOL:g} * {scale:.3g}: largest "
                               f"{residuals.max():.3g}, lowest level {values[0]:.12g}")
    clusters = _cluster(values, CLUSTER_RTOL * scale)
    return SpectralReport(values, residuals, clusters, "iterative" if iterative else "dense", vectors=vectors)


def ground_energy(operator, lower_bound: float | None = None):
    """Smallest eigenvalue, its vector, and the residual norm (see low_spectrum)."""
    report = low_spectrum(operator, 1, lower_bound)
    vec = report.vectors[:, 0]
    return float(report.eigenvalues[0]), vec, float(report.residuals[0])


@dataclass
class GapReport:
    """next_value is the lowest eigenvalue outside the ground cluster; it is
    None, with gap 0 and resolved False, when that cluster fills all
    min(GAP_K_CAP, dim) levels solved for."""

    gap: float
    ground_degeneracy: int
    ground_value: float
    next_value: float | None
    resolved: bool


def gap(operator) -> GapReport:
    """From the lowest eigenvalue to next_value (see GapReport), in one solve."""
    report = low_spectrum(operator, min(GAP_K_CAP, _as_matrix(operator).shape[0]))
    values, degeneracy = report.eigenvalues.tolist(), len(report.clusters[0])
    if degeneracy == len(values):
        return GapReport(0.0, degeneracy, values[0], None, False)
    ground, nxt = values[0], values[degeneracy]
    return GapReport(nxt - ground, degeneracy, ground, nxt, True)


def restrict(operator, indices) -> np.ndarray:
    """Dense matrix of <b_i|H|b_j> over configurations b, given by their
    indices (columns of the identity)."""
    mat = _as_matrix(operator).tocsr()
    if len(indices) == 0:
        raise SpectralError("empty restriction basis")
    idx = np.asarray(indices, dtype=np.int64)
    sub = mat[idx][:, idx].toarray()
    res = np.abs(sub - sub.conj().T).max()
    if not res <= 1e-9:
        raise SpectralError(f"restriction lost hermiticity: {res:.3g}")
    return (sub + sub.conj().T) / 2


def orbit_block_indices(shape: ProblemShape, head_site: int = 0):
    """Configuration indices of the legal-orbit block: every clock pattern
    of the walk crossed with every qubit bit pattern, pattern-major."""
    return SpinBasis(shape).orbit_indices(head_site, orbit_label_walk(shape)).ravel()


def frozen_config_indices(shape: ProblemShape) -> np.ndarray:
    """Sorted full-space indices of the frozen configurations (see
    frozen_patterns) at every head site."""
    basis = SpinBasis(shape)
    frozen = frozen_patterns(shape)
    return np.sort(np.concatenate(
        [basis.orbit_indices(head, frozen) for head in range(shape.n_sites)], axis=None
    ))


def detect_frozen(shape: ProblemShape) -> list[tuple]:
    """Frozen configurations (see frozen_config_indices), in index order."""
    basis = SpinBasis(shape)
    return [basis.config_at(int(i)) for i in frozen_config_indices(shape)]


def frozen_excluded_submatrix(operator, shape: ProblemShape):
    """Full-space operator restricted to the complement of the frozen
    configurations (frozen_config_indices), and the kept indices.

    Raises SpectralError unless every frozen row and column holds only its
    diagonal entry: each frozen configuration is then a 1x1 block, so the
    restriction is a genuine spectral block.
    """
    mat = _as_matrix(operator).tocsr()
    dim = mat.shape[0]
    frozen_at = np.zeros(dim, dtype=bool)
    frozen_at[frozen_config_indices(shape)] = True
    rows = np.repeat(np.arange(dim), np.diff(mat.indptr))
    touching = frozen_at[rows] | frozen_at[mat.indices]
    if np.any(touching & (rows != mat.indices)):
        raise SpectralError("a frozen configuration is coupled off the diagonal")
    keep = np.flatnonzero(~frozen_at)
    return mat[keep][:, keep], keep


def chain_models(length: int, kind: str = "uniform") -> np.ndarray:
    """Reference hopping chains on `length` sites.

    uniform: every hopping amplitude -1.  engineered: hopping -sqrt(n(L-n))
    at bond n, the perfect-transfer profile with an equally spaced spectrum.
    """
    if length < 2:
        raise SpectralError("chain needs at least 2 sites")
    mat = np.zeros((length, length))
    for n in range(1, length):
        amp = -1.0 if kind == "uniform" else -np.sqrt(n * (length - n))
        if kind not in ("uniform", "engineered"):
            raise SpectralError(f"unknown chain kind {kind!r}")
        mat[n - 1, n] = mat[n, n - 1] = amp
    return mat


def binomial_chain_vector(n_qubits: int) -> np.ndarray:
    """Alternating square-root-binomial amplitudes on N+1 sites."""
    amps = np.array(
        [(-1) ** k * np.sqrt(comb(n_qubits, k)) for k in range(n_qubits + 1)]
    )
    return amps / 2 ** (n_qubits / 2)


def path_laplacian(length: int) -> np.ndarray:
    mat = np.zeros((length, length))
    for i in range(length - 1):
        mat[i, i] += 1
        mat[i + 1, i + 1] += 1
        mat[i, i + 1] -= 1
        mat[i + 1, i] -= 1
    return mat


def path_laplacian_eigenvalues(length: int) -> np.ndarray:
    return np.array([2 * (1 - cos(pi * j / length)) for j in range(length)])


def path_gap(length: int) -> float:
    return 2 * (1 - cos(pi / length))
