"""Low-lying spectra of assembled operators, with reference chain models.

An operator is split into the connected components of its off-diagonal
pattern; each component spans an invariant block, and every block is
diagonalized densely (equal-size blocks share one stacked LAPACK call).
Only an operator with a component larger than the dense threshold goes to
restarted Lanczos (scipy's implicitly restarted ARPACK with a seeded
starting vector, so runs are deterministic).  Ground energies, gaps and
the bond-term norms of ``hamiltonian`` all come from ``low_spectrum``.
Also: the hermiticity residual, subspace restriction, orbit and frozen
configuration indices from the codec in ``basis``, and the
uniform/engineered hopping chains used as exact references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, cos, pi

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .basis import SpinBasis, orbit_label_walk, slot_edges
from .circuit import ProblemShape

DENSE_RESIDUAL_TOL = 1e-8
ITERATIVE_RESIDUAL_TOL = 1e-6
MAX_MATVECS = 10000
CLUSTER_RTOL = 1e-7  # eigenvalues within CLUSTER_RTOL * max(1, ||H||) share a cluster
GAP_K_CAP = 64


class SpectralError(RuntimeError):
    pass


class ConvergenceError(SpectralError):
    """A solve did not converge or failed its residual check; carries the
    best estimate and its residual when there is one."""

    def __init__(self, message, best_value=None, residual=None):
        super().__init__(message)
        self.best_value = best_value
        self.residual = residual


@dataclass(frozen=True)
class SolverOptions:
    dense_threshold: int = 4096  # largest component block diagonalized densely
    seed: int = 7


@dataclass
class SpectralReport:
    requested: int
    eigenvalues: np.ndarray
    residuals: np.ndarray
    clusters: list[list[int]]
    method: str
    vectors: np.ndarray | None = field(default=None, repr=False)  # not in format()

    def format(self) -> str:
        lines = []
        cluster_of = {}
        for ci, members in enumerate(self.clusters):
            for i in members:
                cluster_of[i] = ci
        for i, (val, res) in enumerate(zip(self.eigenvalues, self.residuals)):
            lines.append(f"eig {i} {val:.12g} {res:.3g} {cluster_of[i]}")
        return "\n".join(lines) + "\n"


def hermiticity_residual(mat) -> float:
    """Largest entry of |M - M^H|; exactly 0 for a Hermitian sparse matrix."""
    delta = mat - mat.conj().T
    return 0.0 if delta.nnz == 0 else float(np.abs(delta.data).max())


def _as_matrix(operator):
    return operator.matrix if hasattr(operator, "matrix") else operator


def _hermiticity_check(mat):
    res = hermiticity_residual(mat)
    if res > 1e-9:
        raise SpectralError(f"operator is not Hermitian: residual {res:.3g}")


def _norm_estimate(mat) -> float:
    if mat.nnz == 0:
        return 0.0
    return float(np.abs(mat.data).sum() / max(1, mat.shape[0]) + np.abs(mat.data).max())


def _cluster(eigenvalues: np.ndarray, tol: float) -> list[list[int]]:
    clusters: list[list[int]] = []
    for i, val in enumerate(eigenvalues):
        if clusters and val - eigenvalues[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _components(mat) -> tuple[np.ndarray, np.ndarray]:
    """Component label of every index, and component sizes, for the graph
    whose edges are the stored off-diagonal entries of mat."""
    pattern = sp.csr_matrix(
        (np.ones(mat.nnz, dtype=bool), mat.indices, mat.indptr), shape=mat.shape
    )
    count, labels = connected_components(pattern, directed=False)
    return labels, np.bincount(labels, minlength=count)


def _block_eigenpairs(mat, labels: np.ndarray, sizes: np.ndarray, k: int):
    """The k lowest eigenpairs from dense eigh of every component block.

    Candidates are ordered by component label, then by eigenvalue inside the
    block, and a stable sort picks the k lowest, so ties break the same way
    on every run.  Each vector is supported on its own block.
    """
    dim = mat.shape[0]
    members = np.argsort(labels, kind="stable")  # component-major, index order inside
    start = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    local = np.empty(dim, dtype=np.int64)
    local[members] = np.arange(dim) - np.repeat(start, sizes)
    coo = mat.tocoo()
    entry_comp = labels[coo.row]
    entry_size = sizes[entry_comp]
    dtype = np.result_type(mat.dtype, np.float64)

    candidates = np.empty(dim)  # eigenvalue j of component c sits at start[c] + j
    slot = np.empty(len(sizes), dtype=np.int64)  # position of a component in its size group
    block_vectors = {}
    for size in np.unique(sizes):
        comps = np.flatnonzero(sizes == size)
        slot[comps] = np.arange(len(comps))
        blocks = np.zeros((len(comps), size, size), dtype=dtype)
        mine = entry_size == size
        np.add.at(
            blocks,
            (slot[entry_comp[mine]], local[coo.row[mine]], local[coo.col[mine]]),
            coo.data[mine],
        )
        values, vectors = np.linalg.eigh(blocks)
        candidates[start[comps][:, None] + np.arange(size)] = values
        block_vectors[size] = vectors

    chosen = np.argsort(candidates, kind="stable")[:k]
    chosen_comp = labels[members[chosen]]
    chosen_level = chosen - start[chosen_comp]
    out = np.zeros((dim, k), dtype=dtype)
    for size, vectors in block_vectors.items():
        cols = np.flatnonzero(sizes[chosen_comp] == size)
        comp = chosen_comp[cols]
        rows = members[start[comp][:, None] + np.arange(size)]
        out[rows, cols[:, None]] = vectors[slot[comp], :, chosen_level[cols]]
    return candidates[chosen], out


def _arpack_eigenpairs(mat, k: int, seed: int):
    """The k lowest of at least min(6, dim - 2) Ritz pairs from restarted
    Lanczos with a seeded start."""
    dim = mat.shape[0]
    if k >= dim - 1:
        raise SpectralError("iterative path needs k < dim - 1")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    v0 /= np.linalg.norm(v0)
    ritz = max(k, min(6, dim - 2))
    try:
        values, vectors = spla.eigsh(mat, k=ritz, which="SA", v0=v0, maxiter=MAX_MATVECS, tol=0)
    except spla.ArpackNoConvergence as exc:
        best, residual = None, None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            i = int(np.argmin(exc.eigenvalues.real))
            best = float(exc.eigenvalues[i].real)
            vec = exc.eigenvectors[:, i]
            residual = float(np.linalg.norm(mat @ vec - best * vec))
        raise ConvergenceError(
            f"Lanczos did not converge for k = {k} within maxiter {MAX_MATVECS}",
            best_value=best,
            residual=residual,
        ) from exc
    order = np.argsort(values)[:k]
    return values[order], vectors[:, order]


def low_spectrum(operator, k: int, options: SolverOptions = SolverOptions()) -> SpectralReport:
    """The k smallest eigenvalues with residuals and degeneracy clusters.

    Dense per component block when no component exceeds
    options.dense_threshold states; Lanczos on the whole operator otherwise.
    """
    mat = _as_matrix(operator).tocsr()
    dim = mat.shape[0]
    if not 1 <= k <= dim:
        raise SpectralError(f"k = {k} out of range 1..{dim}")
    _hermiticity_check(mat)

    labels, sizes = _components(mat)
    if sizes.max() <= options.dense_threshold:
        values, vectors = _block_eigenpairs(mat, labels, sizes, k)
        method = "dense"
        tol_scale = DENSE_RESIDUAL_TOL
    else:
        values, vectors = _arpack_eigenpairs(mat, k, options.seed)
        method = "iterative"
        tol_scale = ITERATIVE_RESIDUAL_TOL

    residuals = np.array(
        [np.linalg.norm(mat @ vectors[:, i] - values[i] * vectors[:, i]) for i in range(len(values))]
    )
    scale = max(1.0, _norm_estimate(mat))
    bad = residuals > tol_scale * scale
    if bad.any():
        raise ConvergenceError(
            f"residuals exceed {tol_scale:g} * {scale:.3g}",
            best_value=float(values[0]),
            residual=float(residuals.max()),
        )
    clusters = _cluster(values, CLUSTER_RTOL * scale)
    return SpectralReport(k, values, residuals, clusters, method, vectors=vectors)


def ground_energy(operator, options: SolverOptions = SolverOptions()):
    """Smallest eigenvalue, its vector, and the residual norm."""
    report = low_spectrum(operator, 1, options)
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


def gap(operator, options: SolverOptions = SolverOptions()) -> GapReport:
    """From the lowest eigenvalue to next_value (see GapReport), in one solve."""
    report = low_spectrum(operator, min(GAP_K_CAP, _as_matrix(operator).shape[0]), options)
    values, degeneracy = report.eigenvalues.tolist(), len(report.clusters[0])
    if degeneracy == len(values):
        return GapReport(0.0, degeneracy, values[0], None, False)
    ground, nxt = values[0], values[degeneracy]
    return GapReport(nxt - ground, degeneracy, ground, nxt, True)


def restrict(operator, basis_spec) -> np.ndarray:
    """Dense matrix of <b_i|H|b_j> over an orthonormal basis.

    basis_spec is either a list of configuration indices (columns of the
    identity) or a list/array of orthonormal vectors.
    """
    mat = _as_matrix(operator).tocsr()
    if len(basis_spec) == 0:
        raise SpectralError("empty restriction basis")
    first = np.asarray(basis_spec[0])
    if first.ndim == 0:
        idx = np.asarray(basis_spec, dtype=np.int64)
        sub = mat[idx][:, idx].toarray()
    else:
        stack = np.column_stack([np.asarray(v, dtype=complex) for v in basis_spec])
        gram = stack.conj().T @ stack
        if np.abs(gram - np.eye(stack.shape[1])).max() > 1e-10:
            raise SpectralError("restriction basis is not orthonormal")
        sub = stack.conj().T @ (mat @ stack)
    res = np.abs(sub - sub.conj().T).max()
    if res > 1e-9:
        raise SpectralError(f"restriction lost hermiticity: {res:.3g}")
    return (sub + sub.conj().T) / 2


def orbit_block_indices(shape: ProblemShape, head_site: int = 0, basis: SpinBasis | None = None):
    """Configuration indices of the legal-orbit block: every clock pattern
    of the walk crossed with every qubit bit pattern, pattern-major."""
    basis = basis or SpinBasis(shape)
    return basis.orbit_indices(head_site, orbit_label_walk(shape)).ravel()


def frozen_patterns(shape: ProblemShape) -> np.ndarray:
    """Clock patterns (rows, in lexicographic order) that no sweep
    transition touches.  Their configurations have an identically zero
    H_comp row yet sit outside the legal orbit (each orbit pattern ends a
    slot edge), so they are exact extra zero modes of the sweep term."""
    n, r = shape.n_qubits, shape.n_cycles
    patterns = np.indices((r + 1,) * n).reshape(n, -1).T
    untouched = np.ones(len(patterns), dtype=bool)
    for edge in slot_edges(shape):
        left, right = patterns[:, edge.bond - 1], patterns[:, edge.bond]
        for pair in (edge.pre, edge.post):
            untouched &= (left != pair[0]) | (right != pair[1])
    return patterns[untouched]


def frozen_config_indices(shape: ProblemShape, basis: SpinBasis | None = None) -> np.ndarray:
    """Sorted full-space indices of the frozen configurations (see
    frozen_patterns) at every head site."""
    basis = basis or SpinBasis(shape)
    frozen = frozen_patterns(shape)
    return np.sort(np.concatenate(
        [basis.orbit_indices(head, frozen) for head in range(shape.n_sites)], axis=None
    ))


def detect_frozen(shape: ProblemShape) -> list[tuple]:
    """Frozen configurations (see frozen_config_indices), in index order."""
    basis = SpinBasis(shape)
    return [basis.config_at(int(i)) for i in frozen_config_indices(shape, basis)]


def frozen_excluded_submatrix(operator, shape: ProblemShape, basis: SpinBasis | None = None):
    """Full-space operator restricted to the complement of the frozen
    configurations (see exclude_frozen)."""
    return exclude_frozen(operator, frozen_config_indices(shape, basis))


def exclude_frozen(operator, frozen: np.ndarray):
    """Operator restricted to the complement of the sorted indices `frozen`,
    and the kept indices.

    Raises SpectralError unless every frozen row and column holds only its
    diagonal entry: each frozen configuration is then a 1x1 block, so the
    restriction is a genuine spectral block.
    """
    mat = _as_matrix(operator).tocsr()
    for lines in (mat[frozen], mat.tocsc()[:, frozen]):
        owner = np.repeat(frozen, np.diff(lines.indptr))
        if np.any(lines.indices != owner):
            raise SpectralError("a frozen configuration is coupled off the diagonal")
    keep = np.setdiff1d(np.arange(mat.shape[0]), frozen, assume_unique=True)
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
