"""Low-lying spectra of assembled operators, with reference chain models.

Dense diagonalization below a dimension threshold, restarted Lanczos above
it (scipy's implicitly restarted ARPACK with a seeded starting vector, so
runs are deterministic).  Also: subspace restriction, orbit and frozen
configuration indices from the codec in ``basis``, and the
uniform/engineered hopping chains used as exact references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, cos, pi

import numpy as np
import scipy.sparse.linalg as spla

from .basis import SpinBasis, orbit_label_walk, slot_edges
from .circuit import ProblemShape
from .hamiltonian import hermiticity_residual

DENSE_RESIDUAL_TOL = 1e-8
ITERATIVE_RESIDUAL_TOL = 1e-6
MAX_MATVECS = 10000
CLUSTER_RTOL = 1e-7  # eigenvalues within CLUSTER_RTOL * max(1, ||H||) share a cluster
GAP_K0 = 6
GAP_K_CAP = 64


class SpectralError(RuntimeError):
    pass


class ConvergenceError(SpectralError):
    """Iteration hit the matvec budget; carries the best estimate."""

    def __init__(self, message, best_value=None, residual=None):
        super().__init__(message)
        self.best_value = best_value
        self.residual = residual


@dataclass(frozen=True)
class SolverOptions:
    dense_threshold: int = 4096
    seed: int = 7


@dataclass
class SpectralReport:
    requested: int
    eigenvalues: np.ndarray
    residuals: np.ndarray
    clusters: list[list[int]]
    method: str
    vectors: np.ndarray | None = field(default=None, repr=False)  # not in format()

    def cluster_values(self) -> list[float]:
        return [float(np.mean(self.eigenvalues[c])) for c in self.clusters]

    def format(self) -> str:
        lines = []
        cluster_of = {}
        for ci, members in enumerate(self.clusters):
            for i in members:
                cluster_of[i] = ci
        for i, (val, res) in enumerate(zip(self.eigenvalues, self.residuals)):
            lines.append(f"eig {i} {val:.12g} {res:.3g} {cluster_of[i]}")
        return "\n".join(lines) + "\n"


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


def low_spectrum(operator, k: int, options: SolverOptions = SolverOptions()) -> SpectralReport:
    """The k smallest eigenvalues with residuals and degeneracy clusters."""
    mat = _as_matrix(operator).tocsr()
    dim = mat.shape[0]
    if not 1 <= k <= dim:
        raise SpectralError(f"k = {k} out of range 1..{dim}")
    _hermiticity_check(mat)

    if dim <= options.dense_threshold:
        dense = mat.toarray()
        values, vectors = np.linalg.eigh(dense)
        values, vectors = values[:k], vectors[:, :k]
        method = "dense"
        tol_scale = DENSE_RESIDUAL_TOL
    else:
        if k >= dim - 1:
            raise SpectralError("iterative path needs k < dim - 1")
        rng = np.random.default_rng(options.seed)
        v0 = rng.standard_normal(dim)
        v0 /= np.linalg.norm(v0)
        try:
            values, vectors = spla.eigsh(
                mat, k=k, which="SA", v0=v0, maxiter=MAX_MATVECS, tol=0
            )
        except spla.ArpackNoConvergence as exc:
            if exc.eigenvalues is None or len(exc.eigenvalues) == 0:
                raise ConvergenceError("no Ritz pairs converged") from exc
            values, vectors = exc.eigenvalues, exc.eigenvectors
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]
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
    mat = _as_matrix(operator)
    k = 1 if mat.shape[0] <= options.dense_threshold else min(6, mat.shape[0] - 2)
    report = low_spectrum(operator, max(1, k), options)
    vec = report.vectors[:, 0]
    return float(report.eigenvalues[0]), vec, float(report.residuals[0])


@dataclass
class GapReport:
    gap: float
    ground_degeneracy: int
    ground_value: float
    next_value: float | None
    resolved: bool


def gap(operator, options: SolverOptions = SolverOptions()) -> GapReport:
    """Distance from the lowest eigenvalue cluster to the next one."""
    dim = _as_matrix(operator).shape[0]
    k = min(GAP_K0, dim)
    while True:
        report = low_spectrum(operator, k, options)
        if len(report.clusters) >= 2:
            ground, nxt = report.cluster_values()[0], report.cluster_values()[1]
            return GapReport(nxt - ground, len(report.clusters[0]), ground, nxt, True)
        if k >= min(GAP_K_CAP, dim):
            ground = report.cluster_values()[0]
            return GapReport(0.0, len(report.clusters[0]), ground, None, False)
        k = min(k * 2, dim, GAP_K_CAP)


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


def frozen_config_indices(shape: ProblemShape, basis: SpinBasis | None = None) -> np.ndarray:
    """Sorted indices of the form-valid configurations no sweep transition
    touches.  These have an identically zero H_comp row yet sit outside the
    legal orbit (each orbit pattern ends a slot edge), so they are exact
    extra zero modes of the sweep term."""
    basis = basis or SpinBasis(shape)
    n, r = shape.n_qubits, shape.n_cycles
    patterns = np.indices((r + 1,) * n).reshape(n, -1).T
    untouched = np.ones(len(patterns), dtype=bool)
    for edge in slot_edges(shape):
        left, right = patterns[:, edge.bond - 1], patterns[:, edge.bond]
        for pair in (edge.pre, edge.post):
            untouched &= (left != pair[0]) | (right != pair[1])
    frozen = patterns[untouched]
    return np.sort(np.concatenate(
        [basis.orbit_indices(head, frozen) for head in range(shape.n_sites)], axis=None
    ))


def detect_frozen(shape: ProblemShape) -> list[tuple]:
    """Frozen configurations (see frozen_config_indices), in index order."""
    basis = SpinBasis(shape)
    return [basis.config_at(int(i)) for i in frozen_config_indices(shape, basis)]


def frozen_excluded_submatrix(operator, shape: ProblemShape, basis: SpinBasis | None = None):
    """Operator restricted to the complement of the frozen configurations.

    Raises SpectralError unless every frozen row and column holds only its
    diagonal entry: each frozen configuration is then a 1x1 block, so the
    restriction is a genuine spectral block.
    """
    mat = _as_matrix(operator).tocsr()
    frozen = frozen_config_indices(shape, basis)
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
