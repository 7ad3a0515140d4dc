"""Bond-local Hermitian terms and their translation-invariant ring sums.

Every part of the total Hamiltonian is a single d^2 x d^2 bond term summed
over all N+1 ring bonds.  The sweep part is a sum of positive semidefinite
edge operators, one per sweep slot:

    P_before + P_after - (hop x U + hop^H x U^H)

where the before/after patterns are the slot's bond-local clock labels and
U is the slot's scheduled gate acting on the two qubit bits.  With this
normalization the legal orbit carries exactly the path-graph Laplacian and
the uniform history superposition is an exact zero mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import HEAD, Data, SpinBasis, slot_edges
from .circuit import ProblemShape, SweepSchedule

HERMITICITY_TOL = 1e-12
RING_HERMITICITY_TOL = 1e-10


class BuildError(ValueError):
    """Term construction or assembly failed a structural requirement."""


def hermiticity_residual(mat) -> float:
    """Largest entry of |M - M^H|; exactly 0 for a Hermitian sparse matrix."""
    delta = mat - mat.conj().T
    return 0.0 if delta.nnz == 0 else float(np.abs(delta.data).max())


def _canonical_coo(rows, cols, vals, dim: int) -> sp.csr_matrix:
    """Deduplicate COO triples with a fixed, order-independent summation.

    Triples are sorted by (row, col, value) before the per-entry reduction,
    so the assembled matrix is bit-identical no matter how contributions
    were generated or partitioned.  That makes the translation-invariance
    residual of ring sums exactly zero.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=complex)
    if rows.size == 0:
        return sp.csr_matrix((dim, dim), dtype=complex)
    order = np.lexsort((vals.imag, vals.real, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    boundary = np.empty(rows.size, dtype=bool)
    boundary[0] = True
    np.not_equal(rows[1:], rows[:-1], out=boundary[1:])
    boundary[1:] |= cols[1:] != cols[:-1]
    starts = np.flatnonzero(boundary)
    summed = np.add.reduceat(vals, starts)
    keep = summed != 0
    mat = sp.csr_matrix(
        (summed[keep], (rows[starts][keep], cols[starts][keep])), shape=(dim, dim)
    )
    mat.sort_indices()
    return mat


@dataclass
class LocalTerm:
    """A Hermitian operator on one ordered bond (left site, right site)."""

    local_dim: int
    matrix: sp.csr_matrix
    provenance: str = ""

    @property
    def dim(self) -> int:
        return self.local_dim ** 2

    def hermiticity_residual(self) -> float:
        return hermiticity_residual(self.matrix)

    def operator_norm(self) -> float:
        if self.matrix.nnz == 0:
            return 0.0
        if self.dim <= 512:
            return float(np.abs(np.linalg.eigvalsh(self.matrix.toarray())).max())
        extreme = spla.eigsh(self.matrix, k=1, which="LM", return_eigenvectors=False)
        return float(abs(extreme[0]))

    def validate(self, max_norm: float | None = None) -> "LocalTerm":
        res = self.hermiticity_residual()
        if res > HERMITICITY_TOL:
            raise BuildError(f"{self.provenance}: hermiticity residual {res:.3g}")
        if max_norm is not None and self.operator_norm() > max_norm:
            raise BuildError(f"{self.provenance}: norm exceeds {max_norm}")
        return self


def _term_from_triples(rows, cols, vals, basis: SpinBasis, provenance: str) -> LocalTerm:
    d = basis.local_dim
    return LocalTerm(d, _canonical_coo(rows, cols, vals, d * d), provenance)


def build_h_comp_bond(schedule: SweepSchedule) -> LocalTerm:
    """Sweep term: one PSD edge operator per slot, summed over all slots."""
    shape = schedule.shape.require_valid()
    basis = SpinBasis(shape)
    d = basis.local_dim
    rows, cols, vals = [], [], []

    def pair_index(left: Data, right: Data) -> int:
        return basis.encode(left) * d + basis.encode(right)

    for edge in slot_edges(shape):
        gate = schedule.gate_at(edge.cycle, edge.bond)
        n = edge.bond
        pre = [
            [pair_index(Data(x1, edge.pre[0], n), Data(x2, edge.pre[1], n + 1))
             for x2 in (0, 1)] for x1 in (0, 1)
        ]
        post = [
            [pair_index(Data(x1, edge.post[0], n), Data(x2, edge.post[1], n + 1))
             for x2 in (0, 1)] for x1 in (0, 1)
        ]
        for x1 in (0, 1):
            for x2 in (0, 1):
                for idx in (pre[x1][x2], post[x1][x2]):
                    rows.append(idx)
                    cols.append(idx)
                    vals.append(1.0)
        for x1p in (0, 1):
            for x2p in (0, 1):
                for x1 in (0, 1):
                    for x2 in (0, 1):
                        amp = gate[(x1p << 1) | x2p, (x1 << 1) | x2]
                        if amp == 0:
                            continue
                        rows.append(post[x1p][x2p])
                        cols.append(pre[x1][x2])
                        vals.append(-amp)
                        rows.append(pre[x1][x2])
                        cols.append(post[x1p][x2p])
                        vals.append(-np.conj(amp))
    term = _term_from_triples(rows, cols, vals, basis, "h_comp")
    return term.validate(max_norm=10 * shape.total_steps)


def build_h_input_bond(shape: ProblemShape) -> LocalTerm:
    """Ancilla penalty: project bit 1 at cycle 0 on positions M+1..N."""
    shape.require_valid()
    basis = SpinBasis(shape)
    d = basis.local_dim
    rows = []
    for z in range(shape.input_len + 1, shape.n_qubits + 1):
        lvl = basis.encode(Data(1, 0, z))
        rows.extend(lvl * d + k for k in range(d))
    return _term_from_triples(rows, rows, np.ones(len(rows)), basis, "h_input").validate()


def build_h_form_bond(shape: ProblemShape) -> LocalTerm:
    """Layout penalties: head reward, head crowding, position increments.

    The reward -|H><H| sits on the left site so the ring sum counts each
    site once.  A head costs +2 unless preceded by data at position N, and
    +2 unless followed by data at position 1, which overcompensates the
    reward for every head outside the one legal slot between positions N
    and 1.  Data-data pairs must increment position by exactly 1; a data
    spin after position N is always penalized.  The only configurations at
    the -1 floor are single-head rings whose positions read 1..N clockwise
    from the head.
    """
    shape.require_valid()
    basis = SpinBasis(shape)
    d = basis.local_dim
    n_q, r = shape.n_qubits, shape.n_cycles
    rows, vals = [], []

    head = basis.encode(HEAD)
    for k in range(d):
        rows.append(head * d + k)
        vals.append(-1.0)

    data_levels = {
        z: [basis.encode(Data(x, y, z)) for x in (0, 1) for y in range(r + 1)]
        for z in range(1, n_q + 1)
    }
    last = set(data_levels[n_q])
    first = set(data_levels[1])
    for lvl in range(d):
        if lvl not in last:  # head preceded by anything but position N
            rows.append(lvl * d + head)
            vals.append(2.0)
        if lvl not in first:  # head followed by anything but position 1
            rows.append(head * d + lvl)
            vals.append(2.0)

    for z_left in range(1, n_q + 1):
        for z_right in range(1, n_q + 1):
            if z_right == z_left + 1:
                continue
            for left in data_levels[z_left]:
                for right in data_levels[z_right]:
                    rows.append(left * d + right)
                    vals.append(1.0)
    return _term_from_triples(rows, rows, vals, basis, "h_form").validate()


def build_h_output_bond(shape: ProblemShape) -> LocalTerm:
    """Reject penalty: project bit 1 at cycle R, position 1."""
    shape.require_valid()
    basis = SpinBasis(shape)
    d = basis.local_dim
    lvl = basis.encode(Data(1, shape.n_cycles, 1))
    rows = [lvl * d + k for k in range(d)]
    return _term_from_triples(rows, rows, np.ones(d), basis, "h_output").validate()


@dataclass(frozen=True)
class CouplingConstants:
    """Weights of the total Hamiltonian's four parts."""

    j1: float
    j2: float
    alpha: float
    w_out: float

    def __post_init__(self):
        if min(self.j1, self.j2, self.alpha, self.w_out) <= 0:
            raise BuildError("coupling constants must be strictly positive")

    @classmethod
    def with_default_output_weight(cls, shape: ProblemShape, j1, j2, alpha):
        return cls(j1, j2, alpha, float(shape.total_steps))


@dataclass
class RingOperator:
    """A translation-invariant operator on the full d^(N+1) ring space."""

    shape: ProblemShape
    matrix: sp.csr_matrix
    provenance: str = ""

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def hermiticity_residual(self) -> float:
        return hermiticity_residual(self.matrix)


DIM_CAP = 2 ** 24


def _bond_triples(term: LocalTerm, bond: int, shape: ProblemShape):
    """Global COO triples for one bond term placed at ring bond (i, i+1).

    Site 0 is the most significant configuration digit.  The wrap bond
    (N, 0) has its left factor on the least significant digit and its right
    factor on the most significant one.
    """
    d = term.local_dim
    n_sites = shape.n_sites
    coo = term.matrix.tocoo()
    left_r, right_r = coo.row // d, coo.row % d
    left_c, right_c = coo.col // d, coo.col % d
    vals = coo.data

    if bond < n_sites - 1:
        high = d ** bond
        low = d ** (n_sites - 2 - bond)
        high_idx = np.arange(high, dtype=np.int64) * (d * d * low)
        low_idx = np.arange(low, dtype=np.int64)
        base_r = (left_r * d + right_r) * low
        base_c = (left_c * d + right_c) * low
        rows = (high_idx[:, None, None] + base_r[None, :, None] + low_idx[None, None, :]).ravel()
        cols = (high_idx[:, None, None] + base_c[None, :, None] + low_idx[None, None, :]).ravel()
        out_vals = np.broadcast_to(vals[None, :, None], (high, vals.size, low)).ravel()
    else:
        mid = d ** (n_sites - 2)
        mid_idx = np.arange(mid, dtype=np.int64) * d
        base_r = right_r * (d ** (n_sites - 1)) + left_r
        base_c = right_c * (d ** (n_sites - 1)) + left_c
        rows = (base_r[:, None] + mid_idx[None, :]).ravel()
        cols = (base_c[:, None] + mid_idx[None, :]).ravel()
        out_vals = np.broadcast_to(vals[:, None], (vals.size, mid)).ravel()
    return rows, cols, out_vals


def assemble(
    parts: list[tuple[LocalTerm, float]],
    shape: ProblemShape,
    provenance: str = "",
    dim_cap: int = DIM_CAP,
) -> RingOperator:
    """Sum weighted bond terms over all N+1 ring bonds.

    All contributions are merged through one canonical sorted reduction, so
    the result is independent of bond order and exactly shift-invariant.
    """
    shape.require_valid()
    basis = SpinBasis(shape)
    dim = basis.config_dim
    if dim > dim_cap:
        raise BuildError(f"configuration space dim {dim} exceeds cap {dim_cap}")
    d = basis.local_dim
    all_rows, all_cols, all_vals = [], [], []
    for term, weight in parts:
        if term.local_dim != d:
            raise BuildError("bond term local dimension mismatch")
        if weight == 0 or term.matrix.nnz == 0:
            continue
        for bond in range(shape.n_sites):
            rows, cols, vals = _bond_triples(term, bond, shape)
            all_rows.append(rows)
            all_cols.append(cols)
            all_vals.append(vals * weight)
    if not all_rows:
        return RingOperator(shape, sp.csr_matrix((dim, dim), dtype=complex), provenance)
    mat = _canonical_coo(
        np.concatenate(all_rows), np.concatenate(all_cols), np.concatenate(all_vals), dim
    )
    op = RingOperator(shape, mat, provenance)
    res = op.hermiticity_residual()
    if res > RING_HERMITICITY_TOL:
        raise BuildError(f"assembled operator hermiticity residual {res:.3g}")
    return op


def standard_parts(schedule: SweepSchedule) -> dict[str, LocalTerm]:
    shape = schedule.shape
    return {
        "H_input": build_h_input_bond(shape),
        "H_form": build_h_form_bond(shape),
        "H_comp": build_h_comp_bond(schedule),
        "H_output": build_h_output_bond(shape),
    }


def assemble_part(term: LocalTerm, shape: ProblemShape, name: str = "") -> RingOperator:
    return assemble([(term, 1.0)], shape, provenance=name or term.provenance)


def assemble_total(
    schedule: SweepSchedule, constants: CouplingConstants, dim_cap: int = DIM_CAP
) -> RingOperator:
    """H = J1 H_input + J2 (alpha H_form + H_comp) + w_out H_output."""
    parts = standard_parts(schedule)
    weighted = [
        (parts["H_input"], constants.j1),
        (parts["H_form"], constants.j2 * constants.alpha),
        (parts["H_comp"], constants.j2),
        (parts["H_output"], constants.w_out),
    ]
    tag = (
        f"total(j1={constants.j1:.12g},j2={constants.j2:.12g},"
        f"alpha={constants.alpha:.12g},w_out={constants.w_out:.12g})"
    )
    return assemble(weighted, schedule.shape, provenance=tag, dim_cap=dim_cap)


def build_shift_operator(shape: ProblemShape) -> RingOperator:
    """Cyclic shift S: the content of site i moves to site i + 1 (mod N+1)."""
    shape.require_valid()
    basis = SpinBasis(shape)
    d, n_sites = basis.local_dim, shape.n_sites
    dim = basis.config_dim
    src = np.arange(dim, dtype=np.int64)
    # Site 0 is the most significant digit; shifting site content forward
    # rotates the digit string right.
    last = src % d
    rest = src // d
    dst = last * (d ** (n_sites - 1)) + rest
    mat = sp.csr_matrix((np.ones(dim), (dst, src)), shape=(dim, dim), dtype=complex)
    return RingOperator(shape, mat, "shift")


def check_translation_invariance(op: RingOperator, shift: RingOperator) -> float:
    """Max-entry norm of S H - H S; exactly 0 for canonical assemblies."""
    if op.matrix.shape != shift.matrix.shape:
        raise BuildError("operator dimensions do not match")
    delta = shift.matrix @ op.matrix - op.matrix @ shift.matrix
    return 0.0 if delta.nnz == 0 else float(np.abs(delta.data).max())


def export_triplets(op: RingOperator) -> str:
    """Sparse text export: header then 'row col re im' per entry, sorted."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [f"% dim {op.dim} nnz {coo.nnz} hermitian"]
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        lines.append(f"{r} {c} {v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"


def parse_triplets(text: str) -> sp.csr_matrix:
    """Read export_triplets text; malformed input raises BuildError naming the line."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("%"):
        raise BuildError("missing triplet header")
    header = lines[0][1].split()
    try:
        dim, nnz = int(header[2]), int(header[4])
    except (IndexError, ValueError):
        raise BuildError(f"line {lines[0][0]}: expected '% dim <D> nnz <K>'") from None
    if not 0 <= dim <= DIM_CAP:
        raise BuildError(f"line {lines[0][0]}: dim {dim} out of range 0..{DIM_CAP}")
    rows, cols, vals = [], [], []
    for lineno, ln in lines[1:]:
        try:
            r, c, re, im = ln.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(complex(float(re), float(im)))
        except ValueError:
            raise BuildError(f"line {lineno}: expected 'row col re im' numbers") from None
    if rows and not (0 <= min(rows) and 0 <= min(cols) and max(rows) < dim and max(cols) < dim):
        k = next(k for k, (r, c) in enumerate(zip(rows, cols)) if not (0 <= r < dim and 0 <= c < dim))
        raise BuildError(f"line {lines[k + 1][0]}: index out of range 0..{dim - 1}")
    if len(rows) != nnz:
        raise BuildError(f"header says nnz {nnz}, found {len(rows)} entries")
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
