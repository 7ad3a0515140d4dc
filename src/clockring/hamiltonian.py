"""Bond-local Hermitian terms and their translation-invariant ring sums.

Every part of the total Hamiltonian is a single d^2 x d^2 bond term summed
over all N+1 ring bonds: the term is laid on bond (0, 1) and translated
with SpinBasis.translate, and all contributions meet in one sorted
reduction, so the sum commutes exactly with the cyclic shift.  The sweep
part is a sum of positive semidefinite edge operators, one per sweep slot:

    P_before + P_after - (hop x U + hop^H x U^H)

where the before/after patterns are the slot's bond-local clock labels and
U is the slot's scheduled gate acting on the two qubit bits.  With this
normalization the legal orbit carries exactly the path-graph Laplacian and
the uniform history superposition is an exact zero mode.

Only H_comp has off-diagonal entries, and it rewrites cycle labels and bits
without moving the head or a position, so the head-0 form-valid sector V0
((2(R+1))^N configurations) is an invariant block.  assemble_sector builds
such a block, or any closed subset of it like the legal orbit, without the
d^(N+1) space; off_sector_floor bounds H from below off the form-valid set,
which is what makes a sector eigenvalue below it a full-space eigenvalue.
`assemble` builds the full space, for export and the translation check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import HEAD, Data, SpinBasis, slot_edges
from .circuit import ProblemShape, SweepSchedule
from .spectral import hermiticity_residual, low_spectrum

HERMITICITY_TOL = 1e-12
RING_HERMITICITY_TOL = 1e-10


class BuildError(ValueError):
    """Term construction or assembly failed a structural requirement."""


def _canonical_coo(rows, cols, vals, dim: int) -> sp.csr_matrix:
    """Deduplicate COO triples with a fixed, order-independent summation.

    Triples are sorted by (row * dim + col, value) before the per-entry
    reduction, so the assembled matrix is bit-identical no matter how
    contributions were generated or partitioned.  That makes the
    translation-invariance residual of ring sums exactly zero.
    """
    if dim > 3_037_000_499:  # row * dim + col would overflow int64
        raise BuildError(f"dim {dim} too large for int64 entry keys")
    keys = np.asarray(rows, dtype=np.int64) * dim + np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=complex)
    if keys.size == 0:
        return sp.csr_matrix((dim, dim), dtype=complex)
    order = np.lexsort((vals.imag, vals.real, keys))
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    summed = np.add.reduceat(vals, starts)
    keep = summed != 0
    keys = keys[starts][keep]
    indptr = np.searchsorted(keys, np.arange(dim + 1, dtype=np.int64) * dim)
    return sp.csr_matrix((summed[keep], keys % dim, indptr), shape=(dim, dim))


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
        """max |lambda| as the larger of |lambda_min(M)| and |lambda_min(-M)|."""
        return max(abs(float(low_spectrum(s * self.matrix, 1).eigenvalues[0])) for s in (1, -1))

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

    def pair_indices(labels, n: int) -> np.ndarray:
        """Bond indices of the bit pairs (x1, x2) in gate order 2 x1 + x2."""
        return np.array([
            basis.encode(Data(x1, labels[0], n)) * d + basis.encode(Data(x2, labels[1], n + 1))
            for x1 in (0, 1) for x2 in (0, 1)
        ])

    for edge in slot_edges(shape):
        pre, post = pair_indices(edge.pre, edge.bond), pair_indices(edge.post, edge.bond)
        gate = schedule.gate_at(edge.cycle, edge.bond)
        out, into = np.nonzero(gate)
        amps = gate[out, into]
        rows += [*pre, *post, *post[out], *pre[into]]
        cols += [*pre, *post, *pre[into], *post[out]]
        vals += [1.0] * 8 + [*-amps, *-amps.conj()]
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

    The term is laid on sites (0, 1) and translated `bond` sites.  A
    translation only permutes digits, so the term's two digits and the
    other sites' digits are translated apart and added.
    """
    basis = SpinBasis(shape)
    rest = basis.config_dim // term.dim
    coo = term.matrix.tocoo()
    others = basis.translate(np.arange(rest, dtype=np.int64), bond)
    rows = (basis.translate(coo.row.astype(np.int64) * rest, bond)[:, None] + others).ravel()
    cols = (basis.translate(coo.col.astype(np.int64) * rest, bond)[:, None] + others).ravel()
    vals = np.broadcast_to(coo.data[:, None], (coo.nnz, rest)).ravel()
    return rows, cols, vals


def checked_dim(shape: ProblemShape, dim_cap: int = DIM_CAP) -> int:
    """Configuration-space dim of a full-space build; BuildError above the cap."""
    dim = SpinBasis(shape.require_valid()).config_dim
    if dim > dim_cap:
        raise BuildError(f"configuration space dim {dim} exceeds cap {dim_cap}")
    return dim


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
    dim = checked_dim(shape, dim_cap)
    d = SpinBasis(shape).local_dim
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


def assemble_sector(
    weighted_terms: list[tuple[LocalTerm, float]], shape: ProblemShape, configs
) -> sp.csr_matrix:
    """The ring sum of weighted bond terms on a closed set of V0 configurations.

    `configs` holds distinct V0 keys (SpinBasis.sector_keys); row and column
    i of the block belong to configs[i].  On every ring bond, each
    configuration's two digits select a bond-term row, and its entries give
    the target configurations, keyed in V0 without any d^(N+1) index.  A
    target outside `configs` raises BuildError, so a returned block is an
    invariant block of the full-space sum.  The weighted contributions and
    their reduction are those of `assemble`, so every entry equals the
    full-space entry bit for bit.
    """
    basis = SpinBasis(shape.require_valid())
    n, d, base = shape.n_qubits, basis.local_dim, 2 * (shape.n_cycles + 1)
    if basis.sector_dim > np.iinfo(np.int64).max:
        raise BuildError(f"sector dim {basis.sector_dim} does not fit in int64")
    keys = np.asarray(configs, dtype=np.int64).ravel()
    size = keys.size
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    if size and (ordered[0] < 0 or ordered[-1] >= basis.sector_dim
                 or np.any(ordered[1:] == ordered[:-1])):
        raise BuildError("sector configurations must be distinct V0 keys")

    # One row table over all weighted terms: every term entry keeps its own
    # weighted value, as in `assemble`.
    term_rows, term_cols, term_vals = [], [], []
    for term, weight in weighted_terms:
        if term.local_dim != d:
            raise BuildError("bond term local dimension mismatch")
        if weight == 0 or term.matrix.nnz == 0:
            continue
        coo = term.matrix.tocoo()
        term_rows.append(coo.row)
        term_cols.append(coo.col)
        term_vals.append(coo.data * weight)
    if not term_rows or not size:
        return sp.csr_matrix((size, size), dtype=complex)
    by_row = np.argsort(np.concatenate(term_rows), kind="stable")
    table_cols = np.concatenate(term_cols)[by_row].astype(np.int64)
    table_vals = np.concatenate(term_vals)[by_row]
    indptr = np.searchsorted(np.concatenate(term_rows)[by_row], np.arange(d * d + 1))

    # Site s holds level lowest[s] + digit, digit < width[s], weighing place[s]
    # in the key: the head (level 0) on site 0, Data(bit, cycle, z) on site z.
    lowest = np.concatenate(([0], 1 + base * np.arange(n)))
    width = np.concatenate(([1], np.full(n, base)))
    place = np.concatenate(([0], np.int64(base) ** np.arange(n - 1, -1, -1)))
    levels = np.zeros((size, n + 1), dtype=np.int64)
    levels[:, 1:] = lowest[1:] + (keys[:, None] // place[1:]) % base

    # Every (configuration, bond) pair; bond b joins sites b and b + 1.
    left = np.tile(np.arange(n + 1), size)
    right = (left + 1) % (n + 1)
    source = np.repeat(np.arange(size), n + 1)
    row = levels[source, left] * d + levels[source, right]
    count = indptr[row + 1] - indptr[row]
    entry = np.arange(count.sum()) + np.repeat(indptr[row] - np.cumsum(count) + count, count)
    pair = np.repeat(np.arange(row.size), count)
    owner, left, right = source[pair], left[pair], right[pair]
    new_left, new_right = np.divmod(table_cols[entry], d)
    target = keys[owner]
    inside = np.ones(entry.size, dtype=bool)
    for site, new in ((left, new_left), (right, new_right)):
        digit = new - lowest[site]
        inside &= (digit >= 0) & (digit < width[site])
        target = target + (new - levels[owner, site]) * place[site]
    slot = np.minimum(np.searchsorted(ordered, target), size - 1)
    if not np.all(inside & (ordered[slot] == target)):
        raise BuildError("a bond term couples a sector configuration outside the sector")
    return _canonical_coo(owner, order[slot], table_vals[entry], size)


def form_minimum_off_sector(form: LocalTerm, shape: ProblemShape) -> float:
    """Lowest ring sum of the H_form bond term over configurations outside V.

    V is the form-valid set: one head, positions 1..N clockwise from it.
    A min-plus transfer-matrix pass around the ring keeps, for every digit
    of the current site, the lowest value of the open paths ending there,
    how many reach it, and the next distinct value.  The term must be
    diagonal and integer-valued, the ring minimum must be -1, and exactly
    |V| = (N+1) (2(R+1))^N configurations must reach it; otherwise
    BuildError.  Given that every configuration of V sits at -1, the
    minimizers are exactly V, and the next distinct value is the answer.
    """
    basis = SpinBasis(shape.require_valid())
    d = basis.local_dim
    coo = form.matrix.tocoo()
    if np.any(coo.row != coo.col) or np.any(coo.data.imag != 0) or np.any(coo.data.real % 1 != 0):
        raise BuildError(f"{form.provenance}: bond term is not diagonal and integer-valued")
    if basis.config_dim > np.iinfo(np.int64).max:
        raise BuildError(f"config dim {basis.config_dim} does not fit in int64 path counts")
    bond = np.zeros(d * d)
    bond[coo.row] = coo.data.real
    bond = bond.reshape(d, d)  # bond[left digit, right digit]

    def step(low, ways, nxt, weights):
        """Extend every path by one bond: weights[from digit, to digit]."""
        cand = low[:, :, None] + weights
        new_low = cand.min(axis=1)
        at_low = cand == new_low[:, None]
        new_nxt = np.minimum(np.where(at_low, np.inf, cand).min(axis=1),
                             (nxt[:, :, None] + weights).min(axis=1))
        return new_low, (ways[:, :, None] * at_low).sum(axis=1), new_nxt

    # Row f of each state belongs to the paths that start with digit f on
    # site 0; rows are taken in chunks of about 2^20 path extensions.
    ring = []
    for first in np.array_split(np.arange(d), -(-d ** 3 // 2 ** 20)):
        low, nxt = bond[first], np.full((first.size, d), np.inf)
        ways = np.ones((first.size, d), dtype=np.int64)
        for _ in range(shape.n_qubits - 1):
            low, ways, nxt = step(low, ways, nxt, bond)
        # The last bond returns to the digit each path started with.
        ring.append(step(low, ways, nxt, bond[:, first].T[:, :, None]))
    low, ways, nxt = (np.concatenate(x, axis=None) for x in zip(*ring))
    lowest = low.min()
    count = int(ways[low == lowest].sum())
    expected = shape.n_sites * basis.sector_dim
    if lowest != -1 or count != expected:
        raise BuildError(
            f"{form.provenance}: ring minimum {lowest:g} reached {count} times, "
            f"expected -1 reached {expected} times"
        )
    return float(min(nxt.min(), low[low > lowest].min(initial=np.inf)))


def off_sector_floor(
    parts: dict[str, LocalTerm], constants: CouplingConstants, shape: ProblemShape
) -> float:
    """A lower bound on the total Hamiltonian outside the form-valid set V.

    Every part keeps V invariant (assemble_sector's closure check on V0,
    and translation for the other heads), so the complement is invariant
    too.  There weighted H_form is at least its weight times
    form_minimum_off_sector, and the other weighted parts together are at
    least N+1 times the lowest eigenvalue of their weighted bond-term sum.
    """
    form = parts["H_form"]
    floor, rest = 0.0, []
    for term, weight in total_parts(parts, constants):
        if term is form:
            floor += weight * form_minimum_off_sector(form, shape)
        else:
            rest.append(weight * term.matrix)
    lowest_other = float(low_spectrum(sum(rest[1:], rest[0]), 1).eigenvalues[0])
    return floor + shape.n_sites * lowest_other


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


def total_parts(
    parts: dict[str, LocalTerm], constants: CouplingConstants
) -> list[tuple[LocalTerm, float]]:
    """Weighted terms of H = J1 H_input + J2 (alpha H_form + H_comp) + w_out H_output."""
    return [
        (parts["H_input"], constants.j1),
        (parts["H_form"], constants.j2 * constants.alpha),
        (parts["H_comp"], constants.j2),
        (parts["H_output"], constants.w_out),
    ]


def assemble_total(
    schedule: SweepSchedule, constants: CouplingConstants, dim_cap: int = DIM_CAP
) -> RingOperator:
    """The total Hamiltonian of the schedule's standard parts (see total_parts)."""
    checked_dim(schedule.shape, dim_cap)
    tag = (
        f"total(j1={constants.j1:.12g},j2={constants.j2:.12g},"
        f"alpha={constants.alpha:.12g},w_out={constants.w_out:.12g})"
    )
    weighted = total_parts(standard_parts(schedule), constants)
    return assemble(weighted, schedule.shape, provenance=tag, dim_cap=dim_cap)


def build_shift_operator(shape: ProblemShape) -> RingOperator:
    """Cyclic shift S: the content of site i moves to site i + 1 (mod N+1)."""
    shape.require_valid()
    basis = SpinBasis(shape)
    dim = basis.config_dim
    src = np.arange(dim, dtype=np.int64)
    mat = sp.csr_matrix((np.ones(dim), (basis.translate(src, 1), src)), shape=(dim, dim), dtype=complex)
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
