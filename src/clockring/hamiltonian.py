"""Bond-local Hermitian terms and their translation-invariant ring sums.

Every part of the total Hamiltonian is a single bond term summed over all
N+1 ring bonds.  A term (LocalTerm) has one form, never a d^2-indexed
array: a class table, whose diagonal part maps each of the d levels to a
class and reads a small class-pair table (H_form's (N+1) x (N+1) table
over positions, H_input's and H_output's left-site levels), plus touched
pairs, the entries of the few level pairs it touches (H_comp's O(16 T)).
form_minimum_off_sector reads class-table terms only.  The one
d^2-indexed object left is LocalTerm.matrix, the d^2 x d^2 CSR, built on
demand for tests only: the full-space `assemble` reads the stored entries,
LocalTerm.entries(), through _weighted_entries.  The terms and the
sector code take every level from SpinBasis (level, positions,
sector_layout), which alone states the site layout.

In `assemble` the term is laid on bond (0, 1) and translated with
SpinBasis.translate, and all contributions meet in one canonical
reduction, _reduce, so the sum commutes exactly with the cyclic shift; it
also sums sector blocks, LocalTerm.matrix and a term's touched pairs.  It
ranks every value in a small table of the values in (real, imag) order,
one entry per run of equal bits, and sorts one int64 code per
contribution, the entry key row * dim + col times the table size plus the
rank; equal ranks hold equal bits, so each entry's sum does not depend on
how contributions arrived.  The sweep part is a sum of positive
semidefinite edge operators, one per sweep slot:

    P_before + P_after - (hop x U + hop^H x U^H)

where the before/after patterns are the slot's bond-local clock labels and
U is the slot's scheduled gate acting on the two qubit bits.  With this
normalization the legal orbit carries exactly the path-graph Laplacian and
the uniform history superposition is an exact zero mode.  An edge operator
is positive semidefinite because its gate is unitary, which a SweepSchedule
checks when it is made; H_comp's norm check is its largest absolute row sum.

Only H_comp has off-diagonal entries, and it rewrites cycle labels and bits
without moving the head or a position, so the head-0 form-valid sector V0
(SpinBasis.sector_dim configurations) is an invariant block.
assemble_sector builds such a block, or any closed subset of it like the
legal orbit (assemble_orbit), without the d^(N+1) space, from the class
tables and a binary search in the touched pairs; off_sector_floor, H_form's
weighted min-plus path bound over classes (the other parts are positive
semidefinite), bounds H off the form-valid set, which makes a sector
eigenvalue below it a full-space one.
`assemble` builds the full space, which only compile and export need, and
refuses more than DIM_CAP configurations (assemble_total does so before
building any bond term).  It sorts the full-space sum per site-0 row block
of about CHUNK contributions and sums each block in runs of at most CHUNK
(_ring_sum), writing into output arrays sized once from a bound; the
Hermiticity residual transposes byte labels of the stored positions rather
than the values, the shift operator holds int8 ones built one CHUNK of rows
at a time, and the translation check subtracts one row block at a time in
place.  So each stage holds the output plus O(CHUNK) scratch, and peak
memory follows the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np
import scipy.sparse as sp

from .basis import SpinBasis, orbit_label_walk, slot_edges
from .circuit import ProblemShape, SweepSchedule
from .spectral import CHUNK, hermiticity_residual

HERMITICITY_TOL = 1e-12
RING_HERMITICITY_TOL = 1e-10


class BuildError(ValueError):
    """Term construction or assembly failed a structural requirement."""


def _value_table(vals) -> tuple[np.ndarray, np.ndarray]:
    """The values in (real, imag) order, one table entry per run of equal
    bits, and the index in that table of every value in `vals`.

    Values that compare equal but differ in the sign of a zero get separate
    entries, so table[rank] gives every value back bit for bit.
    """
    vals = np.ascontiguousarray(vals, dtype=complex).ravel()
    order = np.argsort(vals, kind="stable")
    ordered = vals[order]
    bits = ordered.view(np.int64)  # real and imaginary part of each value
    differs = bits[2:] != bits[:-2]
    first = np.ones(vals.size, dtype=bool)
    first[1:] = differs[::2] | differs[1::2]
    rank = np.empty(vals.size, dtype=np.int64)
    rank[order] = first.cumsum() - 1
    return ordered[first], rank


def _packs(dim: int, width: int) -> bool:
    """Whether (row * dim + col) * width + rank fits in int64 for every
    entry; BuildError when the entry key row * dim + col itself does not."""
    if dim > 3_037_000_499:
        raise BuildError(f"dim {dim} too large for int64 entry keys")
    return dim * dim * width <= 2 ** 63


def _finite(vals: np.ndarray, what: str) -> np.ndarray:
    """`vals`, or BuildError when one of them overflowed to inf or NaN."""
    if not np.all(np.isfinite(vals)):
        raise BuildError(f"{what} is not finite")
    return vals


@np.errstate(over="ignore", invalid="ignore")  # _finite refuses what overflowed
def _sum_runs(keys, ranks, table, n_cols: int, counts: np.ndarray, out, at: int) -> int:
    """Reduce one block of rows: the per-key sums of table[ranks], in the
    given order, with `keys`, row * n_cols + col with rows counted from the
    block's first, sorted.  The nonzero sums and their columns are written
    to out = (data, indices) from position `at`, each row's entry count to
    counts[row], and the position after the last entry written is returned.

    The block is summed in runs of at most CHUNK contributions, each cut
    where a row begins; a row with more contributions than that makes a run
    of its own.  So a run holds every contribution to its entries and rows,
    and each sum and count is that of the whole block.
    """
    data, indices = out
    start = 0
    while start < keys.size:
        stop = start + CHUNK
        if stop < keys.size:  # back to where the row at `stop` begins, or on past the first row
            cut = keys.searchsorted(keys[stop] - keys[stop] % n_cols)
            stop = cut if cut > start else keys.searchsorted(keys[start] - keys[start] % n_cols + n_cols)
        run = keys[start:stop]
        gathered = np.take(table, ranks[start:start + run.size], mode="clip")  # every rank is in range
        starts = np.flatnonzero(np.concatenate(([True], run[1:] != run[:-1])))
        # Summed straight into the output: a run has no more entries than the
        # bound leaves room for, and the zero sums are then squeezed out.
        summed = _finite(np.add.reduceat(gathered, starts, out=data[at:at + starts.size]), "a summed entry")
        keep = summed != 0
        if not keep.all():
            starts = starts[keep]
            summed[:starts.size] = summed[keep]
        rows, cols = np.divmod(run[starts], n_cols)
        indices[at:at + starts.size] = cols
        if starts.size:  # the bounds of each row's run of entries
            bounds = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1], [True])))
            counts[rows[bounds[:-1]]] = bounds[1:] - bounds[:-1]
        at += starts.size
        start += run.size
    return at


def _split_packed(codes, width: int):
    """Sort codes packed as key * width + rank in place; the keys, and the
    ranks, which are written over `codes`."""
    codes.sort()
    keys = codes // width
    np.remainder(codes, width, out=codes)
    return keys, codes


def _output(dim: int, bound: int):
    """Zeroed per-row entry counts, counts[1 + row], and uninitialized data
    and indices for at most `bound` entries, in scipy's index dtype for `dim`
    rows and `bound` entries, so the CSR keeps the arrays."""
    counts = np.zeros(dim + 1, dtype=sp.get_index_dtype(maxval=max(dim, bound)))
    return counts, (np.empty(bound, dtype=complex), np.empty(bound, dtype=counts.dtype))


def _csr(out, size: int, counts, n_cols: int) -> sp.csr_matrix:
    """The CSR of the first `size` entries of out = (data, indices), trimmed
    in place, in rows whose entry counts are counts[1:], which one in-place
    cumulative sum turns into its indptr."""
    for array in out:  # no view of either array exists to be left dangling
        if array.size != size:
            array.resize(size, refcheck=False)
    np.cumsum(counts, dtype=counts.dtype, out=counts)
    return sp.csr_matrix((*out, counts), shape=(counts.size - 1, n_cols))


def _reduce(keys, ranks, table, dim: int) -> sp.csr_matrix:
    """Sum the values table[ranks] per entry key row * dim + col, each
    entry's contributions ordered by rank; `keys` is overwritten."""
    packed = _packs(dim, table.size)
    if keys.size == 0:
        return sp.csr_matrix((dim, dim), dtype=complex)
    counts, out = _output(dim, keys.size)
    if packed:
        keys *= table.size
        keys += ranks
        keys, ranks = _split_packed(keys, table.size)
    else:
        order = np.lexsort((ranks, keys))
        keys, ranks = keys[order], ranks[order]
    return _csr(out, _sum_runs(keys, ranks, table, dim, counts[1:], out, 0), counts, dim)


def _canonical_coo(rows, cols, vals, dim: int) -> sp.csr_matrix:
    """Deduplicate COO triples with a fixed, order-independent summation:
    the dim x dim CSR of their nonzero sums, columns ascending in a row.

    Each entry is summed in the value order of _value_table, and values
    that compare equal give the same sum in either order, so the result is
    bit-identical however the triples were generated or partitioned (a
    term's touched pairs too, relabelled 0..n-1 so dim is n, not d^2).  When
    the packed codes would overflow int64, a two-key lexsort on (key, rank)
    gives the same order.
    """
    keys = np.asarray(rows, dtype=np.int64) * dim + np.asarray(cols, dtype=np.int64)
    table, ranks = _value_table(vals)
    return _reduce(keys, ranks, table, dim)


class LocalTerm:
    """A Hermitian operator on one ordered bond (left site, right site).

    It is held in two parts, either of which may be empty, and never as a
    d^2-indexed array.  The diagonal part gives the level pair (left, right)
    the value table[classes[left], classes[right]]: `classes` maps each of
    the d levels to a class, and the class-pair table is small.  The touched
    part holds the nonzero sums of _canonical_coo over pair keys left * d +
    right: `rows` sorted, `cols` ascending within a row, values `vals`.
    These two parts are the term's one form.  The d^2 CSR, `matrix`, is
    built on demand for tests; the full-space `assemble` reads `entries()`
    instead.
    """

    def __init__(self, local_dim: int, provenance: str = "", *, classes=None, table=None, pairs=None):
        self.local_dim, self.provenance = local_dim, provenance
        self.classes = np.zeros(local_dim, dtype=np.int64) if classes is None else np.asarray(classes)
        self.table = np.zeros((1, 1), dtype=np.int8) if table is None else np.asarray(table)
        if pairs is None:
            pairs = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
        self.rows, self.cols, self.vals = pairs

    @property
    def dim(self) -> int:
        return self.local_dim ** 2

    def entries(self):
        """Rows, cols (int64 pair keys) and values of every stored entry: the
        nonzero diagonal pairs, class pair by class pair, then the touched part."""
        members = np.argsort(self.classes, kind="stable")
        bounds = np.searchsorted(self.classes[members], np.arange(self.table.shape[0] + 1))
        keys = [members[bounds[i]:bounds[i + 1], None] * self.local_dim + members[bounds[j]:bounds[j + 1]]
                for i, j in zip(*np.nonzero(self.table))]
        keys = np.concatenate([k.ravel() for k in keys] + [np.zeros(0, dtype=np.int64)])
        values = self.table[self.classes[keys // self.local_dim], self.classes[keys % self.local_dim]]
        return (np.concatenate((keys, self.rows)), np.concatenate((keys, self.cols)),
                np.concatenate((values.astype(complex), self.vals)))

    @property
    def matrix(self) -> sp.csr_matrix:
        """The d^2 x d^2 CSR of the term, built on each call."""
        return _canonical_coo(*self.entries(), self.dim)

    def hermiticity_residual(self) -> float:
        """Largest |M - M^H| entry: the diagonal part's imaginary parts, and
        the touched part's, on the pairs it touches."""
        diagonal = self.table.astype(complex)
        residuals = [np.abs(diagonal - diagonal.conj()).max()]
        if self.rows.size:  # keys of the touched pairs relabelled in order, and their mirrors
            nodes, where = np.unique(np.concatenate((self.rows, self.cols)), return_inverse=True)
            rows, cols = np.split(where, 2)
            keys, mirrors = rows * nodes.size + cols, cols * nodes.size + rows
            found = np.minimum(np.searchsorted(keys, mirrors), keys.size - 1)
            mirrored = np.where(keys[found] == mirrors, self.vals[found], 0)
            residuals.append(np.abs(self.vals - mirrored.conj()).max())
        return float(np.max(residuals))

    def validate(self, max_norm: float | None = None) -> "LocalTerm":
        res = self.hermiticity_residual()
        if not res <= HERMITICITY_TOL:
            raise BuildError(f"{self.provenance}: hermiticity residual {res:.3g}")
        if max_norm is not None:  # Hermitian: ||M||_2 <= max_i sum_j |M_ij|; NaN fails
            rows, _, vals = self.entries()  # row sums of the stored rows only
            order = np.argsort(rows, kind="stable")
            starts = np.flatnonzero(np.diff(rows[order], prepend=-1))
            row_sums = np.add.reduceat(np.abs(vals[order]), starts)
            if not row_sums.max(initial=0.0) <= max_norm:
                raise BuildError(f"{self.provenance}: norm exceeds {max_norm}")
        return self


def build_h_comp_bond(schedule: SweepSchedule) -> LocalTerm:
    """Sweep term: one PSD edge operator per slot, summed over all slots.

    Its entries touch only the 4 pre and 4 post pairs of each slot edge,
    O(T) pairs in all.  _canonical_coo sums them over those pairs relabelled
    in order, and the labels map back to pair keys as the touched part."""
    shape = schedule.shape
    basis = SpinBasis(shape)
    edges = slot_edges(shape)
    bond = np.array([edge.bond for edge in edges], dtype=np.int64)[:, None]
    # Column 2 x1 + x2 of each edge's pair keys holds bits (x1, x2), the gate's order.
    pre, post = (basis.pair_keys(bond, [getattr(edge, side) for edge in edges]) for side in ("pre", "post"))
    gates = np.array([schedule.gate_at(edge.cycle, edge.bond) for edge in edges]).reshape(-1, 4, 4)
    edge, out, into = np.nonzero(gates)
    amps = gates[edge, out, into]
    rows = np.concatenate((pre.ravel(), post.ravel(), post[edge, out], pre[edge, into]))
    cols = np.concatenate((pre.ravel(), post.ravel(), pre[edge, into], post[edge, out]))
    vals = np.concatenate((np.ones(8 * len(edges), dtype=complex), -amps, -amps.conj()))
    nodes, where = np.unique(np.concatenate((rows, cols)), return_inverse=True)
    reduced = _canonical_coo(*np.split(where, 2), vals, nodes.size)  # row i holds pair nodes[i]
    pairs = np.repeat(nodes, np.diff(reduced.indptr)), nodes[reduced.indices], reduced.data
    term = LocalTerm(basis.local_dim, provenance="h_comp", pairs=pairs)
    return term.validate(max_norm=10 * shape.total_steps)


def _left_projector(levels, basis: SpinBasis, provenance: str) -> LocalTerm:
    """Projector onto the given left-site levels, any right-site level: class
    1 holds those levels, and the class table is 1 on a left class 1."""
    classes = np.zeros(basis.local_dim, dtype=np.int64)
    classes[np.asarray(levels, dtype=np.int64)] = 1
    return LocalTerm(basis.local_dim, provenance=provenance, classes=classes,
                     table=np.array([[0, 0], [1, 1]], dtype=np.int8)).validate()


def build_h_input_bond(shape: ProblemShape) -> LocalTerm:
    """Ancilla penalty: project bit 1 at cycle 0 on positions M+1..N."""
    basis = SpinBasis(shape)
    ancillas = basis.level(1, 0, np.arange(shape.input_len + 1, shape.n_sites))
    return _left_projector(ancillas, basis, "h_input")


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

    The rules read positions only, so the term is its diagonal part: each
    level's class is its position (the head is position 0), and the three
    rules are summed as integers in one (N+1) x (N+1) int8 table over
    position pairs, the table form_minimum_off_sector reads back.
    """
    n = shape.n_qubits
    position = np.arange(n + 1)
    table = ((position[:, None] > 0) & (position > 0) & (position != position[:, None] + 1)).astype(np.int8)
    table[0] -= 1  # the reward
    table[position != n, 0] += 2  # head not preceded by position N
    table[0, position != 1] += 2  # head not followed by position 1
    basis = SpinBasis(shape)
    return LocalTerm(basis.local_dim, provenance="h_form", classes=basis.positions, table=table).validate()


def build_h_output_bond(shape: ProblemShape) -> LocalTerm:
    """Reject penalty: project bit 1 at cycle R, position 1."""
    basis = SpinBasis(shape)
    return _left_projector([basis.level(1, shape.n_cycles, 1)], basis, "h_output")


@dataclass(frozen=True)
class CouplingConstants:
    """Weights of the total Hamiltonian's four parts."""

    j1: float
    j2: float
    alpha: float
    w_out: float

    def __post_init__(self):
        if not all(isfinite(c) and c > 0 for c in (self.j1, self.j2, self.alpha, self.w_out)):
            raise BuildError("coupling constants must be finite and strictly positive")

    @property
    def lower_bound(self) -> float:
        """-alpha * J2, at most every level of the total and of each of its
        blocks (Weyl): J1 H_input, J2 H_comp and w_out H_output are positive
        semidefinite, and H_form's ring minimum is -1.  off_sector_floor
        reads the same fact off V, where H_form's minimum is higher."""
        return -self.alpha * self.j2


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


def _capped(dim: int, what: str) -> int:
    """`dim`, the dim of `what`; BuildError above DIM_CAP."""
    if dim > DIM_CAP:
        raise BuildError(f"{what} dim {dim} exceeds cap {DIM_CAP}")
    return dim


def checked_dim(shape: ProblemShape) -> int:
    """Configuration-space dim of a full-space build; BuildError above DIM_CAP."""
    return _capped(SpinBasis(shape).config_dim, "configuration space")


def checked_orbit_dim(shape: ProblemShape) -> int:
    """States of the legal-orbit block, (T+1) 2^N; BuildError above DIM_CAP."""
    return _capped((shape.total_steps + 1) * 2 ** shape.n_qubits, "orbit block")


@np.errstate(over="ignore", invalid="ignore")  # _finite refuses what overflowed
def _weighted_entries(weighted_terms: list[tuple[LocalTerm, float]], local_dim: int):
    """Rows, cols (int64) and weighted values of the bond-term entries, term
    after term, or None when no term with a nonzero weight holds an entry."""
    if any(term.local_dim != local_dim for term, _ in weighted_terms):
        raise BuildError("bond term local dimension mismatch")
    live = [(term.entries(), w) for term, w in weighted_terms if w != 0]
    live = [(rows, cols, vals * w) for (rows, cols, vals), w in live if rows.size]
    if not live:
        return None
    rows, cols, vals = (np.concatenate(x) for x in zip(*live))
    return rows, cols, _finite(vals, "a weighted bond-term value")


def _ring_sum(rows, cols, vals, basis: SpinBasis) -> sp.csr_matrix:
    """The canonical reduction of weighted bond-term entries placed on every bond.

    A translation only permutes digits, so a term entry's two digits (A, B,
    times the dim of the other sites) and the other sites' digits o are
    translated apart: the global entry is (A + o, B + o).  Its value is
    ranked in the table of the weighted term values, and its code
    (A * dim + B) * w + rank + o * (dim + 1) * w, with w the table size, is
    one int64, so sorting the codes orders the contributions by entry and
    rank.  Under DIM_CAP the codes fit for any table of up to 2^15 values; a
    larger one raises BuildError.

    An entry's row fixes its site-0 digit: on the two bonds at site 0 it is
    a digit of A, on every other bond a digit of o.  So the codes are made
    and sorted one block of consecutive site-0 digits at a time, about
    CHUNK codes a block or one digit's, and each sorted block is summed in
    runs of at most CHUNK codes (_sum_runs).  A block's rows are contiguous
    and it holds every contribution to its entries, and the blocks are
    taken in order, so each entry's sum is that of one sort over all codes.
    The output's values and columns are written in place into arrays sized
    once from a bound, `dim` diagonal entries plus one per off-diagonal
    contribution (a contribution is off-diagonal when its term entry is),
    and trimmed at the end; the per-row counts, kept in the index dtype,
    become the indptr by one in-place cumulative sum.  Each block allocates
    its codes and keys, and each run its gathered values, all freed before
    the next block, so the sum holds the output and one block, never a copy.
    """
    dim, d, n_sites = basis.config_dim, basis.local_dim, basis.shape.n_sites
    rest, top = dim // d ** 2, dim // d  # top: the rows of one site-0 digit
    table, ranks = _value_table(vals)
    if not _packs(dim, table.size):
        raise BuildError(f"{table.size} distinct values overflow the int64 codes at dim {dim}")
    off = int(np.count_nonzero(rows != cols))  # term entries; each gives rest * n_sites contributions
    bound = min(dim, (rows.size - off) * rest * n_sites) + off * rest * n_sites
    rows, cols = rows * rest, cols * rest
    # Per bond: the codes that carry the site-0 digit, sorted by it, the
    # bounds of each digit among them, and the codes each one is added to.
    spreads = []
    for bond in range(n_sites):
        head_rows = basis.translate(rows, bond)
        moved = basis.translate(np.arange(rest, dtype=np.int64), bond)
        head = (head_rows * dim + basis.translate(cols, bond)) * table.size + ranks
        other = moved * ((dim + 1) * table.size)
        carry, spread, digit = (head, other, head_rows) if bond in (0, n_sites - 1) else (other, head, moved)
        digit = digit // top
        order = np.argsort(digit, kind="stable")
        spreads.append((carry[order], np.searchsorted(digit[order], np.arange(d + 1)), spread))

    ends, sizes = [], [0]  # blocks of site-0 digits of about CHUNK codes
    for digit, count in enumerate(sum(np.diff(b) * spread.size for _, b, spread in spreads).tolist()):
        if sizes[-1] and sizes[-1] + count > CHUNK:
            ends.append(digit)
            sizes.append(0)
        sizes[-1] += count
    counts, out = _output(dim, bound)
    at = 0
    for start, stop, size in zip([0] + ends, ends + [d], sizes):
        codes, filled = np.empty(size, dtype=np.int64), 0
        for carry, bounds, spread in spreads:
            part = carry[bounds[start]:bounds[stop]]
            fill = codes[filled:filled + part.size * spread.size]
            np.add(part[:, None], spread, out=fill.reshape(-1, spread.size))
            filled += fill.size
        if start:  # keys from the block's first row
            codes -= start * top * dim * table.size
        keys, ranks = _split_packed(codes, table.size)
        at = _sum_runs(keys, ranks, table, dim, counts[1 + start * top:1 + stop * top], out, at)
        del codes, fill, keys, ranks  # no array of this block is left when the next is made
    return _csr(out, at, counts, dim)


def assemble(
    parts: list[tuple[LocalTerm, float]], shape: ProblemShape, provenance: str = ""
) -> RingOperator:
    """Sum weighted bond terms over all N+1 ring bonds in one canonical
    reduction (_ring_sum), so the result is exactly shift-invariant."""
    dim = checked_dim(shape)
    basis = SpinBasis(shape)
    entries = _weighted_entries(parts, basis.local_dim)
    mat = _ring_sum(*entries, basis) if entries else sp.csr_matrix((dim, dim), dtype=complex)
    op = RingOperator(shape, mat, provenance)
    res = op.hermiticity_residual()
    if not res <= RING_HERMITICITY_TOL:
        raise BuildError(f"assembled operator hermiticity residual {res:.3g}")
    return op


@np.errstate(over="ignore", invalid="ignore")  # _finite or the solve refuses what overflowed
def _sector_contributions(weighted_terms: list[tuple[LocalTerm, float]], shape: ProblemShape, configs):
    """The block size and, per weighted term, its contributions to the ring
    sum on the V0 configurations `configs` (see assemble_sector): block keys
    row * size + col, each one's index into the term's weighted values, and
    those values, the class table's entries then the touched part's.

    On every ring bond each configuration's two levels read the diagonal
    part's value from the class table and find the touched part's entries by
    binary search in its sorted pair keys; an entry's target configuration
    is keyed in V0, and one outside `configs` raises BuildError.  No d^(N+1)
    index and no d^2-indexed array is formed.  A term of weight 0 contributes
    nothing.
    """
    basis = SpinBasis(shape)
    n, d = shape.n_qubits, basis.local_dim
    if basis.sector_dim > np.iinfo(np.int64).max:
        raise BuildError(f"sector dim {basis.sector_dim} does not fit in int64")
    keys = np.asarray(configs, dtype=np.int64).ravel()
    size = keys.size
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    if size and (ordered[0] < 0 or ordered[-1] >= basis.sector_dim
                 or np.any(ordered[1:] == ordered[:-1])):
        raise BuildError("sector configurations must be distinct V0 keys")
    if any(term.local_dim != d for term, _ in weighted_terms):
        raise BuildError("bond term local dimension mismatch")

    lowest, width, place = basis.sector_layout()  # of site s, as the key reads it
    levels = np.zeros((size, n + 1), dtype=np.int64)
    levels[:, 1:] = lowest[1:] + (keys[:, None] // place[1:]) % width[1:]

    # Pair p is configuration p // (N+1) on bond p % (N+1), which joins
    # sites b and b + 1.
    left_levels, right_levels = levels.ravel(), np.roll(levels, -1, axis=1).ravel()
    pair_keys = left_levels * d + right_levels
    empty = np.zeros(0, dtype=np.int64)
    parts = []
    for term, weight in weighted_terms:
        values = np.concatenate((term.table.astype(complex).ravel(), term.vals))
        if weight == 0:
            parts.append((empty, empty, values[:0]))
            continue
        block_keys, picks = [empty], [empty]
        if term.table.any():
            cells = term.classes[left_levels] * term.table.shape[1] + term.classes[right_levels]
            hit = np.flatnonzero(term.table.flat[cells] != 0)  # the stored diagonal pairs
            block_keys.append(hit // (n + 1) * (size + 1))
            picks.append(cells[hit])
        if term.rows.size:
            begin = np.searchsorted(term.rows, pair_keys)  # the run of entries in each row
            count = np.searchsorted(term.rows, pair_keys, side="right") - begin
            entry = np.arange(count.sum()) + np.repeat(begin - np.cumsum(count) + count, count)
            pair = np.repeat(np.arange(pair_keys.size), count)
            owner, left_site = np.divmod(pair, n + 1)
            new_left, new_right = np.divmod(term.cols[entry], d)
            target = keys[owner]
            inside = np.ones(entry.size, dtype=bool)
            for site, old, new in ((left_site, left_levels[pair], new_left),
                                   ((left_site + 1) % (n + 1), right_levels[pair], new_right)):
                digit = new - lowest[site]
                inside &= (digit >= 0) & (digit < width[site])
                target = target + (new - old) * place[site]
            slot = np.minimum(np.searchsorted(ordered, target), size - 1)
            if not np.all(inside & (ordered[slot] == target)):
                raise BuildError("a bond term couples a sector configuration outside the sector")
            block_keys.append(owner * size + order[slot])
            picks.append(term.table.size + entry)
        parts.append((np.concatenate(block_keys), np.concatenate(picks),
                      _finite(values * weight, "a weighted bond-term value")))
    return size, parts


def assemble_sector(
    weighted_terms: list[tuple[LocalTerm, float]], shape: ProblemShape, configs
) -> sp.csr_matrix:
    """The ring sum of weighted bond terms on a closed set of V0 configurations.

    `configs` holds distinct V0 keys (SpinBasis.sector_keys); row and column
    i of the block belong to configs[i].  The contributions are read from
    the terms' class tables and touched pairs (_sector_contributions), so a
    returned block is an invariant block of the full-space sum.  The weighted
    values are ranked once, in one table of the values the terms hold, and
    all contributions meet in one rank-ordered reduction, as in `assemble`,
    so every entry equals the full-space entry bit for bit.
    """
    size, parts = _sector_contributions(weighted_terms, shape, configs)
    if not parts:
        return sp.csr_matrix((size, size), dtype=complex)
    keys, picks, values = zip(*parts)
    table, ranks = _value_table(np.concatenate(values))
    offsets = np.cumsum([0] + [v.size for v in values[:-1]])
    ranks = ranks[np.concatenate([pick + offset for pick, offset in zip(picks, offsets)])]
    return _reduce(np.concatenate(keys), ranks, table, size)


def assemble_sector_parts(
    weighted_terms: list[tuple[LocalTerm, float]], shape: ProblemShape, configs
) -> list[sp.csr_matrix]:
    """The block of each weighted term alone, equal bit for bit to its
    assemble_sector block, from one lookup pass over the configurations."""
    size, parts = _sector_contributions(weighted_terms, shape, configs)
    blocks = []
    for keys, picks, values in parts:
        table, ranks = _value_table(values)
        blocks.append(_reduce(keys, ranks[picks], table, size))
    return blocks


def orbit_keys(shape: ProblemShape) -> np.ndarray:
    """The (T+1) 2^N V0 keys of the legal orbit at head site 0 in walk order:
    entry p 2^N + q is pattern p of orbit_label_walk with the bits of q, as in
    orbit_block_indices and HistoryState.orbit_vector."""
    return SpinBasis(shape).sector_keys(orbit_label_walk(shape)).ravel()


def assemble_orbit(weighted_terms: list[tuple[LocalTerm, float]], shape: ProblemShape) -> sp.csr_matrix:
    """The legal-orbit block at head site 0, rows in orbit_keys order."""
    return assemble_sector(weighted_terms, shape, orbit_keys(shape))


def _position_classes(form: LocalTerm, shape: ProblemShape):
    """The term's float table over classes of the levels that refine their
    positions, and each class's position; BuildError unless the term is a
    class table, with no touched part, of integer values."""
    values = form.table.astype(complex)
    if form.rows.size or np.any(values.imag != 0) or np.any(values.real % 1 != 0):
        raise BuildError(f"{form.provenance}: bond term is not an integer-valued class table")
    position, sites = SpinBasis(shape).positions, shape.n_sites
    kept = np.unique(form.classes * sites + position)
    return form.table[np.ix_(kept // sites, kept // sites)].astype(float), kept % sites


def form_minimum_off_sector(form: LocalTerm, shape: ProblemShape) -> float:
    """Lowest ring sum of the H_form bond term over configurations outside V.

    V (one head, positions 1..N clockwise from it) holds the rings whose
    every bond is a band pair, positions (z, z + 1 mod N+1), so a ring is
    in V exactly when its class ring, over classes that refine positions
    (_position_classes), is; every class holds a level, so every class ring
    is a ring of levels.  One min-plus pass of N bonds takes three tables
    at once, each closed by its own bond (c, f) from class c on site N to f
    on site 0: the table, whose rings closed by a non-band pair are those
    outside V up to a rotation, which keeps the sum; the table with every
    non-band pair at +inf, whose finite rings are V's, each rotation of a
    V0 ring, so its minimum is V0's lowest sum; and that table negated,
    whose minimum is minus V0's highest.  The term must be an integer-valued
    class table, with all of V0 (so all of V) at the ring minimum -1 and the
    rest above it, else BuildError.
    """
    table, position = _position_classes(form, shape)
    band_pair = position == (position[:, None] + 1) % shape.n_sites  # band_pair[c, f]
    tables = np.stack((table, np.where(band_pair, table, np.inf), np.where(band_pair, -table, np.inf)))
    paths = tables
    for _ in range(shape.n_qubits - 1):
        paths = (paths[:, :, :, None] + tables[:, None]).min(axis=2)
    rings = paths + tables.transpose(0, 2, 1)  # rings[k, f, c]: paths[k, f, c] closed by (c, f)
    off_v = rings[0][~band_pair.T].min(initial=np.inf)
    low_v0, high_v0 = rings[1].min(), 0.0 - rings[2].min()  # a zero highest sum stays +0.0
    if min(low_v0, off_v) != -1:
        raise BuildError(f"{form.provenance}: ring minimum {min(low_v0, off_v):g}, expected -1")
    if high_v0 != -1:
        raise BuildError(f"{form.provenance}: V0 configurations span {low_v0:g}..{high_v0:g}, not -1")
    if not off_v > -1:
        raise BuildError(f"{form.provenance}: a ring outside V reaches {off_v:g}, not above -1")
    return float(off_v)


def off_sector_floor(parts: dict[str, LocalTerm], constants: CouplingConstants, shape: ProblemShape) -> float:
    """A lower bound on the total Hamiltonian outside the form-valid set V:
    H_form's weight in total_parts times form_minimum_off_sector.

    Every part keeps V invariant (assemble_sector's closure check on V0,
    and translation for the other heads), so the complement is invariant
    too.  There weighted H_form is at least that product, and the other
    weighted parts add at least 0: J1 H_input and w_out H_output are
    nonnegative diagonal projectors, and H_comp is a sum of edge operators
    with unitary gates, each positive semidefinite (the fact
    CouplingConstants.lower_bound rests on).  So the floor needs no
    eigensolve, and it carries no solver rounding.
    """
    form = parts["H_form"]
    weight = next(weight for term, weight in total_parts(parts, constants) if term is form)
    return weight * form_minimum_off_sector(form, shape)


def shape_parts(shape: ProblemShape) -> dict[str, LocalTerm]:
    """The bond terms fixed by the shape alone: H_input, H_form, H_output."""
    return {
        "H_input": build_h_input_bond(shape),
        "H_form": build_h_form_bond(shape),
        "H_output": build_h_output_bond(shape),
    }


def standard_parts(schedule: SweepSchedule, shared: dict[str, LocalTerm] | None = None) -> dict[str, LocalTerm]:
    """The four bond terms, in total_parts order; `shared`, shape_parts of the
    schedule's shape, supplies the three that do not read the schedule."""
    shared = shape_parts(schedule.shape) if shared is None else shared
    return {
        "H_input": shared["H_input"],
        "H_form": shared["H_form"],
        "H_comp": build_h_comp_bond(schedule),
        "H_output": shared["H_output"],
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


def assemble_total(schedule: SweepSchedule, constants: CouplingConstants) -> RingOperator:
    """The total Hamiltonian of the schedule's standard parts (see total_parts)."""
    checked_dim(schedule.shape)
    return assemble(total_parts(standard_parts(schedule), constants), schedule.shape)


def build_shift_operator(shape: ProblemShape) -> RingOperator:
    """Cyclic shift S: the content of site i moves to site i + 1 (mod N+1).

    Row i holds its one 1, an int8, in the column S moves to i; the columns
    are written straight into the CSR index array one CHUNK of rows at a
    time, so the build holds 9 bytes per configuration with int32 indices."""
    basis = SpinBasis(shape)
    dim = basis.config_dim
    index = sp.get_index_dtype(maxval=dim)
    cols = np.empty(dim, dtype=index)
    for first in range(0, dim, CHUNK):
        last = min(first + CHUNK, dim)
        cols[first:last] = basis.translate(np.arange(first, last, dtype=np.int64), -1)
    mat = sp.csr_matrix((np.ones(dim, dtype=np.int8), cols, np.arange(dim + 1, dtype=index)), shape=(dim, dim))
    return RingOperator(shape, mat, "shift")


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN pass through, as in H[p][:, p] - H
def check_translation_invariance(op: RingOperator, shift: RingOperator) -> float:
    """Max-entry norm of S H - H S; exactly 0 for canonical assemblies.

    S must be a unit permutation, row i holding a 1 in column p[i] (else
    BuildError).  S H - H S = (S H S^T - H) S has the entries of the
    permuted copy's difference H[p][:, p] - H, which needs no products.  It
    is taken one block of rows, about CHUNK stored entries, at a time: rows
    p of H with their columns mapped through the inverse of p.  When H has
    no duplicate or unsorted entries and the permuted block's pattern is
    the stored block's, as for every invariant H, its values are
    subtracted in place; otherwise scipy subtracts the stored block, a view
    of H's arrays, as for the whole matrix.
    """
    mat, shift_mat = op.matrix.tocsr(), shift.matrix.tocsr()
    if mat.shape != shift_mat.shape:
        raise BuildError("operator dimensions do not match")
    p = shift_mat.indices
    dim = mat.shape[0]
    if (np.any(np.diff(shift_mat.indptr) != 1) or np.any(shift_mat.data != 1)
            or p.min(initial=0) < 0 or p.max(initial=-1) >= dim):
        raise BuildError("shift is not a unit permutation")
    inverse = np.full(dim, -1, dtype=p.dtype)
    for first in range(0, dim, CHUNK):
        inverse[p[first:first + CHUNK]] = np.arange(first, min(first + CHUNK, dim), dtype=p.dtype)
    if np.any(inverse < 0):  # dim columns in range: a repeated one leaves another out
        raise BuildError("shift is not a unit permutation")
    canonical = mat.has_canonical_format
    edges = np.linspace(0, dim, -(-mat.nnz // CHUNK) + 1, dtype=np.int64)
    worst = [0.0]
    for first, last in zip(edges, edges[1:]):
        moved = mat[p[first:last]]
        columns = np.take(inverse, moved.indices, mode="clip")  # all in range; faster than inverse[...]
        block = sp.csr_matrix((moved.data, columns, moved.indptr), shape=moved.shape)
        # Sorted rows keep scipy's subtraction off its path with dim-sized
        # scratch per call; with no duplicates the sort reorders no sum.
        if canonical:
            block.sort_indices()
        low, high = mat.indptr[first], mat.indptr[last]
        rows, cols, vals = mat.indptr[first:last + 1] - low, mat.indices[low:high], mat.data[low:high]
        if canonical and np.array_equal(block.indptr, rows) and np.array_equal(block.indices, cols):
            delta = np.subtract(block.data, vals, out=block.data)
        else:
            delta = (block - sp.csr_matrix((vals, cols, rows), shape=block.shape)).data
        worst.append(np.abs(delta, out=delta).real.max(initial=0.0))
        del moved, columns, block, delta  # before the next block is cut
    return float(np.max(worst))


def export_triplets(op: RingOperator) -> str:
    """Sparse text export: header then 'row col re im' per entry, sorted.

    Each distinct value (by bits, so -0.0 keeps its sign) is formatted once."""
    coo = op.matrix.tocoo()
    order = np.argsort(coo.row.astype(np.int64) * op.dim + coo.col, kind="stable")
    table, ranks = _value_table(coo.data[order])
    texts = np.array(list(map("{:.17g} {:.17g}".format, table.real.tolist(), table.imag.tolist())), dtype=object)
    columns = (coo.row[order].tolist(), coo.col[order].tolist(), texts[ranks].tolist())
    body = "".join(map("{} {} {}\n".format, *columns))
    return f"% dim {op.dim} nnz {coo.nnz} hermitian\n" + body


def parse_triplets(text: str) -> sp.csr_matrix:
    """Read export_triplets text; malformed input raises BuildError naming the line."""
    lines = text.splitlines()
    top = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if top is None or not lines[top].startswith("%"):
        raise BuildError("missing triplet header")
    header = lines[top].split()
    try:
        dim, nnz = int(header[2]), int(header[4])
    except (IndexError, ValueError):
        raise BuildError(f"line {top + 1}: expected '% dim <D> nnz <K>'") from None
    if not 0 <= dim <= DIM_CAP:
        raise BuildError(f"line {top + 1}: dim {dim} out of range 0..{DIM_CAP}")
    body = lines[top + 1:]

    def numbered():  # (line number, text) of the non-blank body lines, for messages
        return [(i, ln) for i, ln in enumerate(body, start=top + 2) if ln.strip()]

    triplet = [("row", np.int64), ("col", np.int64), ("value", float, 2)]
    try:  # one C pass that skips blank lines; loadtxt reads a subset of what int and float read
        filled = any(map(str.strip, body))
        cells = np.loadtxt(body, triplet, comments=None, ndmin=1) if filled else np.zeros(0, triplet)
        rows, cols = cells["row"], cells["col"]
        vals = np.ascontiguousarray(cells["value"]).view(complex).ravel()
    except (ValueError, OverflowError):  # line by line, to name the first bad line
        cells = []
        for lineno, ln in numbered():
            try:
                r, c, re, im = ln.split()
                cells.append((int(r), int(c), complex(float(re), float(im))))
            except ValueError:
                raise BuildError(f"line {lineno}: expected 'row col re im' numbers") from None
        rows, cols, vals = map(np.array, zip(*cells))  # object indices past int64
    bad = np.flatnonzero((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim))
    if bad.size:
        raise BuildError(f"line {numbered()[bad[0]][0]}: index out of range 0..{dim - 1}")
    if rows.size != nnz:
        raise BuildError(f"header says nnz {nnz}, found {rows.size} entries")
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
