"""Bond-local Hermitian terms and their translation-invariant ring sums.

Every part of the total Hamiltonian is a single d^2 x d^2 bond term summed
over all N+1 ring bonds: the term is laid on bond (0, 1) and translated
with SpinBasis.translate, and all contributions meet in one canonical
reduction, so the sum commutes exactly with the cyclic shift.  The
reduction ranks every value in a small table of the values in (real, imag)
order, one entry per run of equal bits, and sorts one int64 code per
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
((2(R+1))^N configurations) is an invariant block.  assemble_sector builds
such a block, or any closed subset of it like the legal orbit (assemble_orbit),
without the d^(N+1) space; off_sector_floor, a min-plus path bound on H off
the form-valid set, makes a sector eigenvalue below it a full-space one.
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

from .basis import HEAD, Data, SpinBasis, orbit_label_walk, slot_edges
from .circuit import ProblemShape, SweepSchedule
from .spectral import CHUNK, hermiticity_residual, low_spectrum

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
def _sum_runs(keys, ranks, table, n_cols: int, counts: np.ndarray, out, at: int, values=None) -> int:
    """Reduce one block of rows: the per-key sums of table[ranks], in the
    given order, with `keys`, row * n_cols + col with rows counted from the
    block's first, sorted.  The nonzero sums and their columns are written
    to out = (data, indices) from position `at`, each row's entry count to
    counts[row], and the position after the last entry written is returned.

    The block is summed in runs of at most CHUNK contributions, each cut
    where a row begins; a row with more contributions than that makes a run
    of its own.  So a run holds every contribution to its entries and rows,
    and each sum and count is that of the whole block.  `values`, complex
    scratch, receives a run's gathered values when given and long enough.
    """
    data, indices = out
    start = 0
    while start < keys.size:
        stop = start + CHUNK
        if stop < keys.size:  # back to where the row at `stop` begins, or on past the first row
            cut = keys.searchsorted(keys[stop] - keys[stop] % n_cols)
            stop = cut if cut > start else keys.searchsorted(keys[start] - keys[start] % n_cols + n_cols)
        run = keys[start:stop]
        # Every rank is in range; "clip" writes `out` directly, "raise" through a buffer.
        room = values is not None and run.size <= values.size
        gathered = np.take(table, ranks[start:start + run.size], mode="clip",
                           out=values[:run.size] if room else None)
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


def _split_packed(codes, width: int, keys=None):
    """Sort codes packed as key * width + rank in place; the keys, written to
    `keys` when given, and the ranks, which are written over `codes`."""
    codes.sort()
    keys = np.floor_divide(codes, width, out=keys)
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
    """Deduplicate COO triples with a fixed, order-independent summation.

    Each entry is summed in the value order of _value_table, and values
    that compare equal give the same sum in either order, so the result is
    bit-identical however the triples were generated or partitioned.  When
    the packed codes would overflow int64, a two-key lexsort on (key, rank)
    gives the same order.
    """
    keys = np.asarray(rows, dtype=np.int64) * dim + np.asarray(cols, dtype=np.int64)
    table, ranks = _value_table(vals)
    return _reduce(keys, ranks, table, dim)


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

    def validate(self, max_norm: float | None = None) -> "LocalTerm":
        res = self.hermiticity_residual()
        if not res <= HERMITICITY_TOL:
            raise BuildError(f"{self.provenance}: hermiticity residual {res:.3g}")
        if max_norm is not None:  # Hermitian: ||M||_2 <= max_i sum_j |M_ij|; NaN fails
            m = self.matrix  # row sums of the stored rows only
            row_sums = np.add.reduceat(np.abs(m.data), m.indptr[:-1][np.diff(m.indptr) > 0])
            if not row_sums.max(initial=0.0) <= max_norm:
                raise BuildError(f"{self.provenance}: norm exceeds {max_norm}")
        return self


def _term_from_triples(rows, cols, vals, basis: SpinBasis, provenance: str) -> LocalTerm:
    d = basis.local_dim
    return LocalTerm(d, _canonical_coo(rows, cols, vals, d * d), provenance)


def build_h_comp_bond(schedule: SweepSchedule) -> LocalTerm:
    """Sweep term: one PSD edge operator per slot, summed over all slots."""
    shape = schedule.shape
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


def _left_projector(levels, basis: SpinBasis, provenance: str) -> LocalTerm:
    """Projector onto the given left-site levels, any right-site level."""
    d = basis.local_dim
    rows = (np.asarray(levels, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    return _term_from_triples(rows, rows, np.ones(rows.size), basis, provenance).validate()


def build_h_input_bond(shape: ProblemShape) -> LocalTerm:
    """Ancilla penalty: project bit 1 at cycle 0 on positions M+1..N."""
    basis = SpinBasis(shape)
    ancillas = [basis.encode(Data(1, 0, z)) for z in range(shape.input_len + 1, shape.n_qubits + 1)]
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

    The three rules are summed as integers in one table over (left, right)
    level pairs, the table form_minimum_off_sector reads back, and its
    nonzero pairs are the diagonal entries.
    """
    basis = SpinBasis(shape)
    head = basis.encode(HEAD)
    position = np.array([0 if state is HEAD else state.position for state in basis.states()])
    data = position > 0
    table = (data[:, None] & data & (position != position[:, None] + 1)).astype(np.int8)
    table[head] -= 1  # the reward
    table[position != shape.n_qubits, head] += 2  # head not preceded by position N
    table[head, position != 1] += 2  # head not followed by position 1
    rows = np.flatnonzero(table)
    return _term_from_triples(rows, rows, table.flat[rows].astype(float), basis, "h_form").validate()


def build_h_output_bond(shape: ProblemShape) -> LocalTerm:
    """Reject penalty: project bit 1 at cycle R, position 1."""
    basis = SpinBasis(shape)
    return _left_projector([basis.encode(Data(1, shape.n_cycles, 1))], basis, "h_output")


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


def checked_dim(shape: ProblemShape) -> int:
    """Configuration-space dim of a full-space build; BuildError above DIM_CAP."""
    dim = SpinBasis(shape).config_dim
    if dim > DIM_CAP:
        raise BuildError(f"configuration space dim {dim} exceeds cap {DIM_CAP}")
    return dim


@np.errstate(over="ignore", invalid="ignore")  # _finite refuses what overflowed
def _weighted_entries(weighted_terms: list[tuple[LocalTerm, float]], local_dim: int):
    """Rows, cols (int64) and weighted values of the bond-term entries, term
    after term, or None when no term with a nonzero weight holds an entry."""
    if any(term.local_dim != local_dim for term, _ in weighted_terms):
        raise BuildError("bond term local dimension mismatch")
    live = [(term.matrix.tocoo(), w) for term, w in weighted_terms if w != 0 and term.matrix.nnz]
    if not live:
        return None
    rows, cols, vals = (np.concatenate(x) for x in zip(*[(c.row, c.col, c.data * w) for c, w in live]))
    return rows.astype(np.int64), cols.astype(np.int64), _finite(vals, "a weighted bond-term value")


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
    become the indptr by one in-place cumulative sum.  One scratch array
    holds the largest block's codes and keys and a run's gathered values,
    so the sum holds the output and one block, never a second copy.
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
    largest = max(sizes)  # scratch: a block's codes, its keys, a run's values (two int64 each)
    scratch = np.empty(2 * largest + 2 * min(largest, CHUNK), dtype=np.int64)
    values = scratch[2 * largest:].view(complex)
    counts, out = _output(dim, bound)
    at = 0
    for start, stop, size in zip([0] + ends, ends + [d], sizes):
        codes, filled = scratch[:size], 0
        for carry, bounds, spread in spreads:
            part = carry[bounds[start]:bounds[stop]]
            fill = codes[filled:filled + part.size * spread.size]
            np.add(part[:, None], spread, out=fill.reshape(-1, spread.size))
            filled += fill.size
        if start:  # keys from the block's first row
            codes -= start * top * dim * table.size
        keys, ranks = _split_packed(codes, table.size, scratch[largest:largest + size])
        at = _sum_runs(keys, ranks, table, dim, counts[1 + start * top:1 + stop * top], out, at, values)
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


def assemble_sector(
    weighted_terms: list[tuple[LocalTerm, float]], shape: ProblemShape, configs
) -> sp.csr_matrix:
    """The ring sum of weighted bond terms on a closed set of V0 configurations.

    `configs` holds distinct V0 keys (SpinBasis.sector_keys); row and column
    i of the block belong to configs[i].  On every ring bond, each
    configuration's two digits select a bond-term row, looked up in the
    sorted term rows, and its entries give the target configurations, keyed
    in V0 without any d^(N+1) index or d^2-entry row table.  A
    target outside `configs` raises BuildError, so a returned block is an
    invariant block of the full-space sum.  The row table's values are
    ranked once, and the weighted contributions and their rank-ordered
    reduction are those of `assemble`, so every entry equals the full-space
    entry bit for bit.
    """
    basis = SpinBasis(shape)
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
    entries = _weighted_entries(weighted_terms, d)
    if entries is None or not size:
        return sp.csr_matrix((size, size), dtype=complex)
    term_rows, term_cols, term_vals = entries
    by_row = np.argsort(term_rows, kind="stable")
    table_cols = term_cols[by_row]
    values, table_ranks = _value_table(term_vals[by_row])
    sorted_rows = term_rows[by_row]

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
    begin = np.searchsorted(sorted_rows, row)  # the run of term entries in each row
    count = np.searchsorted(sorted_rows, row, side="right") - begin
    entry = np.arange(count.sum()) + np.repeat(begin - np.cumsum(count) + count, count)
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
    return _reduce(owner * size + order[slot], table_ranks[entry], values, size)


def assemble_orbit(weighted_terms: list[tuple[LocalTerm, float]], shape: ProblemShape) -> sp.csr_matrix:
    """The legal-orbit block at head site 0 from its (T+1) 2^N V0 keys in walk
    order: row p 2^N + q is pattern p of orbit_label_walk with the bits of q,
    as in orbit_block_indices and HistoryState.orbit_vector."""
    return assemble_sector(weighted_terms, shape, SpinBasis(shape).sector_keys(orbit_label_walk(shape)))


def _band_pairs(shape: ProblemShape) -> list[tuple]:
    """The (left, right) level bands of V0's ring bonds, bond (0, 1) first:
    the head (level 0) on site 0, the levels Data(bit, cycle, z) on site z."""
    base = 2 * (shape.n_cycles + 1)
    bands = [[0], *(1 + base * z + np.arange(base) for z in range(shape.n_qubits))]
    return list(zip(bands, bands[1:] + bands[:1]))


def _sector_form_range(bond: np.ndarray, shape: ProblemShape) -> tuple[float, float]:
    """Lowest and highest ring sum of the diagonal bond term bond[left, right]
    over V0, by a min-plus and a max-plus pass over its band pairs."""
    low = high = np.zeros(1)
    for left, right in _band_pairs(shape):
        weights = bond[np.ix_(left, right)]
        low, high = (low[:, None] + weights).min(axis=0), (high[:, None] + weights).max(axis=0)
    return float(low[0]), float(high[0])


def form_minimum_off_sector(form: LocalTerm, shape: ProblemShape) -> float:
    """Lowest ring sum of the H_form bond term over configurations outside V.

    V (one head, positions 1..N clockwise from it) holds the rings whose
    every bond is a band pair, and a rotation, which keeps the sum, makes a
    bond that is not the closing bond (site N, site 0).  So the answer is the
    lowest paths[f, c] + bond[c, f] over non-band pairs (c, f), paths being
    the min-plus table of N-bond sums from digit f on site 0 to c on site N.
    The term must be diagonal and integer-valued, with all of V0 (so all of
    V) at the ring minimum -1 and the rest above it, else BuildError.
    """
    d = SpinBasis(shape).local_dim
    coo = form.matrix.tocoo()
    if np.any(coo.row != coo.col) or np.any(coo.data.imag != 0) or np.any(coo.data.real % 1 != 0):
        raise BuildError(f"{form.provenance}: bond term is not diagonal and integer-valued")
    bond = np.zeros((d, d))  # bond[left digit, right digit]
    bond.flat[coo.row] = coo.data.real
    band_pair = np.zeros((d, d), dtype=bool)
    for left, right in _band_pairs(shape):
        band_pair[np.ix_(left, right)] = True
    off_v = np.inf
    for first in np.array_split(np.arange(d), -(-d ** 3 // CHUNK)):  # rows f, ~CHUNK steps each
        paths = bond[first]
        for _ in range(shape.n_qubits - 1):
            paths = (paths[:, :, None] + bond).min(axis=1)
        closed = paths + bond[:, first].T  # closed[f, c]: the path closed by bond (c, f)
        off_v = min(off_v, closed[~band_pair[:, first].T].min(initial=np.inf))
    low_v0, high_v0 = _sector_form_range(bond, shape)
    if min(low_v0, off_v) != -1:
        raise BuildError(f"{form.provenance}: ring minimum {min(low_v0, off_v):g}, expected -1")
    if high_v0 != -1:
        raise BuildError(f"{form.provenance}: V0 configurations span {low_v0:g}..{high_v0:g}, not -1")
    if not off_v > -1:
        raise BuildError(f"{form.provenance}: a ring outside V reaches {off_v:g}, not above -1")
    return float(off_v)


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


def assemble_total(schedule: SweepSchedule, constants: CouplingConstants) -> RingOperator:
    """The total Hamiltonian of the schedule's standard parts (see total_parts)."""
    checked_dim(schedule.shape)
    tag = (
        f"total(j1={constants.j1:.12g},j2={constants.j2:.12g},"
        f"alpha={constants.alpha:.12g},w_out={constants.w_out:.12g})"
    )
    weighted = total_parts(standard_parts(schedule), constants)
    return assemble(weighted, schedule.shape, provenance=tag)


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
