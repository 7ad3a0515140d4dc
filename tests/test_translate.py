"""Ring translation: one digit rule, and bit-identical assembled operators.

The export digests were recorded from the four-key, per-bond-branch
assembly; any change to the placement or the reduction order that moves a
single ulp or flips a signed zero changes them.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from clockring import (
    CouplingConstants,
    ProblemShape,
    SpinBasis,
    SweepSchedule,
    assemble_part,
    assemble_total,
    build_h_comp_bond,
    build_shift_operator,
    export_triplets,
    schedule_from_placements,
    standard_parts,
)
from clockring import hamiltonian
from clockring.circuit import PAULI_X, embed_single_qubit, force_reject_gate, random_schedule
from clockring.hamiltonian import BuildError, _canonical_coo, _packs
from clockring.promise import auto_constants

FIXED = CouplingConstants(0.1, 0.7, 1.3, 2.9)


def _digest(op) -> str:
    return hashlib.sha256(export_triplets(op).encode()).hexdigest()


def _desk(kind: str, r: int) -> SweepSchedule:
    placements = [(1, 1, force_reject_gate())] if kind == "reject" else []
    return schedule_from_placements(placements, 2, 1, r)


def _exact_312() -> SweepSchedule:
    """(3,1,2) with a gate in every slot, each with exact 0/1 entries."""
    x_left = embed_single_qubit(PAULI_X)
    x_right = embed_single_qubit(PAULI_X, "right")
    return schedule_from_placements(
        [(1, 1, force_reject_gate()), (1, 2, x_left), (2, 2, force_reject_gate()), (2, 1, x_right)],
        3, 1, 2,
    )


TOTAL_DIGESTS = {
    ('accept', 1, 'auto'): "110bbbc669061f58b3b389df30a2a85e1b61c7435c5abd224d75db61bbb7112d",
    ('accept', 1, 'fixed'): "578173de59e00e9376c5ac51d2ff6095a8bffe442b73b85b7a04045efc50f7e1",
    ('accept', 2, 'auto'): "e007d54c9b26a7efdb5b87b2f9d615df1b77536a8438ddb58963f78f4a3bbb99",
    ('accept', 2, 'fixed'): "4be1ade7127edc27e3b67abc1f0afef1d43899a79d56021705f6b539da909ef9",
    ('accept', 4, 'auto'): "8f6820624aa3793a4f67abc0e67855003a272e5a63bae16243cb54e3fe26adbe",
    ('accept', 4, 'fixed'): "b0f74a27863bd3aa6d5428e85c3b115389486e593efe8ad68a7b9a56bd87b576",
    ('reject', 1, 'auto'): "b49ff7cee63c0f8947f57cc98f7a8fab214faf501c9d01a95bc2f8353b3f5757",
    ('reject', 1, 'fixed'): "c11cd6f8ef300e678fcabd82365f0947575ef3bfd6354b8c462d3b55d96215b0",
    ('reject', 2, 'auto'): "c8e0444f16fbbb88b7fba5ec607f5bd8500d5f7b2ec79c6db26a163490a5f0b1",
    ('reject', 2, 'fixed'): "d907ad4a0136622c01354ab42bce5e70962d6e50599394870a27a5604c056918",
    ('reject', 4, 'auto'): "6b15ecd6c9c6d82819cd36b7d75775a94d85c60c713e0289ac13049d8f4f40c7",
    ('reject', 4, 'fixed'): "74e819680faae9175cab29b4382b7b5799e32fdd29a28bb748759d2f6114a22c",
    ('id311', 1, 'auto'): "7a2925b68984851b7ef652a82a6a59c8d5057a5fd2c21de36116bd6badb66fb8",
    ('id311', 1, 'fixed'): "4f1e342bd23513e44085fafdd7ab80e73a6b495a7b63cb54787692d30324182d",
}

PART_DIGESTS = {
    'H_input': "1978e4c14844d8b8e61b5fb005ffbf24fecfcfad5e49b46e248ebaa7ff5cf2d2",
    'H_form': "81dfaa22a05ae7c338daf251a5a69bfe62e58616b215dcb3c6135a50b0220855",
    'H_comp': "1483e4eddfdec619d686cf42b65b28cce25e8e22ff714940f8ea0ffab2e7a06b",
    'H_output': "f9828cdfc2f927f09c78e54c13c27826c1381f0bcf8dc60075f3e0f4366281f8",
}


@pytest.mark.parametrize("key", list(TOTAL_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_total_export_digest(key):
    kind, r, which = key
    schedule = SweepSchedule(ProblemShape(3, 1, 1)) if kind == "id311" else _desk(kind, r)
    constants = auto_constants(schedule) if which == "auto" else FIXED
    assert _digest(assemble_total(schedule, constants)) == TOTAL_DIGESTS[key]


def test_part_export_digests():
    schedule = _exact_312()
    got = {
        name: _digest(assemble_part(term, schedule.shape, name))
        for name, term in standard_parts(schedule).items()
    }
    assert got == PART_DIGESTS


# build_h_comp_bond's touched part at sizes oracle and gapscan reach, past
# PART_DIGESTS' (3,1,2): sha256 of the rows, cols and vals bytes.
COMP_DIGESTS = {
    "random-2-1-1024": (
        "f0cbb59d0bb76c384c290618a2c011e5feb27134af24678e0ba81684e5c9bb7b",
        "36683f2a6ca0020e68c7d89c4dcadfcd21a54d01390131cde1f79f726b865fa6",
        "32f3001a1c4965ef63efaf3254fa892e0c5b5445d03e378ddaaf30846cffb20f",
    ),
    "identity-2-1-20000": (
        "2099d9992ff9f6f62b7b010d5e27786cbaa348599f5c70a29defcee27a6db564",
        "9ed0181f44f26ae4c0eec331c02eafd2d5229a630170efa3dd3808fd8b3eaec3",
        "89aeea07ad35557ac8bb9bcc897b6badad93f12fb66644000981f50e61542ab0",
    ),
}


@pytest.mark.parametrize("key", list(COMP_DIGESTS))
def test_h_comp_touched_part_digests(key):
    if key == "random-2-1-1024":
        schedule = random_schedule(ProblemShape(2, 1, 1024), np.random.default_rng(2))
    else:
        schedule = SweepSchedule(ProblemShape(2, 1, 20000))
    term = build_h_comp_bond(schedule)
    assert [a.dtype for a in (term.rows, term.cols, term.vals)] == [np.int64, np.int64, complex]
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (term.rows, term.cols, term.vals))
    assert got == COMP_DIGESTS[key]


def _wrap_reference(term, shape):
    """Bond (N, 0) placed by the explicit wrap formula: left factor on the
    least significant digit, right factor on the most significant one."""
    d, n_sites = term.local_dim, shape.n_sites
    coo = term.matrix.tocoo()
    mid_idx = np.arange(d ** (n_sites - 2), dtype=np.int64) * d
    rows = ((coo.row % d) * d ** (n_sites - 1) + coo.row // d)[:, None] + mid_idx
    cols = ((coo.col % d) * d ** (n_sites - 1) + coo.col // d)[:, None] + mid_idx
    vals = np.broadcast_to(coo.data[:, None], rows.shape)
    return rows.ravel(), cols.ravel(), vals.ravel()


def _placed_triples(term, bond, shape):
    """The term laid on sites (0, 1) and translated `bond` sites: its two
    digits and the other sites' digits are translated apart and added."""
    basis = SpinBasis(shape)
    rest = basis.config_dim // term.dim
    coo = term.matrix.tocoo()
    others = basis.translate(np.arange(rest, dtype=np.int64), bond)
    rows = (basis.translate(coo.row.astype(np.int64) * rest, bond)[:, None] + others).ravel()
    cols = (basis.translate(coo.col.astype(np.int64) * rest, bond)[:, None] + others).ravel()
    vals = np.broadcast_to(coo.data[:, None], (coo.nnz, rest)).ravel()
    return rows, cols, vals


def _sorted_triples(rows, cols, vals, dim):
    order = np.argsort(np.asarray(rows) * dim + np.asarray(cols), kind="stable")
    return np.asarray(rows)[order], np.asarray(cols)[order], np.asarray(vals)[order]


@pytest.mark.parametrize("schedule", [SweepSchedule(ProblemShape(2, 1, 1)), _exact_312()],
                         ids=["2-1-1", "3-1-2"])
def test_wrap_bond_matches_explicit_formula(schedule):
    shape = schedule.shape
    dim = SpinBasis(shape).config_dim
    for term in standard_parts(schedule).values():
        got = _sorted_triples(*_placed_triples(term, shape.n_sites - 1, shape), dim)
        want = _sorted_triples(*_wrap_reference(term, shape), dim)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


_PART_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-17, 3.0])


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), _PART_VALUES, _PART_VALUES),
        min_size=1, max_size=24,
    ),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_canonical_reduction_ignores_triple_order(entries, seed):
    rows, cols, re, im = (np.array(v) for v in zip(*entries))
    vals = np.empty(len(entries), dtype=complex)
    vals.real, vals.imag = re, im  # keeps the signed zeros arithmetic would drop
    perm = np.random.default_rng(seed).permutation(len(entries))
    a = _canonical_coo(rows, cols, vals, 4)
    b = _canonical_coo(rows[perm], cols[perm], vals[perm], 4)
    for attr in ("indptr", "indices", "data"):
        assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()


def _lexsort_reference(rows, cols, vals, dim):
    """The reduction before value ranks: a three-key lexsort by (key, real, imag)."""
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


def _assert_same_bits(got, want):
    for attr in ("indptr", "indices", "data"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), attr


# Sums of these depend on the order of the addends, and signed zeros on
# which zero comes first.
_ORDER_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1e16, -1e16, 3.0, 2 ** -60])


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 5),
    entries=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), _ORDER_VALUES, _ORDER_VALUES),
        max_size=40,
    ),
)
def test_ranked_reduction_matches_lexsort_reference(dim, entries):
    entries = [(r % dim, c % dim, re, im) for r, c, re, im in entries]
    rows, cols, re, im = (np.array(v) for v in zip(*entries)) if entries else ([], [], [], [])
    vals = np.empty(len(entries), dtype=complex)
    vals.real, vals.imag = re, im  # keeps the signed zeros arithmetic would drop
    _assert_same_bits(_canonical_coo(rows, cols, vals, dim), _lexsort_reference(rows, cols, vals, dim))


def test_ranked_reduction_past_int64_codes_matches_lexsort_reference():
    # dim^2 * (distinct values) > 2^63, so the codes cannot be packed and the
    # reduction falls back to a two-key order on (key, rank).
    dim, distinct = 2 ** 22, 2 ** 19 + 7
    assert not _packs(dim, distinct)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(distinct) + 1j * rng.standard_normal(distinct)
    picks = rng.integers(0, distinct, distinct + 2 ** 18)
    picks[:distinct] = np.arange(distinct)  # every value appears
    rows = rng.integers(0, 64, picks.size) * 65_537 % dim  # few rows: many duplicate keys
    cols = rng.integers(0, 4_096, picks.size) * 1_021
    _assert_same_bits(_canonical_coo(rows, cols, values[picks], dim),
                      _lexsort_reference(rows, cols, values[picks], dim))


def test_unpackable_assembly_is_refused(monkeypatch):
    # Under DIM_CAP the ring sum's codes always fit; if they did not, assemble
    # would raise rather than sort unpacked keys.
    schedule = _exact_312()
    constants = auto_constants(schedule)
    monkeypatch.setattr(hamiltonian, "_packs", lambda dim, width: False)
    with pytest.raises(BuildError, match="overflow the int64 codes"):
        assemble_total(schedule, constants)


SHAPES = st.sampled_from([(2, 1, 1), (2, 1, 3), (3, 1, 1), (3, 2, 2), (4, 1, 1)])


@settings(max_examples=100, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_translate_properties(shape, data):
    basis = SpinBasis(ProblemShape(*shape))
    n_sites = basis.shape.n_sites
    idx = np.array(data.draw(st.lists(st.integers(0, basis.config_dim - 1), min_size=1, max_size=8)))
    a, b = data.draw(st.integers(-2 * n_sites, 2 * n_sites)), data.draw(st.integers(0, 3 * n_sites))
    assert np.array_equal(basis.translate(idx, n_sites), idx)
    assert np.array_equal(basis.translate(basis.translate(idx, a), b), basis.translate(idx, a + b))
    for i, moved in zip(idx.tolist(), basis.translate(idx, a).tolist()):
        config = basis.config_at(i)
        rotated = tuple(config[(site - a) % n_sites] for site in range(n_sites))
        assert moved == basis.config_index(rotated)


@pytest.mark.parametrize("shape", [(2, 1, 1), (3, 1, 2)], ids=["2-1-1", "3-1-2"])
def test_one_step_is_the_shift_permutation(shape):
    shape = ProblemShape(*shape)
    basis = SpinBasis(shape)
    column_rows = build_shift_operator(shape).matrix.tocsc().indices
    assert np.array_equal(column_rows, basis.translate(np.arange(basis.config_dim), 1))


def test_entry_key_overflow_raises():
    with pytest.raises(BuildError):
        _canonical_coo([0], [0], [1.0], 3_037_000_500)
