from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clockring import (
    ProblemShape,
    SpinBasis,
    SweepSchedule,
    orbit_label_walk,
    parse_circuit_text,
    schedule_from_gate_list,
    schedule_from_placements,
    visitation_order,
)
from clockring.basis import slot_edges
from clockring.circuit import (
    EYE4,
    NonUnitaryGateError,
    ScheduleError,
    check_unitary,
    ShapeError,
    embed_single_qubit,
    force_reject_gate,
    format_circuit_text,
    random_unitary,
    sweep_is_rightward,
    unitarity_deviation,
    PAULI_X,
)


def some_gate(seed=3):
    return random_unitary(np.random.default_rng(seed))


class TestProblemShape:
    def test_total_steps(self):
        assert ProblemShape(3, 1, 2).total_steps == 4
        assert ProblemShape(2, 1, 1).total_steps == 1

    def test_invalid_shapes_reported(self):
        # The error names every broken rule, in rule order.
        for dims, message in [
            ((1, 1, 1), "n_qubits must be >= 2"),
            ((3, 1, 0), "n_cycles must be >= 1"),
            ((3, 4, 1), "input_len must satisfy 1 <= M <= N"),
            ((1, 0, 0), "n_qubits must be >= 2; n_cycles must be >= 1; "
                        "input_len must satisfy 1 <= M <= N"),
        ]:
            with pytest.raises(ShapeError) as err:
                ProblemShape(*dims)
            assert str(err.value) == message
        assert ProblemShape(3, 2, 2).total_steps == 4

    def test_require_valid_raises(self):
        # Construction is the only check, and no copy gets round it.
        with pytest.raises(ShapeError, match="^n_cycles must be >= 1$"):
            ProblemShape(3, 1, 0)
        with pytest.raises(ShapeError, match="^n_cycles must be >= 1$"):
            replace(ProblemShape(3, 1, 2), n_cycles=0)


SHAPE_RULES = (
    (lambda n, m, r: n < 2, "n_qubits must be >= 2"),
    (lambda n, m, r: r < 1, "n_cycles must be >= 1"),
    (lambda n, m, r: not 1 <= m <= n, "input_len must satisfy 1 <= M <= N"),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2, 5), st.integers(-2, 6), st.integers(-2, 4))
def test_shape_is_built_valid_or_refused(n, m, r):
    broken = [message for rule, message in SHAPE_RULES if rule(n, m, r)]
    if broken:
        with pytest.raises(ShapeError) as err:
            ProblemShape(n, m, r)
        assert str(err.value) == "; ".join(broken)
        return
    shape = ProblemShape(n, m, r)
    assert len(slot_edges(shape)) == shape.total_steps
    assert len(orbit_label_walk(shape)) == shape.total_steps + 1
    basis = SpinBasis(shape)
    assert [basis.encode(basis.decode(i)) for i in range(basis.local_dim)] == list(range(basis.local_dim))


class TestVisitation:
    def test_boustrophedon_order(self):
        order = visitation_order(ProblemShape(3, 1, 2))
        assert order == [(1, 1), (1, 2), (2, 2), (2, 1)]
        for n, r in [(3, 2), (2, 3), (4, 3), (5, 4)]:
            bonds = list(range(1, n))
            want = [(m, b) for m in range(1, r + 1) for b in (bonds if m % 2 else bonds[::-1])]
            assert visitation_order(ProblemShape(n, 1, r)) == want

    def test_each_slot_once_and_length(self):
        for n, r in [(2, 3), (3, 2), (4, 3), (5, 4)]:
            shape = ProblemShape(n, 1, r)
            order = visitation_order(shape)
            assert len(order) == shape.total_steps
            assert len(set(order)) == len(order)

    def test_direction_parity(self):
        assert sweep_is_rightward(1) and sweep_is_rightward(3)
        assert not sweep_is_rightward(2)


class TestGateAt:
    def test_unplaced_slot_is_identity(self):
        sched = SweepSchedule(ProblemShape(3, 1, 2))
        assert np.array_equal(sched.gate_at(2, 1), EYE4)

    def test_storage_round_trip(self):
        g = some_gate()
        sched = schedule_from_placements([(1, 2, g)], 3)
        assert np.allclose(sched.gate_at(1, 2), g, atol=0)

    def test_gate_list_single_placement(self):
        g = some_gate()
        sched = schedule_from_gate_list([(1, g)], 2)
        assert np.array_equal(sched.gate_at(1, 1), g)

    def test_out_of_range_lookup(self):
        sched = SweepSchedule(ProblemShape(3, 1, 2))
        with pytest.raises(ScheduleError):
            sched.gate_at(3, 1)
        with pytest.raises(ScheduleError):
            sched.gate_at(1, 3)


class TestGreedyPacking:
    def test_empty_list(self):
        sched = schedule_from_gate_list([], 3)
        assert sched.shape.n_cycles == 1
        assert all(sched.is_identity_slot(m, n) for m, n in visitation_order(sched.shape))

    def test_single_gate_first_sweep(self):
        g = some_gate()
        sched = schedule_from_gate_list([(1, g)], 3)
        assert sched.shape.n_cycles == 1
        assert np.array_equal(sched.gate_at(1, 1), g)
        assert sched.is_identity_slot(1, 2)

    def test_order_forces_second_cycle(self):
        # Bond-2 gate fits slot (1,2); the later bond-1 gate must wait for
        # the right-to-left sweep of cycle 2, which reaches bond 1 second.
        g1, g2 = some_gate(1), some_gate(2)
        sched = schedule_from_gate_list([(2, g1), (1, g2)], 3)
        assert sched.shape.n_cycles == 2
        assert np.array_equal(sched.gate_at(1, 2), g1)
        assert np.array_equal(sched.gate_at(2, 1), g2)

    @settings(max_examples=60, deadline=None)
    @given(
        n_qubits=st.integers(2, 5),
        bonds=st.lists(st.integers(1, 4), max_size=12),
    )
    def test_packing_preserves_order(self, n_qubits, bonds):
        bonds = [min(b, n_qubits - 1) for b in bonds]
        gates = []
        for i, b in enumerate(bonds):
            phase = np.exp(2j * np.pi * (i + 1) / (len(bonds) + 1))
            gates.append((b, phase * EYE4))
        sched = schedule_from_gate_list(gates, n_qubits)
        # reading non-identity slots in visitation order reproduces the list
        seen = []
        for m, n in visitation_order(sched.shape):
            if not sched.is_identity_slot(m, n):
                seen.append((n, sched.gate_at(m, n)))
        assert len(seen) == len(gates)
        for (b_in, g_in), (b_out, g_out) in zip(gates, seen):
            assert b_in == b_out
            assert np.allclose(g_in, g_out, atol=0)

    def test_bond_out_of_range(self):
        with pytest.raises(ScheduleError):
            schedule_from_gate_list([(2, EYE4)], 2)

    def test_non_unitary_reports_deviation(self):
        with pytest.raises(NonUnitaryGateError) as err:
            schedule_from_gate_list([(1, 2 * EYE4)], 2)
        assert err.value.deviation == pytest.approx(3.0, abs=0)


class TestValidate:
    # A schedule checks every stored slot and gate when it is made.
    def test_all_identity_is_clean(self):
        sched = SweepSchedule(ProblemShape(3, 1, 2))
        assert all(sched.is_identity_slot(m, n) for m, n in visitation_order(sched.shape))

    def test_non_unitary_slot_diagnostic(self):
        # Its H_comp edge operator would not be positive semidefinite.
        with pytest.raises(NonUnitaryGateError, match=r"at slot \(1,1\)") as err:
            SweepSchedule(ProblemShape(2, 1, 1), {(1, 1): 2 * EYE4})
        assert err.value.deviation == 3.0
        with pytest.raises(NonUnitaryGateError, match=r"at slot \(1,2\)"):
            schedule_from_placements([(1, 2, 2 * EYE4)], 3)

    def test_zero_cycles_diagnostic(self):
        with pytest.raises(ShapeError, match="^n_cycles must be >= 1$"):
            SweepSchedule(ProblemShape(3, 1, 0))

    @pytest.mark.parametrize("slot,message", [
        ((2, 1), "cycle 2 out of range 1..1"),
        ((0, 1), "cycle 0 out of range 1..1"),
        ((1, 2), "bond 2 out of range 1..1"),
    ], ids=["cycle-2", "cycle-0", "bond-2"])
    def test_slot_out_of_range(self, slot, message):
        with pytest.raises(ScheduleError) as err:
            SweepSchedule(ProblemShape(2, 1, 1), {slot: EYE4})
        assert str(err.value) == message
        with pytest.raises(ScheduleError) as err:
            SweepSchedule(ProblemShape(2, 1, 1)).gate_at(*slot)
        assert str(err.value) == message

    def test_gates_are_stored_as_copies(self):
        gate = EYE4.copy()
        gates = {(1, 1): gate}
        sched = SweepSchedule(ProblemShape(2, 1, 1), gates)
        gate *= 2
        gates[(1, 2)] = EYE4
        assert np.array_equal(sched.gate_at(1, 1), EYE4)
        assert sorted(sched._gates) == [(1, 1)]
        with pytest.raises(FrozenInstanceError):
            sched.shape = ProblemShape(3, 1, 1)


class TestGateHelpers:
    def test_unitarity_of_every_stored_gate(self, rng):
        sched = schedule_from_gate_list(
            [(1, random_unitary(rng)), (1, random_unitary(rng))], 3
        )
        for p in sched.placements():
            assert unitarity_deviation(p.unitary) <= 1e-12

    def test_embed_single_qubit(self):
        left = embed_single_qubit(PAULI_X, "left")
        assert np.array_equal(left, np.kron(PAULI_X, np.eye(2)))
        right = embed_single_qubit(PAULI_X, "right")
        assert np.array_equal(right, np.kron(np.eye(2), PAULI_X))

    def test_force_reject_gate_semantics(self):
        g = force_reject_gate()
        assert unitarity_deviation(g) == 0
        # valid ancilla branch (second bit 0) always sets the first bit
        for x1 in (0, 1):
            col = (x1 << 1) | 0
            out = np.flatnonzero(g[:, col])[0]
            assert out >> 1 == 1


class TestCircuitText:
    def test_round_trip(self):
        g = some_gate(9)
        sched = schedule_from_placements([(2, 1, g), (1, 2, some_gate(4))], 3, 2, 2)
        text = format_circuit_text(sched)
        back = parse_circuit_text(text)
        assert back.shape == sched.shape
        for m, n in visitation_order(sched.shape):
            assert np.allclose(back.gate_at(m, n), sched.gate_at(m, n), atol=1e-15)

    def test_missing_r_means_minimal(self):
        text = "shape 3 1\ngate 2 1 " + " ".join(["1,0" if i % 5 == 0 else "0,0" for i in range(16)])
        sched = parse_circuit_text(text)
        assert sched.shape.n_cycles == 2

    def test_header_required(self):
        with pytest.raises(ScheduleError):
            parse_circuit_text("gate 1 1 " + " ".join(["1,0"] * 16))

    def test_malformed_line_numbered(self):
        with pytest.raises(ScheduleError) as err:
            parse_circuit_text("shape 2 1 1\n# fine\ngate 1 1 nope")
        assert "line 3" in str(err.value)

    def test_comments_and_blanks_ignored(self):
        sched = parse_circuit_text("# hi\n\nshape 2 1 1\n")
        assert sched.shape == ProblemShape(2, 1, 1)


IDENTITY_TOKENS = ["1,0" if i % 5 == 0 else "0,0" for i in range(16)]


class TestNonFiniteGates:
    @pytest.mark.parametrize("token", ["nan,0", "inf,0", "0,nan"])
    def test_gate_line_rejected(self, token):
        entries = list(IDENTITY_TOKENS)
        entries[5] = token
        with pytest.raises(NonUnitaryGateError, match="line 2"):
            parse_circuit_text("shape 2 1 1\ngate 1 1 " + " ".join(entries))

    def test_all_nan_gate_line_rejected(self):
        with pytest.raises(NonUnitaryGateError):
            parse_circuit_text("shape 2 1 1\ngate 1 1 " + " ".join(["nan,0"] * 16))

    def test_check_unitary_and_validate(self):
        bad = EYE4.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NonUnitaryGateError):
            check_unitary(bad)
        with pytest.raises(NonUnitaryGateError, match=r"at slot \(1,1\).* nan"):
            SweepSchedule(ProblemShape(2, 1, 1), {(1, 1): bad})


_GATE_TOKENS = st.sampled_from(["nan,0", "inf,0", "-inf,1", "2,0", "1", "x,0", "1,0,0", "0,0", "1,0"])


@st.composite
def _gate_line(draw):
    entries = list(IDENTITY_TOKENS)
    for pos in draw(st.lists(st.integers(0, 15), max_size=2)):
        entries[pos] = draw(_GATE_TOKENS)
    if draw(st.booleans()):
        entries = entries[: draw(st.integers(0, 15))]
    cycle, bond = draw(st.sampled_from([1, 2, 1, 2, 0, 3])), draw(st.sampled_from([1, 2, 1, 2, 0, 3]))
    return f"gate {cycle} {bond} " + " ".join(entries)


_CIRCUIT_LINES = st.one_of(
    _gate_line(),
    st.lists(st.sampled_from(["2", "3", "1", "0", "-1", "x", "2.0"]), max_size=4).map(
        lambda f: " ".join(["shape"] + f)
    ),
    st.sampled_from(["", "# note", "shape 2 1 1", "shape 3 2", "gate", "bogus 1"]),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["shape 2 1 1", "shape 3 1 2", "shape 3 2", ""]),
    st.lists(_CIRCUIT_LINES, max_size=4),
)
def test_parser_fuzz_raises_only_schedule_errors(header, lines):
    text = "\n".join([header] + lines)
    try:
        sched = parse_circuit_text(text)
    except (ScheduleError, ShapeError):
        return
    for p in sched.placements():
        assert np.isfinite(p.unitary).all()
        assert unitarity_deviation(p.unitary) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(2, 1, 1), (2, 2, 3), (3, 1, 2), (4, 3, 1)]),
    seed=st.integers(0, 2 ** 32 - 1),
    fill=st.floats(0, 1),
)
def test_format_parse_round_trip_is_exact(shape, seed, fill):
    rng = np.random.default_rng(seed)
    shape = ProblemShape(*shape)
    gates = {slot: random_unitary(rng) for slot in visitation_order(shape) if rng.random() < fill}
    sched = SweepSchedule(shape, gates)
    back = parse_circuit_text(format_circuit_text(sched))
    assert back.shape == shape
    assert sorted(back._gates) == sorted(gates)
    for slot, gate in gates.items():
        assert back._gates[slot].tobytes() == gate.tobytes()
