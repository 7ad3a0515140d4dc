import numpy as np
import pytest

from clockring import (
    ProblemShape,
    SpinBasis,
    SweepSchedule,
    assemble_part,
    expectations,
    random_schedule,
    reject_probability,
    run_plain_circuit,
    schedule_from_placements,
    simulate_history,
    standard_parts,
)
from clockring.basis import config_from_labels
from clockring.circuit import PAULI_X, embed_single_qubit
from clockring.oracle import HistoryState, OracleError, apply_bond_gate


def assembled(schedule):
    return {
        name: assemble_part(term, schedule.shape, name)
        for name, term in standard_parts(schedule).items()
    }


class TestSimulateHistory:
    def test_two_snapshots_with_both_spins_advanced(self, desk_shape, desk_identity_schedule):
        hist = simulate_history(desk_identity_schedule, "00")
        assert hist.n_steps == 1
        assert hist.clock_walk == [(0, 0), (1, 1)]
        # identity gates leave the qubit register alone
        assert np.array_equal(hist.amplitudes[0], hist.amplitudes[1])

    def test_identity_schedule_keeps_bits(self, rng):
        shape = ProblemShape(3, 1, 2)
        hist = simulate_history(SweepSchedule(shape), "101")
        want = np.zeros(8, dtype=complex)
        want[0b101] = 1.0
        for amps in hist.amplitudes:
            assert np.array_equal(amps, want)

    def test_x_gate_flips_first_qubit_from_its_step_on(self, desk_shape):
        sched = schedule_from_placements(
            [(1, 1, embed_single_qubit(PAULI_X, "left"))], 2, 1, 1
        )
        hist = simulate_history(sched, "00")
        assert hist.amplitudes[0][0b00] == 1.0
        assert hist.amplitudes[1][0b10] == 1.0

    def test_head_site_out_of_range(self, desk_identity_schedule):
        with pytest.raises(OracleError):
            simulate_history(desk_identity_schedule, "00", head_site=5)


class TestHistoryState:
    def test_norm_one(self, rng):
        shape = ProblemShape(3, 1, 2)
        eta = simulate_history(random_schedule(shape, rng), "010").history_vector()
        assert abs(np.linalg.norm(eta) - 1.0) <= 1e-12

    def test_non_orthogonal_snapshots_rejected(self, desk_shape):
        # one clock pattern twice puts two snapshots on the same support
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        hist = HistoryState(desk_shape, 0, [(0, 0), (0, 0)], [v, v])
        with pytest.raises(OracleError):
            hist.history_vector()

    def test_non_unit_amplitudes_rejected(self, desk_shape):
        amps = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0])]
        hist = HistoryState(desk_shape, 0, [(0, 0), (1, 1)], amps)
        with pytest.raises(OracleError):
            hist.history_vector()

    def test_matches_per_configuration_reference(self, rng):
        shape = ProblemShape(3, 1, 2)
        basis = SpinBasis(shape)
        hist = simulate_history(random_schedule(shape, rng), "011", head_site=2)
        want = np.zeros(basis.config_dim, dtype=complex)
        for labels, amps in zip(hist.clock_walk, hist.amplitudes):
            for q, amp in enumerate(amps):
                bits = [(q >> (2 - i)) & 1 for i in range(3)]
                config = config_from_labels(2, labels, bits, shape)
                want[basis.config_index(config)] = amp / np.sqrt(len(hist.amplitudes))
        assert np.array_equal(hist.history_vector(), want)


class TestExpectations:
    def test_comp_expectation_zero_for_any_schedule(self, rng):
        for n, r in [(2, 1), (2, 2), (3, 2)]:
            shape = ProblemShape(n, 1, r)
            sched = random_schedule(shape, rng)
            bits = [int(b) for b in rng.integers(0, 2, n)]
            eta = simulate_history(sched, bits).history_vector()
            parts = assembled(sched)
            rows = dict((name, v) for name, v, _ in expectations(eta, parts))
            assert abs(rows["H_comp"]) <= 1e-10

    def test_input_expectation_counts_flipped_ancilla(self, desk_identity_schedule, desk_shape):
        parts = assembled(desk_identity_schedule)
        good = simulate_history(desk_identity_schedule, "00").history_vector()
        bad = simulate_history(desk_identity_schedule, "01").history_vector()
        val = dict((n, v) for n, v, _ in expectations(good, parts))
        assert val["H_input"] == pytest.approx(0.0, abs=1e-12)
        val = dict((n, v) for n, v, _ in expectations(bad, parts))
        assert val["H_input"] == pytest.approx(0.5, abs=1e-12)

    def test_output_expectation_half_for_reject_witness(self, desk_identity_schedule, desk_shape):
        parts = assembled(desk_identity_schedule)
        eta = simulate_history(desk_identity_schedule, "10").history_vector()
        val = dict((n, v) for n, v, _ in expectations(eta, parts))
        assert val["H_output"] == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self, desk_identity_schedule, desk_shape):
        parts = assembled(desk_identity_schedule)
        with pytest.raises(OracleError):
            expectations(np.ones(4), parts)


class TestNullity:
    def test_history_state_is_exact_zero_mode(self, rng):
        for n, r in [(2, 1), (2, 3), (3, 1), (3, 3)]:
            shape = ProblemShape(n, 1, r)
            sched = random_schedule(shape, rng)
            op = assembled(sched)["H_comp"]
            bits = [int(b) for b in rng.integers(0, 2, n)]
            eta = simulate_history(sched, bits).history_vector()
            assert np.linalg.norm(op.matrix @ eta) <= 1e-10


class TestPlainCircuit:
    def test_bond_gate_application_matches_kron(self, rng):
        from clockring.circuit import random_unitary

        n = 3
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        gate = random_unitary(rng)
        full = np.kron(gate, np.eye(2))
        assert np.allclose(apply_bond_gate(psi, gate, 1, n), full @ psi, atol=1e-13)
        full = np.kron(np.eye(2), gate)
        assert np.allclose(apply_bond_gate(psi, gate, 2, n), full @ psi, atol=1e-13)

    def test_output_matches_history_weight(self, rng):
        # independent route: plain state-vector run of the whole schedule
        for n, r in [(2, 1), (2, 2), (2, 3), (3, 2)]:
            shape = ProblemShape(n, 1, r)
            sched = random_schedule(shape, rng)
            bits = [int(b) for b in rng.integers(0, 2, n)]
            eta = simulate_history(sched, bits).history_vector()
            rows = dict(
                (name, v) for name, v, _ in expectations(eta, assembled(sched))
            )
            p_rej = reject_probability(sched, bits)
            assert rows["H_output"] == pytest.approx(
                p_rej / (shape.total_steps + 1), abs=1e-10
            )

    def test_reject_probability_of_identity_schedule(self, desk_identity_schedule):
        assert reject_probability(desk_identity_schedule, "00") == 0.0
        assert reject_probability(desk_identity_schedule, "10") == 1.0

    def test_plain_run_is_unit_norm(self, rng):
        shape = ProblemShape(3, 1, 3)
        psi = run_plain_circuit(random_schedule(shape, rng), "011")
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
