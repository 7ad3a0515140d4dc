"""The head-0 form-valid sector V0: block assembly, closure, off-sector floor.

V0 holds the configurations with the head on site 0 and position z on
site z.  Every block built here is compared with the same block cut out of
the full d^(N+1) operator.
"""

import numpy as np
import pytest

from clockring import (
    HistoryState,
    ProblemShape,
    SpinBasis,
    SweepSchedule,
    assemble,
    assemble_part,
    assemble_total,
    auto_constants,
    force_reject_gate,
    gap,
    orbit_block_indices,
    orbit_label_walk,
    random_schedule,
    schedule_from_placements,
    separation_experiment,
    simulate_history,
    standard_parts,
)
from clockring import hamiltonian
from clockring.cli import main
from clockring.circuit import format_circuit_text
from clockring.hamiltonian import (
    DIM_CAP,
    BuildError,
    CouplingConstants,
    assemble_sector,
    form_minimum_off_sector,
    off_sector_floor,
    total_parts,
)
from clockring.spectral import SpectralError, low_spectrum


def desk_pair(r: int):
    accepting = schedule_from_placements([], 2, 1, r)
    rejecting = schedule_from_placements([(1, 1, force_reject_gate())], 2, 1, r)
    return accepting, rejecting


def all_patterns(shape: ProblemShape) -> np.ndarray:
    n = shape.n_qubits
    return np.indices((shape.n_cycles + 1,) * n).reshape(n, -1).T


def v0_indices(shape: ProblemShape) -> np.ndarray:
    """Full-space indices of V0, in index order."""
    return np.sort(SpinBasis(shape).orbit_indices(0, all_patterns(shape)), axis=None)


def schedules():
    out = []
    for r in (1, 2, 4):
        out.extend(desk_pair(r))
    out.append(SweepSchedule(ProblemShape(3, 1, 1)))
    out.append(random_schedule(ProblemShape(3, 1, 2), np.random.default_rng(11)))
    return out


def assert_same_bytes(got, want):
    got, want = got.tocsr(), want.tocsr()
    got.sort_indices()
    want.sort_indices()
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


class TestSectorKeys:
    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 3), (3, 1, 2), (4, 1, 1)])
    def test_key_order_is_full_index_order(self, shape):
        shape = ProblemShape(*shape)
        basis = SpinBasis(shape)
        patterns = all_patterns(shape)
        keys = basis.sector_keys(patterns).ravel()
        full = basis.orbit_indices(0, patterns).ravel()
        assert np.array_equal(np.sort(keys), np.arange(basis.sector_dim))
        assert np.array_equal(np.argsort(keys), np.argsort(full))

    def test_overflow_raises(self):
        from clockring.basis import BasisError

        with pytest.raises(BasisError):
            SpinBasis(ProblemShape(40, 1, 100)).sector_keys([[0] * 40])

    def test_sector_vector_is_history_vector_on_v0(self):
        schedule = random_schedule(ProblemShape(3, 1, 2), np.random.default_rng(4))
        state = simulate_history(schedule, "101")
        full = state.history_vector()
        assert np.array_equal(state.sector_vector(), full[v0_indices(schedule.shape)])
        assert np.count_nonzero(full) == np.count_nonzero(state.sector_vector())


class TestAssembleSector:
    @pytest.mark.parametrize("index", range(8))
    def test_total_and_parts_equal_full_block_bytes(self, index):
        schedule = schedules()[index]
        shape = schedule.shape
        v0 = v0_indices(shape)
        sector = np.arange(SpinBasis(shape).sector_dim)
        terms = standard_parts(schedule)
        weighted = total_parts(terms, auto_constants(schedule))
        full = assemble(weighted, shape).matrix
        assert_same_bytes(assemble_sector(weighted, shape, sector), full[v0][:, v0])
        for name, term in terms.items():
            part = assemble_part(term, shape, name).matrix
            assert_same_bytes(assemble_sector([(term, 1.0)], shape, sector), part[v0][:, v0])

    @pytest.mark.parametrize("index", [0, 1, 6, 7])
    def test_orbit_block_keeps_orbit_order(self, index):
        schedule = schedules()[index]
        shape = schedule.shape
        weighted = total_parts(standard_parts(schedule), CouplingConstants(0.1, 0.7, 1.3, 2.9))
        block = orbit_block_indices(shape, 0)
        keys = SpinBasis(shape).sector_keys(orbit_label_walk(shape))
        full = assemble(weighted, shape).matrix
        assert_same_bytes(assemble_sector(weighted, shape, keys), full[block][:, block])

    def test_open_pattern_set_raises(self):
        schedule = desk_pair(2)[1]
        shape = schedule.shape
        keys = SpinBasis(shape).sector_keys(orbit_label_walk(shape)[:-1])
        weighted = total_parts(standard_parts(schedule), auto_constants(schedule))
        with pytest.raises(BuildError, match="outside the sector"):
            assemble_sector(weighted, shape, keys)

    def test_repeated_or_foreign_keys_raise(self):
        shape = ProblemShape(2, 1, 1)
        terms = [(hamiltonian.build_h_form_bond(shape), 1.0)]
        for keys in ([0, 0], [-1], [SpinBasis(shape).sector_dim]):
            with pytest.raises(BuildError):
                assemble_sector(terms, shape, keys)

    def test_no_full_space_index_past_int64(self):
        # (12,1,1): d^(N+1) = 49^13 overflows int64, V0 has 4^12 keys.
        shape = ProblemShape(12, 1, 1)
        keys = SpinBasis(shape).sector_keys([[0] * 12])
        block = assemble_sector([(hamiltonian.build_h_form_bond(shape), 1.0)], shape, keys)
        assert np.array_equal(block.toarray(), -np.eye(2 ** 12))


class TestOffSectorFloor:
    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
    def test_form_minimum_matches_brute_force(self, shape):
        shape = ProblemShape(*shape)
        form = hamiltonian.build_h_form_bond(shape)
        diagonal = assemble_part(form, shape).matrix.diagonal().real
        basis = SpinBasis(shape)
        inside = np.zeros(diagonal.size, dtype=bool)
        for head in range(shape.n_sites):
            inside[basis.orbit_indices(head, all_patterns(shape)).ravel()] = True
        assert np.all(diagonal[inside] == -1)
        assert form_minimum_off_sector(form, shape) == diagonal[~inside].min()

    def test_broken_form_term_is_refused(self):
        shape = ProblemShape(2, 1, 1)
        form = hamiltonian.build_h_form_bond(shape)
        halved = hamiltonian.LocalTerm(form.local_dim, form.matrix * 0.5, "halved")
        with pytest.raises(BuildError, match="integer"):
            form_minimum_off_sector(halved, shape)
        doubled = hamiltonian.LocalTerm(form.local_dim, form.matrix * 2, "doubled")
        with pytest.raises(BuildError, match="ring minimum"):
            form_minimum_off_sector(doubled, shape)

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 2)])
    def test_floor_is_below_the_spectrum_off_v(self, shape):
        schedule = random_schedule(ProblemShape(*shape), np.random.default_rng(9))
        shape = schedule.shape
        constants = auto_constants(schedule)
        total = assemble_total(schedule, constants).matrix
        basis = SpinBasis(shape)
        inside = np.concatenate(
            [basis.orbit_indices(h, all_patterns(shape)).ravel() for h in range(shape.n_sites)]
        )
        outside = np.setdiff1d(np.arange(total.shape[0]), inside)
        lowest_off_v = low_spectrum(total[outside][:, outside], 1).eigenvalues[0]
        floor = off_sector_floor(standard_parts(schedule), constants, shape)
        # The floor is tight here: both sides carry rounding of order eps * ||H||.
        scale = abs(total).sum(axis=1).max()
        assert floor <= lowest_off_v + 16 * np.finfo(float).eps * scale
        assert floor > 0


class TestSectorSpectrum:
    @pytest.mark.parametrize("index", [0, 1, 2, 3, 6])
    def test_lambda0_gap_and_multiplicity_match_full_space(self, index):
        schedule = schedules()[index]
        shape = schedule.shape
        constants = auto_constants(schedule)
        full_op = assemble_total(schedule, constants)
        sector_op = assemble_sector(
            total_parts(standard_parts(schedule), constants), shape,
            np.arange(SpinBasis(shape).sector_dim),
        )
        full, sector = gap(full_op), gap(sector_op)
        # The full solve may take a head translate's block, whose entries sit
        # in another order; allow a few ulps of the operator scale.
        tol = 8 * np.finfo(float).eps * max(1.0, abs(full.ground_value), abs(full.next_value))
        assert abs(sector.ground_value - full.ground_value) <= tol
        assert abs(sector.next_value - full.next_value) <= tol
        assert sector.ground_degeneracy * shape.n_sites == full.ground_degeneracy


class TestSeparationOnSector:
    def test_no_full_space_operator_or_vector(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("full-space build")

        monkeypatch.setattr(hamiltonian, "assemble", refuse)
        monkeypatch.setattr(HistoryState, "history_vector", refuse)
        for r in (1, 2):
            report = separation_experiment(*desk_pair(r))
            for side in (report.yes, report.no):
                assert side.lambda0_full <= side.lambda0_filtered < side.off_sector_floor
            assert report.separation > 0

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_values_match_full_space_solve(self, r):
        from clockring import ground_energy
        from clockring.spectral import frozen_excluded_submatrix

        accepting, rejecting = desk_pair(r)
        report = separation_experiment(accepting, rejecting)
        for schedule, side in ((accepting, report.yes), (rejecting, report.no)):
            total = assemble_total(schedule, report.constants)
            filtered, _ = frozen_excluded_submatrix(total, schedule.shape)
            want = float(low_spectrum(filtered, 1).eigenvalues[0])
            tol = 8 * np.finfo(float).eps * abs(want)
            assert abs(side.lambda0_filtered - want) <= tol
            assert abs(side.lambda0_full - ground_energy(total)[0]) <= tol

    def test_uncertifiable_sector_raises(self):
        # Tiny form and sweep weights put the filtered rejecting ground
        # (about j2 * (1 - alpha)) above the floor, j2 * alpha * 2.
        constants = CouplingConstants(1.0, 1e-3, 1e-3, 100.0)
        with pytest.raises(SpectralError, match="off-sector floor"):
            separation_experiment(*desk_pair(1), constants)

    @pytest.mark.parametrize("n,want", [(4, 0.249880497142), (5, 0.199948462029)])
    def test_separation_past_the_dim_cap(self, capsys, tmp_path, n, want):
        shape = ProblemShape(n, 1, 1)
        assert n < 5 or SpinBasis(shape).config_dim > DIM_CAP
        yes, no = tmp_path / "yes.txt", tmp_path / "no.txt"
        yes.write_text(format_circuit_text(SweepSchedule(shape)))
        no.write_text(format_circuit_text(
            schedule_from_placements([(1, 1, force_reject_gate())], n, 1, 1)
        ))
        code = main(
            ["verify", "--mode", "separation", "--circuit", str(yes), "--circuit-no", str(no)]
        )
        out = capsys.readouterr().out
        assert code == 0
        separation = float(out.splitlines()[-1].split()[1])
        assert separation == pytest.approx(want, rel=1e-9)
