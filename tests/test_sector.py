"""The head-0 form-valid sector V0: block assembly, closure, off-sector floor.

V0 holds the configurations with the head on site 0 and position z on
site z.  Every block built here is compared with the same block cut out of
the full d^(N+1) operator.
"""

import tracemalloc

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
from clockring import cli, hamiltonian, promise
from clockring.basis import HEAD, Data
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


def level_table(term: hamiltonian.LocalTerm) -> np.ndarray:
    """The d x d table of a diagonal bond term's value on every level pair."""
    return term.matrix.diagonal().real.reshape(term.local_dim, term.local_dim)


def level_term(table: np.ndarray, name: str) -> hamiltonian.LocalTerm:
    """The diagonal bond term of a d x d level-pair table: one class per level."""
    return hamiltonian.LocalTerm(len(table), name, classes=np.arange(len(table)), table=table)


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

    def test_orbit_vector_is_history_vector_on_the_orbit_block(self):
        schedule = random_schedule(ProblemShape(3, 1, 2), np.random.default_rng(4))
        state = simulate_history(schedule, "101")
        full = state.history_vector()
        block = full[orbit_block_indices(schedule.shape, 0)]
        assert state.orbit_vector().tobytes() == block.tobytes()
        assert np.count_nonzero(full) == np.count_nonzero(block)


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

    def test_orbit_block_allocates_nothing_of_bond_term_size(self):
        # (2,1,512): the bond term has d^2 = 4.2 M rows, so one int64 per row
        # is 33.7 MB; the orbit block has 4 x 513 states.
        shape = ProblemShape(2, 1, 512)
        term = hamiltonian.build_h_comp_bond(SweepSchedule(shape))
        tracemalloc.start()
        try:
            block = hamiltonian.assemble_orbit([(term, 1.0)], shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (4 * 513, 4 * 513)
        assert peak < 8e6

    def test_oracle_rows_hold_nothing_of_bond_space_size(self):
        # (2,1,2048): d^2 = 67.2 M level pairs, so one byte per pair is 67 MB;
        # the four bond terms and the oracle rows on the 4 x 2049 orbit
        # states stay far below that.
        shape = ProblemShape(2, 1, 2048)
        assert SpinBasis(shape).local_dim ** 2 == 67_190_809
        schedule = SweepSchedule(shape)
        tracemalloc.start()
        try:
            history = simulate_history(schedule, "00")
            rows = promise.orbit_expectations(history, standard_parts(schedule), hamiltonian.orbit_keys(shape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [name for name, _, _ in rows] == ["H_input", "H_form", "H_comp", "H_output"]
        assert peak < 32e6

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

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
    def test_perturbed_terms_match_brute_force(self, shape):
        # Integer bumps on a few bond entries: the floor equals the
        # complement minimum, or the term is refused exactly when V is not
        # the -1 level set.
        shape = ProblemShape(*shape)
        form = hamiltonian.build_h_form_bond(shape)
        d, basis = form.local_dim, SpinBasis(shape)
        inside = np.zeros(basis.config_dim, dtype=bool)
        for head in range(shape.n_sites):
            inside[basis.orbit_indices(head, all_patterns(shape)).ravel()] = True
        rng = np.random.default_rng(12)
        outcomes = set()
        for _ in range(12):
            table = level_table(form)
            where = rng.integers(0, d * d, rng.integers(1, 4))
            table.flat[where] += rng.choice([-2, -1, 1, 2], where.size)
            term = level_term(table, "bumped")
            ring = assemble_part(term, shape).matrix.diagonal().real
            valid = np.all(ring[inside] == -1) and ring[~inside].min() > -1
            if valid:
                assert form_minimum_off_sector(term, shape) == ring[~inside].min()
            else:
                with pytest.raises(BuildError):
                    form_minimum_off_sector(term, shape)
            outcomes.add(valid)
        assert outcomes == {True, False}

    def test_form_pass_holds_nothing_of_bond_space_size(self):
        # (2,1,4096): d = 16,389, so one d x d float table would be 2.1 GB;
        # the form term and its pass read the 3 x 3 position table, whose
        # minimum is the desk shape's.
        desk, shape = ProblemShape(2, 1, 1), ProblemShape(2, 1, 4096)
        assert SpinBasis(shape).local_dim == 16_389
        tracemalloc.start()
        try:
            minimum = form_minimum_off_sector(hamiltonian.build_h_form_bond(shape), shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert minimum == form_minimum_off_sector(hamiltonian.build_h_form_bond(desk), desk)
        assert peak <= 4 * 2 ** 20

    @pytest.mark.parametrize("n", [11, 12])
    def test_floor_past_int64_config_dims(self, n):
        # d^(N+1) is past int64 here, while V0 and the path table are small.
        shape = ProblemShape(n, 1, 1)
        assert SpinBasis(shape).config_dim > np.iinfo(np.int64).max
        assert form_minimum_off_sector(hamiltonian.build_h_form_bond(shape), shape) == 0
        constants = CouplingConstants(1.0, 2.0, 3.0, 4.0)
        floor = off_sector_floor(standard_parts(SweepSchedule(shape)), constants, shape)
        assert np.isfinite(floor) and floor >= 0

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
    def test_v0_band_pass_matches_brute_force(self, shape):
        # Integer bumps on H_form's level table that keep the ring minimum
        # at -1: a term is accepted exactly when all of V0 stays at -1 and
        # nothing outside V reaches it, and a V0 off -1 is refused with V0's
        # brute-force span, so the band pass reads V0's lowest and highest.
        shape = ProblemShape(*shape)
        form = hamiltonian.build_h_form_bond(shape)
        d, v0 = form.local_dim, v0_indices(shape)
        basis = SpinBasis(shape)
        inside = np.zeros(basis.config_dim, dtype=bool)
        for head in range(shape.n_sites):
            inside[basis.orbit_indices(head, all_patterns(shape)).ravel()] = True
        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(40):
            table = level_table(form)
            where = rng.integers(0, d * d, rng.integers(1, 6))
            table.flat[where] += rng.choice([-3, 1, 2], where.size)
            term = level_term(table, "bumped")
            ring = assemble_part(term, shape).matrix.diagonal().real
            if ring.min() != -1:
                continue
            low, high = ring[v0].min(), ring[v0].max()
            if low == high == -1 and ring[~inside].min() > -1:
                assert form_minimum_off_sector(term, shape) == ring[~inside].min()
                outcomes.add("accepted")
            elif low == high == -1:
                with pytest.raises(BuildError, match="a ring outside V reaches -1"):
                    form_minimum_off_sector(term, shape)
                outcomes.add("outside")
            else:
                with pytest.raises(BuildError, match=f"V0 configurations span {low:g}..{high:g}, not -1"):
                    form_minimum_off_sector(term, shape)
                outcomes.add("span")
        assert {"accepted", "span"} <= outcomes

    def test_form_term_off_minus_one_on_v0_is_refused(self):
        shape = ProblemShape(2, 1, 1)
        form = hamiltonian.build_h_form_bond(shape)
        basis, table = SpinBasis(shape), level_table(form)
        a, b = basis.encode(Data(0, 0, 1)), basis.encode(Data(0, 0, 2))
        lifted = table.copy()
        lifted[a, b] += 1
        with pytest.raises(BuildError):
            form_minimum_off_sector(level_term(lifted, "lifted"), shape)
        # Swapping the two levels keeps the ring minimum and its count but
        # moves the minimizers off V: only the V0 band pass sees it.
        swap = np.arange(len(table))
        swap[[a, b]] = [b, a]
        with pytest.raises(BuildError, match="V0 configurations span -1..4, not -1"):
            form_minimum_off_sector(level_term(table[np.ix_(swap, swap)], "swapped"), shape)
        # Raising every head-to-position-1 bond lifts all of V0 to 0, and
        # lowering the bond from the head to position 2 takes a ring outside
        # V to -1: V0's lowest sum is then above the ring minimum.
        raised = table.copy()
        raised[basis.encode(HEAD), basis.positions == 1] += 1
        raised[basis.encode(HEAD), basis.positions == 2] -= 3
        with pytest.raises(BuildError, match="V0 configurations span 0..0, not -1"):
            form_minimum_off_sector(level_term(raised, "raised"), shape)

    def test_broken_form_term_is_refused(self):
        shape = ProblemShape(2, 1, 1)
        form = hamiltonian.build_h_form_bond(shape)
        table = level_table(form)
        with pytest.raises(BuildError, match="integer"):
            form_minimum_off_sector(level_term(table * 0.5, "halved"), shape)
        with pytest.raises(BuildError, match="ring minimum"):
            form_minimum_off_sector(level_term(table * 2, "doubled"), shape)
        # Lowering by 3 the bond from the head to position 2 takes a ring
        # outside V down to -1, while V0 stays at -1 and nothing goes below.
        basis = SpinBasis(shape)
        lowered = table.copy()
        lowered[basis.encode(HEAD), basis.encode(Data(0, 0, 2))] -= 3
        with pytest.raises(BuildError, match="a ring outside V reaches -1, not above -1"):
            form_minimum_off_sector(level_term(lowered, "lowered"), shape)
        # A touched part, even a diagonal one, is not a class table.
        touched = hamiltonian.LocalTerm(form.local_dim, "touched", classes=form.classes, table=form.table,
                                        pairs=(np.array([0]), np.array([0]), np.array([1.0 + 0j])))
        with pytest.raises(BuildError, match="touched: bond term is not an integer-valued class table"):
            form_minimum_off_sector(touched, shape)

    @pytest.mark.parametrize("shape,seed", [((2, 1, 1), None), ((5, 1, 2), 1), ((2, 1, 1024), None)],
                             ids=["identity-2-1-1", "random-5-1-2", "identity-2-1-1024"])
    def test_floor_is_the_weighted_form_minimum(self, shape, seed):
        # J1 H_input, J2 H_comp and w_out H_output are positive semidefinite,
        # so the floor is weighted H_form's minimum off V, with no solver
        # rounding: a solve of the other parts put random (5,1,2) at -1.6e-10.
        shape = ProblemShape(*shape)
        schedule = SweepSchedule(shape) if seed is None else random_schedule(shape, np.random.default_rng(seed))
        constants, parts = auto_constants(schedule), standard_parts(schedule)
        want = constants.j2 * constants.alpha * form_minimum_off_sector(parts["H_form"], shape)
        assert off_sector_floor(parts, constants, shape) == want

    def test_separation_side_solves_filtered_and_orbit_only(self, monkeypatch):
        # The floor needs no eigensolve, so one side of a separation runs
        # low_spectrum twice: on the filtered V0 total and on the orbit block.
        solved = []

        def counted(operator, *args):
            solved.append(operator.shape[0])
            return low_spectrum(operator, *args)

        for module in (hamiltonian, promise):
            monkeypatch.setattr(module, "low_spectrum", counted, raising=False)
        accepting, _ = desk_pair(1)
        shape = accepting.shape
        promise._schedule_energies(accepting, auto_constants(accepting), promise._Shared.of(shape))
        assert len(solved) == 2
        assert solved[1] == hamiltonian.orbit_keys(shape).size

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


class TestSectorSpectrumReport:
    # The k lowest levels of H from V0 alone, against the full-space solve.
    @pytest.mark.parametrize("k", [3, 6, 12])
    @pytest.mark.parametrize("shape,seed", [((2, 1, 1), 0), ((2, 1, 2), 1), ((3, 1, 1), None)],
                             ids=["2-1-1-random", "2-1-2-random", "3-1-1-identity"])
    def test_levels_and_clusters_match_full_space(self, shape, seed, k):
        from clockring.promise import sector_spectrum

        shape = ProblemShape(*shape)
        schedule = SweepSchedule(shape) if seed is None else random_schedule(
            shape, np.random.default_rng(seed))
        constants = auto_constants(schedule)
        full = low_spectrum(assemble_total(schedule, constants), k)
        sector = sector_spectrum(schedule, constants, k)
        assert [f"{v:.12g}" for v in sector.eigenvalues] == [f"{v:.12g}" for v in full.eigenvalues]
        assert sector.clusters == full.clusters
        assert np.all(sector.residuals <= 1e-8 * max(1.0, abs(full.eigenvalues[0])))

    def test_large_v0_component_by_shift_invert(self, levels_below):
        # Random (7,1,1) V0 (seed 3) has two 4,480-state components, far
        # above the dense cut; k = 8 on one of them, at the total's bound.
        from clockring import spectral

        schedule = random_schedule(ProblemShape(7, 1, 1), np.random.default_rng(3))
        constants = auto_constants(schedule)
        total = promise.sector_hamiltonian(schedule, constants).total
        labels, sizes, _ = spectral._components(total)
        assert sorted(sizes)[-2:] == [4480, 4480]
        states = np.flatnonzero(labels == np.flatnonzero(sizes == 4480)[0])
        block = total[states][:, states]
        report = low_spectrum(block, 8, constants.lower_bound)
        assert report.method == "iterative"
        assert report.eigenvalues[0] == pytest.approx(-9989.26726104, abs=1e-7)
        assert report.eigenvalues[-1] == pytest.approx(-9988.73732929, abs=1e-7)
        assert levels_below(block, report.eigenvalues[-1] + 1e-6) == 8

    def test_levels_beyond_the_sector_are_refused(self):
        from clockring.promise import sector_spectrum

        schedule = SweepSchedule(ProblemShape(2, 1, 1))
        with pytest.raises(SpectralError, match="exceeds the 3 x 16 levels"):
            sector_spectrum(schedule, auto_constants(schedule), 49)


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

    def test_sector_cap_checked_before_bond_terms(self, monkeypatch):
        from clockring import promise

        def refuse(schedule):
            raise AssertionError("bond terms built before the sector cap check")

        monkeypatch.setattr(promise, "standard_parts", refuse)
        monkeypatch.setattr(hamiltonian, "standard_parts", refuse)
        shape = ProblemShape(3, 1, 200)
        assert SpinBasis(shape).sector_dim == 402 ** 3 > DIM_CAP
        rejecting = schedule_from_placements([(1, 1, force_reject_gate())], 3, 1, 200)
        with pytest.raises(BuildError, match="exceeds cap"):
            separation_experiment(SweepSchedule(shape), rejecting)

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


class TestOneOrbitOrder:
    def test_separation_parts_are_the_oracle_rows(self, monkeypatch, tmp_path):
        shape = ProblemShape(3, 1, 2)
        rng = np.random.default_rng(6)
        pair = [random_schedule(shape, rng) for _ in range(2)]
        report = separation_experiment(*pair)
        printed = []
        monkeypatch.setattr(cli, "format_expectation_report", lambda rows: printed.append(rows) or "")
        for schedule, side in zip(pair, (report.yes, report.no)):
            path = tmp_path / "circuit.txt"
            path.write_text(format_circuit_text(schedule))
            witness = "".join(map(str, side.best_witness))
            assert main(["oracle", "--circuit", str(path), "--witness", witness]) == 0
            oracle_rows, parts = printed.pop(), side.variational_parts
            assert [(n, v.hex(), i.hex()) for n, v, i in oracle_rows] == [
                (n, v.hex(), i.hex()) for n, v, i in parts]

    def test_one_v0_block_per_certification(self, capsys, monkeypatch):
        build, v0_blocks = hamiltonian.assemble_sector, []

        def counted(weighted_terms, shape, configs):
            if np.size(configs) == SpinBasis(shape).sector_dim:
                v0_blocks.append(shape)
            return build(weighted_terms, shape, configs)

        for module in (hamiltonian, promise):
            monkeypatch.setattr(module, "assemble_sector", counted)
        for argv, want in ((["verify", "--mode", "decide", "--n", "2"], 1),
                           (["spectrum", "--n", "3", "--k", "8"], 1),
                           (["verify", "--mode", "separation", "--desk-pair"], 2)):
            v0_blocks.clear()
            assert main(argv) == 0
            assert len(v0_blocks) == want, argv
