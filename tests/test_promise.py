import numpy as np
import pytest

from clockring import (
    CouplingConstants,
    ProblemShape,
    PromiseParameters,
    SweepSchedule,
    assemble,
    assemble_total,
    auto_constants,
    choose_alpha,
    choose_j,
    decide,
    force_reject_gate,
    ground_energy,
    projection_bounds,
    random_schedule,
    schedule_from_placements,
    separation_experiment,
    standard_parts,
    verify_lemma_numeric,
)
from clockring.promise import PromiseError, measured_gap_constant


class TestProjectionBounds:
    def test_zero_perturbation_collapses(self):
        bounds = projection_bounds(-3.0, 0.0, 5.0)
        assert bounds.lower == bounds.upper == -3.0

    def test_unit_norm_with_j_ten(self):
        bounds = projection_bounds(1.5, 1.0, 10.0)
        assert bounds.lower == pytest.approx(1.5 - 1 / 8, abs=0)
        assert bounds.upper == 1.5

    def test_hypothesis_violation_flagged(self):
        with pytest.raises(PromiseError):
            projection_bounds(0.0, 1.0, 2.0)

    def test_sandwich_on_random_instances(self, rng):
        # direct dense check of both inequalities on sampled instances
        for _ in range(100):
            dim = 8
            s_dim = int(rng.integers(1, dim))
            q, _ = np.linalg.qr(
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            )
            s = q[:, :s_dim]
            h1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h1 = (h1 + h1.conj().T) / 2
            h1 /= np.abs(np.linalg.eigvalsh(h1)).max() * rng.uniform(1.0, 4.0)
            norm = float(np.abs(np.linalg.eigvalsh(h1)).max())
            j = choose_j(norm)
            h2 = j * (np.eye(dim) - s @ s.conj().T)
            lam = np.linalg.eigvalsh(h1 + h2)[0]
            lam_s = np.linalg.eigvalsh(s.conj().T @ h1 @ s)[0]
            bounds = projection_bounds(lam_s, norm, j)
            assert bounds.lower - 1e-10 <= lam <= bounds.upper + 1e-10


class TestChooseJ:
    def test_unit_norm(self):
        assert choose_j(1.0) == 10.0

    def test_zero_norm(self):
        assert choose_j(0.0) == 0.0

    def test_norm_two_slack(self):
        j = choose_j(2.0)
        assert j == 36.0
        assert 4.0 / (j - 4.0) == pytest.approx(1 / 8, abs=0)

    def test_slack_identity_at_many_norms(self):
        for norm in np.linspace(0.05, 5.0, 20):
            j = choose_j(norm)
            assert norm ** 2 / (j - 2 * norm) == pytest.approx(1 / 8, abs=1e-12)


class TestChooseAlpha:
    def test_formula(self):
        shape = ProblemShape(5, 1, 1)  # T = 4
        assert choose_alpha(shape, np.pi ** 2) == pytest.approx(
            2 * np.pi ** 2 / 16, abs=1e-12
        )

    def test_single_step(self):
        shape = ProblemShape(2, 1, 1)  # T = 1
        assert choose_alpha(shape, 3.0) == 6.0

    def test_nonpositive_rejected(self):
        with pytest.raises(PromiseError):
            choose_alpha(ProblemShape(2, 1, 1), 0.0)

    def test_measured_constant_near_pi_squared(self):
        shape = ProblemShape(2, 1, 16)  # T + 1 = 17
        c = measured_gap_constant(shape)
        assert abs(c - np.pi ** 2) / np.pi ** 2 < 0.05


class TestVerifyLemma:
    def test_thousand_trials_no_violations(self):
        report = verify_lemma_numeric(seed=1, trials=1000, dim=8)
        assert report.violations == 0
        assert report.worst_lower_margin > -1e-10
        assert report.worst_upper_margin > -1e-10

    def test_trivial_whole_space(self):
        # H2 = 0 with S the whole space: bounds collapse to lambda(H1)
        bounds = projection_bounds(-0.7, 0.0, 0.0)
        assert bounds.lower == bounds.upper == -0.7

    @pytest.mark.parametrize("trials,dim", [(0, 8), (-3, 8), (10, 1), (10, 0)])
    def test_needs_a_trial_and_two_dimensions(self, trials, dim):
        with pytest.raises(PromiseError):
            verify_lemma_numeric(seed=2, trials=trials, dim=dim)

    def test_report_format(self):
        report = verify_lemma_numeric(seed=2, trials=10, dim=4)
        line = report.format()
        assert line.startswith("trials 10 dim 4 violations 0")


class TestDecide:
    def _diag(self,*values):
        import scipy.sparse as sp

        return sp.csr_matrix(np.diag(np.asarray(values, dtype=complex)))

    def test_yes_no_outside(self):
        params = PromiseParameters(a=0.0, b=1.0)
        assert decide(self._diag(-1.0, 2.0), params).verdict == "Yes"
        assert decide(self._diag(2.0, 3.0), params).verdict == "No"
        assert decide(self._diag(0.5, 3.0), params).verdict == "OutsidePromise"

    def test_monotone_in_lambda0(self):
        params = PromiseParameters(a=0.0, b=1.0)
        order = {"Yes": 0, "OutsidePromise": 1, "No": 2}
        last = -1
        for lam in np.linspace(-2.0, 2.0, 17):
            verdict = decide(self._diag(lam, lam + 5), params).verdict
            assert order[verdict] >= last
            last = order[verdict]

    def test_threshold_validation(self):
        with pytest.raises(PromiseError):
            PromiseParameters(a=1.0, b=1.0)


def desk_pair(r=1):
    shape = ProblemShape(2, 1, r)
    accepting = SweepSchedule(shape)
    rejecting = schedule_from_placements([(1, 1, force_reject_gate())], 2, 1, r)
    return accepting, rejecting


def random_pair(shape, seed):
    return (random_schedule(shape, np.random.default_rng(seed)),
            random_schedule(shape, np.random.default_rng(seed + 100)))


class TestSeparation:
    def test_positive_margin_on_desk_pair(self):
        accepting, rejecting = desk_pair()
        report = separation_experiment(accepting, rejecting)
        assert report.yes.lambda0_filtered < report.no.lambda0_filtered
        assert report.separation > 0
        assert report.separation_orbit > 0
        # frozen zero modes tie the raw full-space grounds
        assert report.separation_raw == pytest.approx(0.0, abs=1e-9)

    def test_variational_bounds_ground(self):
        accepting, rejecting = desk_pair()
        report = separation_experiment(accepting, rejecting)
        assert report.yes.variational_energy >= report.yes.lambda0_full - 1e-9
        assert report.no.variational_energy >= report.no.lambda0_full - 1e-9

    def test_reject_side_output_weight(self):
        accepting, rejecting = desk_pair()
        report = separation_experiment(accepting, rejecting)
        assert report.no.reject_probability_best == pytest.approx(1.0, abs=1e-12)
        parts = dict((n, v) for n, v, _ in report.no.variational_parts)
        # w_out * p_reject / (T+1) = 1 * 1/2
        assert parts["H_output"] == pytest.approx(0.5, abs=1e-10)

    def test_deterministic_across_seeds(self):
        accepting, rejecting = desk_pair()
        a = separation_experiment(accepting, rejecting)
        b = separation_experiment(accepting, rejecting)
        assert a.separation == b.separation
        assert a.yes.lambda0_full == b.yes.lambda0_full

    @pytest.mark.parametrize("r", [1, 2])
    def test_full_ground_energy_matches_whole_space_solve(self, r):
        accepting = schedule_from_placements([], 2, 1, r)
        rejecting = schedule_from_placements([(1, 1, force_reject_gate())], 2, 1, r)
        report = separation_experiment(accepting, rejecting)
        for schedule, side in ((accepting, report.yes), (rejecting, report.no)):
            want = ground_energy(assemble_total(schedule, report.constants))[0]
            assert abs(side.lambda0_full - want) <= 1e-9 * max(1.0, abs(want))

    def test_bond_terms_built_once_per_side(self, monkeypatch):
        from clockring import hamiltonian, promise

        calls, shapes = [], []

        def counted(schedule, *shared):
            calls.append(schedule)
            return standard_parts(schedule, *shared)

        def shared_once(shape):  # the terms that do not read the schedule
            shapes.append(shape)
            return hamiltonian.shape_parts(shape)

        monkeypatch.setattr(promise, "standard_parts", counted)
        monkeypatch.setattr(hamiltonian, "standard_parts", counted)
        monkeypatch.setattr(promise, "shape_parts", shared_once)
        accepting, rejecting = desk_pair()
        separation_experiment(accepting, rejecting)
        assert len(calls) == 2 and calls[0] is accepting and calls[1] is rejecting
        assert shapes == [accepting.shape]

    @pytest.mark.parametrize("pair", [desk_pair(3), desk_pair(4), desk_pair(8), desk_pair(256),
                                      random_pair(ProblemShape(3, 2, 1), 1)],
                             ids=["desk-3", "desk-4", "desk-8", "desk-256", "random-321"])
    def test_orbit_level_is_the_filtered_level(self, pair):
        # The orbit block is solved as the filtered solve holds the same
        # components, so where the filtered ground lies on the orbit the
        # two levels are one computation.
        report = separation_experiment(*pair)
        for side in (report.yes, report.no):
            assert side.lambda0_orbit == side.lambda0_filtered
        assert report.separation_orbit == report.separation

    def test_orbit_level_above_lower_illegal_components(self):
        report = separation_experiment(*random_pair(ProblemShape(3, 1, 8), 5))
        for side in (report.yes, report.no):
            assert side.lambda0_orbit > side.lambda0_filtered

    def test_separation_makes_no_dense_eigen_call(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        report = separation_experiment(*desk_pair(3))
        assert report.separation > 0

    def test_shape_mismatch_rejected(self):
        accepting, _ = desk_pair()
        other = SweepSchedule(ProblemShape(3, 1, 1))
        with pytest.raises(PromiseError):
            separation_experiment(accepting, other)

    def test_history_energy_matches_paper_style_grouping(self):
        # the head reward sits in the form part: accepting history energy is
        # exactly -j2*alpha, with input and output contributions zero
        accepting, rejecting = desk_pair()
        report = separation_experiment(accepting, rejecting)
        c = report.constants
        assert report.yes.variational_energy == pytest.approx(
            -c.j2 * c.alpha, abs=1e-9
        )
        parts = dict((n, v) for n, v, _ in report.yes.variational_parts)
        assert parts["H_input"] == pytest.approx(0.0, abs=1e-12)
        assert parts["H_comp"] == pytest.approx(0.0, abs=1e-10)
        assert parts["H_form"] == pytest.approx(-1.0, abs=1e-12)


class TestNestedProjection:
    def test_two_level_composition_on_desk_instance(self):
        # First level: treat the weighted sweep-plus-form part as the large
        # H2 whose zero space (after shifting its floor to zero) is the
        # computational sector.  Second level: inside that sector, treat the
        # ancilla penalty as the next H2.  Both sandwich bounds must hold
        # around the dense ground energy.
        from clockring import assemble, standard_parts

        shape = ProblemShape(2, 1, 1)
        schedule = SweepSchedule(shape)
        parts = standard_parts(schedule)
        j1, w_out = 60.0, float(shape.total_steps)
        alpha = 16.0

        a_mat = assemble(
            [(parts["H_form"], alpha), (parts["H_comp"], 1.0)], shape
        ).matrix.toarray()
        a_vals, a_vecs = np.linalg.eigh(a_mat)
        floor = a_vals[0]
        s_cols = a_vecs[:, a_vals <= floor + 1e-9]
        gap_a = float(a_vals[a_vals > floor + 1e-9][0] - floor)

        h1_mat = assemble(
            [(parts["H_input"], j1), (parts["H_output"], w_out)], shape
        ).matrix.toarray()
        norm_h1 = float(np.abs(np.linalg.eigvalsh(h1_mat)).max())
        j2 = choose_j(norm_h1) / gap_a  # makes the effective J meet choose_j
        j_eff = j2 * gap_a

        total = h1_mat + j2 * a_mat
        lam_total = float(np.linalg.eigvalsh(total)[0])
        lam_shifted = lam_total - j2 * floor

        h_prime = s_cols.conj().T @ h1_mat @ s_cols
        lam_restricted = float(np.linalg.eigvalsh(h_prime)[0])
        bounds1 = projection_bounds(lam_restricted, norm_h1, j_eff)
        assert bounds1.lower - 1e-8 <= lam_shifted <= bounds1.upper + 1e-8

        # second level inside S: H2' = j1 * H_input|_S
        input_s = s_cols.conj().T @ assemble(
            [(parts["H_input"], 1.0)], shape
        ).matrix.toarray() @ s_cols
        in_vals, in_vecs = np.linalg.eigh(input_s)
        s2_cols = in_vecs[:, in_vals <= 1e-9]
        mu = float(in_vals[in_vals > 1e-9][0])
        out_s = s_cols.conj().T @ assemble(
            [(parts["H_output"], w_out)], shape
        ).matrix.toarray() @ s_cols
        norm_h1_prime = float(np.abs(np.linalg.eigvalsh(out_s)).max())
        j_eff2 = j1 * mu
        assert j_eff2 > 2 * norm_h1_prime  # hypothesis for the inner level

        lam_prime = float(np.linalg.eigvalsh(h_prime)[0])
        lam_inner = float(
            np.linalg.eigvalsh(s2_cols.conj().T @ out_s @ s2_cols)[0]
        )
        bounds2 = projection_bounds(lam_inner, norm_h1_prime, j_eff2)
        assert bounds2.lower - 1e-8 <= lam_prime <= bounds2.upper + 1e-8

        # composed: the dense ground energy sits inside the doubled sandwich
        assert lam_shifted >= bounds2.lower - norm_h1 ** 2 / (j_eff - 2 * norm_h1) - 1e-8
        assert lam_shifted <= bounds2.upper + 1e-8


class TestAutoConstants:
    def test_desk_values(self):
        shape = ProblemShape(2, 1, 1)
        constants = auto_constants(SweepSchedule(shape))
        # ||H1|| = 3: every ring site can hold a penalized level at once
        assert constants.j2 == choose_j(3.0) == 78.0
        assert constants.alpha == pytest.approx(
            choose_alpha(shape, measured_gap_constant(shape)), abs=0
        )
        assert constants.w_out == 1.0

    @pytest.mark.parametrize(
        "n,m,r", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 3), (3, 1, 1), (3, 3, 1), (3, 2, 2)]
    )
    def test_closed_form_norm_matches_assembled_h1(self, n, m, r):
        shape = ProblemShape(n, m, r)
        schedule = SweepSchedule(shape)
        parts = standard_parts(schedule)
        for j1 in (0.1, 1 / 3, 1.0, 2.5, 7.3, 40.0):
            h1 = assemble(
                [(parts["H_input"], j1), (parts["H_output"], float(shape.total_steps))], shape
            )
            norm_h1 = float(np.abs(h1.matrix.diagonal()).max())
            assert auto_constants(schedule, j1=j1).j2 == choose_j(norm_h1), (j1, norm_h1)

    def test_positive_required(self):
        with pytest.raises(Exception):
            CouplingConstants(1.0, 0.0, 1.0, 1.0)
