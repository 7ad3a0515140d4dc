"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass line with the measured figure of merit; pytest
failure output is the fail line.
"""

import time
from math import cos, pi

import numpy as np
import pytest

from clockring import (
    ProblemShape,
    SpinBasis,
    SweepSchedule,
    assemble_part,
    assemble_total,
    auto_constants,
    build_h_comp_bond,
    build_shift_operator,
    chain_models,
    check_translation_invariance,
    choose_j,
    detect_frozen,
    expectations,
    force_reject_gate,
    orbit_block_indices,
    random_schedule,
    reject_probability,
    restrict,
    schedule_from_placements,
    separation_experiment,
    simulate_history,
    standard_parts,
    verify_lemma_numeric,
)
from clockring.basis import config_from_labels, orbit_label_walk
from clockring.spectral import (
    binomial_chain_vector,
    frozen_config_indices,
    path_laplacian,
)


def comp_operator(schedule):
    return assemble_part(build_h_comp_bond(schedule), schedule.shape, "H_comp")


def test_criterion_1_history_state_nullity():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    runs = 0
    for n in (2, 3):
        for r in (1, 2, 3):
            shape = ProblemShape(n, 1, r)
            for _ in range(4):
                schedule = random_schedule(shape, rng)
                op = comp_operator(schedule)
                bits = [int(b) for b in rng.integers(0, 2, n)]
                head = int(rng.integers(0, n + 1))
                eta = simulate_history(schedule, bits, head_site=head).history_vector()
                norm = float(np.linalg.norm(op.matrix @ eta))
                worst = max(worst, norm)
                runs += 1
                assert norm <= 1e-10, (n, r, norm)
    elapsed = time.time() - start
    assert runs >= 20
    assert elapsed < 60
    print(
        f"[criterion 1] PASS history-state nullity: {runs} random runs, "
        f"worst ||H_comp eta|| = {worst:.3g}, {elapsed:.1f}s"
    )


def test_criterion_2_laplacian_equivalence():
    rng = np.random.default_rng(202)
    worst_spec = 0.0
    for n in (2, 3):
        for r in (1, 2, 3):
            shape = ProblemShape(n, 1, r)
            basis = SpinBasis(shape)
            length = shape.total_steps + 1

            identity_op = comp_operator(SweepSchedule(shape))
            idx = [
                basis.config_index(config_from_labels(0, labels, [0] * n, shape))
                for labels in orbit_label_walk(shape)
            ]
            sub = identity_op.matrix[np.ix_(idx, idx)].toarray()
            assert np.array_equal(sub.real, path_laplacian(length)), (n, r)
            assert np.abs(sub.imag).max() == 0.0

            random_op = comp_operator(random_schedule(shape, rng))
            block = orbit_block_indices(shape, 0)
            got = np.linalg.eigvalsh(random_op.matrix[np.ix_(block, block)].toarray())
            want = np.sort(np.repeat(np.linalg.eigvalsh(path_laplacian(length)), 2 ** n))
            dev = float(np.abs(got - want).max())
            worst_spec = max(worst_spec, dev)
            assert dev <= 1e-9, (n, r, dev)
    print(
        "[criterion 2] PASS Laplacian equivalence: exact integer restriction "
        f"for N<=3, R<=3; random-gate isospectrality within {worst_spec:.3g}"
    )


def test_criterion_3_gap_scaling():
    start = time.time()
    scaled = []
    for t_plus_1 in (3, 5, 9, 17):
        shape = ProblemShape(2, 1, t_plus_1 - 1)
        op = comp_operator(SweepSchedule(shape))
        sub = restrict(op, orbit_block_indices(shape, 0))
        values = np.linalg.eigvalsh(sub)
        ground = values[0]
        next_distinct = values[values > ground + 1e-10][0]
        gap_val = float(next_distinct - ground)
        closed_form = 2 * (1 - cos(pi / t_plus_1))
        assert abs(gap_val - closed_form) <= 1e-9, (t_plus_1, gap_val)
        scaled.append(gap_val * t_plus_1 ** 2)
    deltas = [pi ** 2 - s for s in scaled]
    assert all(d > 0 for d in deltas)
    assert all(deltas[i + 1] < deltas[i] for i in range(len(deltas) - 1))
    assert deltas[-1] / pi ** 2 < 0.05
    elapsed = time.time() - start
    print(
        "[criterion 3] PASS gap scaling: closed form within 1e-9, "
        f"scaled gaps {['%.4f' % s for s in scaled]} approach pi^2, {elapsed:.1f}s"
    )


def test_criterion_4_translation_invariance():
    shape = ProblemShape(2, 1, 1)
    schedule = SweepSchedule(shape)
    shift = build_shift_operator(shape)
    residuals = {}
    for name, term in standard_parts(schedule).items():
        op = assemble_part(term, shape, name)
        residuals[name] = check_translation_invariance(op, shift)
    total = assemble_total(schedule, auto_constants(schedule))
    residuals["total"] = check_translation_invariance(total, shift)
    assert all(res == 0.0 for res in residuals.values()), residuals
    print(
        "[criterion 4] PASS translation invariance: ||SH - HS||_max = 0 exactly "
        f"for {sorted(residuals)} at dim 729"
    )


def test_criterion_5_projection_lemma():
    report = verify_lemma_numeric(seed=1, trials=1000, dim=8)
    assert report.violations == 0
    worst_slack_dev = 0.0
    for norm in np.linspace(0.1, 4.0, 20):
        j = choose_j(norm)
        slack = norm ** 2 / (j - 2 * norm)
        worst_slack_dev = max(worst_slack_dev, abs(slack - 0.125))
    assert worst_slack_dev <= 1e-12
    print(
        "[criterion 5] PASS projection lemma: 1000 trials, 0 violations, "
        f"worst margins ({report.worst_lower_margin:.3g}, {report.worst_upper_margin:.3g}), "
        f"slack deviation {worst_slack_dev:.3g}"
    )


def test_criterion_6_output_expectation():
    rng = np.random.default_rng(606)
    worst = 0.0
    runs = 0
    # shapes where the final clock pattern is the only one carrying the
    # output marker: N=2 at any R, and N=3 at even R
    for n, r in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        shape = ProblemShape(n, 1, r)
        for _ in range(5):
            schedule = random_schedule(shape, rng)
            out_op = assemble_part(standard_parts(schedule)["H_output"], shape, "H_output")
            bits = [int(b) for b in rng.integers(0, 2, n)]
            eta = simulate_history(schedule, bits).history_vector()
            got = expectations(eta, {"H_output": out_op})[0][1]
            want = reject_probability(schedule, bits) / (shape.total_steps + 1)
            dev = abs(got - want)
            worst = max(worst, dev)
            runs += 1
            assert dev <= 1e-10, (n, r, dev)
    assert runs == 20
    print(
        f"[criterion 6] PASS output expectation: {runs} random schedules, "
        f"worst |<H_output> - p_reject/(T+1)| = {worst:.3g}"
    )


def test_criterion_7_ground_degeneracy():
    start = time.time()
    shape = ProblemShape(2, 1, 1)
    schedule = SweepSchedule(shape)
    constants = auto_constants(schedule)
    total = assemble_total(schedule, constants)

    dense = total.matrix.toarray()
    values, vectors = np.linalg.eigh(dense)
    scale = max(1.0, float(np.abs(values).max()))
    cluster = values <= values[0] + 1e-7 * scale
    cluster_vectors = vectors[:, cluster]

    frozen = frozen_config_indices(shape)
    assert len(frozen) == len(detect_frozen(shape)) == 24

    filtered = cluster_vectors.copy()
    filtered[frozen, :] = 0.0
    q, s, _ = np.linalg.svd(filtered, full_matrices=False)
    span = q[:, s > 1e-8]
    assert span.shape[1] == shape.n_sites  # one history state per head placement

    worst = 1.0
    for head in range(shape.n_sites):
        eta = simulate_history(schedule, "00", head_site=head).history_vector()
        overlap = float(np.linalg.norm(span.conj().T @ eta) ** 2)
        worst = min(worst, overlap)
        assert overlap >= 1 - 1e-8, (head, overlap)
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        "[criterion 7] PASS degeneracy: ground cluster holds the 3 head "
        f"translates, worst overlap {worst:.12f}, 24 frozen states excluded, "
        f"{elapsed:.1f}s"
    )


def test_criterion_8_yes_no_separation():
    shape = ProblemShape(2, 1, 1)
    accepting = SweepSchedule(shape)
    rejecting = schedule_from_placements([(1, 1, force_reject_gate())], 2, 1, 1)
    reports = [separation_experiment(accepting, rejecting) for _ in range(2)]
    first = reports[0]
    assert first.yes.lambda0_filtered < first.no.lambda0_filtered
    assert first.separation > 0
    assert first.separation_orbit > 0
    assert first.constants.j1 == 1.0
    assert reports[0].separation == reports[1].separation
    assert reports[0].yes.lambda0_full == reports[1].yes.lambda0_full
    print(
        "[criterion 8] PASS yes/no separation: "
        f"lambda0_yes = {first.yes.lambda0_filtered:.6f} < "
        f"lambda0_no = {first.no.lambda0_filtered:.6f}, "
        f"margin {first.separation:.6f}, deterministic across runs"
    )


def test_criterion_9_footnote_eigenvector():
    worst_residual = 0.0
    for n in range(2, 11):
        chain = chain_models(n + 1, "engineered")
        vec = binomial_chain_vector(n)
        lam = float(vec @ chain @ vec)
        residual = float(np.linalg.norm(chain @ vec - lam * vec))
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-10, (n, residual)

    coeffs = []
    for n in range(4, 11):
        values, vectors = np.linalg.eigh(chain_models(n + 1, "uniform"))
        coeffs.append(abs(vectors[-1, 0]))
    assert all(b < a for a, b in zip(coeffs, coeffs[1:]))
    print(
        "[criterion 9] PASS footnote eigenvector: engineered-chain residual "
        f"<= {worst_residual:.3g} for N<=10; uniform-chain final coefficient "
        f"decays monotonically {['%.4f' % c for c in coeffs]}"
    )
