from math import cos, pi

import numpy as np
import pytest
import scipy.sparse as sp

from clockring import (
    HEAD,
    ProblemShape,
    SpinBasis,
    SweepSchedule,
    assemble_part,
    build_h_comp_bond,
    chain_models,
    detect_frozen,
    enumerate_legal_orbit,
    gap,
    ground_energy,
    low_spectrum,
    orbit_block_indices,
    path_gap,
    path_laplacian,
    path_laplacian_eigenvalues,
    random_schedule,
    restrict,
)
from clockring import spectral
from clockring.basis import config_from_labels, is_legal, orbit_label_walk
from clockring.circuit import force_reject_gate, schedule_from_placements
from clockring.hamiltonian import assemble_total
from clockring.promise import auto_constants
from clockring.spectral import (
    CLUSTER_RTOL,
    ConvergenceError,
    SolverOptions,
    SpectralError,
    binomial_chain_vector,
    frozen_config_indices,
    frozen_excluded_submatrix,
)


def sparse(mat):
    return sp.csr_matrix(np.asarray(mat, dtype=complex))


class TestGroundEnergy:
    def test_zero_operator(self):
        lam, vec, res = ground_energy(sparse(np.zeros((5, 5))))
        assert lam == 0.0
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert res == 0.0

    def test_two_site_laplacian(self):
        lam, vec, res = ground_energy(sparse([[1, -1], [-1, 1]]))
        assert lam == pytest.approx(0.0, abs=1e-12)
        assert abs(vec[0]) == pytest.approx(1 / np.sqrt(2), abs=1e-10)
        assert abs(vec[1]) == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_assembled_comp_ground_space_holds_history(self, desk_identity_schedule, desk_shape):
        from clockring import simulate_history

        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        lam, _, _ = ground_energy(op)
        assert lam == pytest.approx(0.0, abs=1e-10)
        eta = simulate_history(desk_identity_schedule, "00").history_vector(basis)
        assert np.linalg.norm(op.matrix @ eta) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(SpectralError):
            ground_energy(sparse([[0, 1], [0, 0]]))

    def test_dense_and_iterative_agree(self, desk_identity_schedule, desk_shape):
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        shifted = sp.csr_matrix(op.matrix + 2.0 * sp.eye(729, dtype=complex))
        assert low_spectrum(shifted, 1, SolverOptions(dense_threshold=1)).method == "iterative"
        lam_dense, _, _ = ground_energy(shifted, SolverOptions(dense_threshold=4096))
        lam_iter, _, _ = ground_energy(shifted, SolverOptions(dense_threshold=1))
        assert lam_iter == pytest.approx(lam_dense, abs=1e-8)

    def test_iterative_deterministic_across_runs(self, desk_identity_schedule, desk_shape):
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        shifted = sp.csr_matrix(op.matrix + 2.0 * sp.eye(729, dtype=complex))
        opts = SolverOptions(dense_threshold=1, seed=3)
        assert low_spectrum(shifted, 1, opts).method == "iterative"
        a = ground_energy(shifted, opts)[0]
        b = ground_energy(shifted, opts)[0]
        assert a == b


class TestLowSpectrum:
    def test_path_laplacian_closed_form(self):
        report = low_spectrum(sparse(path_laplacian(5)), 5)
        want = np.sort(path_laplacian_eigenvalues(5))
        assert np.abs(report.eigenvalues - want).max() <= 1e-10

    def test_identity_operator(self):
        report = low_spectrum(sparse(np.eye(4)), 3)
        assert np.allclose(report.eigenvalues, 1.0, atol=0)
        assert len(report.clusters) == 1

    def test_orbit_restricted_comp_matches_path_spectrum(self, rng):
        shape = ProblemShape(3, 1, 2)
        basis = SpinBasis(shape)
        op = assemble_part(build_h_comp_bond(random_schedule(shape, rng)), shape)
        sub = restrict(op, orbit_block_indices(shape, 0, basis))
        got = np.linalg.eigvalsh(sub)
        want = np.sort(np.repeat(path_laplacian_eigenvalues(5), 8))
        assert np.abs(got - want).max() <= 1e-10

    def test_k_out_of_range(self):
        with pytest.raises(SpectralError):
            low_spectrum(sparse(np.eye(3)), 4)


def _mixed_blocks():
    """Blocks of sizes 1, 2, 3, 1 and 2 on interleaved indices; the levels 0
    and 2 each occur in several blocks."""
    blocks = [
        np.zeros((1, 1)),
        path_laplacian(2),  # 0, 2
        path_laplacian(3),  # 0, 1, 3
        np.full((1, 1), 2.0),
        path_laplacian(2),  # 0, 2
    ]
    perm = np.random.default_rng(5).permutation(9)
    mat = np.zeros((9, 9), dtype=complex)
    supports, at = [], 0
    for block in blocks:
        idx = perm[at:at + len(block)]
        mat[np.ix_(idx, idx)] = block
        supports.append(set(idx.tolist()))
        at += len(block)
    return sparse(mat), supports


class TestBlockEngine:
    @pytest.mark.parametrize("r", [1, 2])
    def test_filtered_desk_matrices_match_whole_matrix(self, r):
        shape = ProblemShape(2, 1, r)
        accepting = schedule_from_placements([], 2, 1, r)
        rejecting = schedule_from_placements([(1, 1, force_reject_gate())], 2, 1, r)
        constants = auto_constants(accepting)
        for schedule in (accepting, rejecting):
            mat, _ = frozen_excluded_submatrix(assemble_total(schedule, constants), shape)
            dim = mat.shape[0]
            report = low_spectrum(mat, dim)
            want = np.linalg.eigvalsh(mat.toarray())
            scale = max(1.0, np.abs(want).max())
            assert report.method == "dense"
            assert np.abs(report.eigenvalues - want).max() <= 1e-10 * scale
            want_clusters = spectral._cluster(want, CLUSTER_RTOL * max(1.0, spectral._norm_estimate(mat)))
            assert [len(c) for c in report.clusters] == [len(c) for c in want_clusters]

    def test_mixed_blocks_vectors_and_ties(self):
        mat, supports = _mixed_blocks()
        a = low_spectrum(mat, 9)
        b = low_spectrum(mat, 9)
        assert np.allclose(a.eigenvalues, [0, 0, 0, 0, 1, 2, 2, 2, 3], atol=1e-12)
        assert [len(c) for c in a.clusters] == [4, 1, 3, 1]
        for i in range(9):
            vec = a.vectors[:, i]
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
            support = set(np.flatnonzero(vec).tolist())
            assert any(support <= block for block in supports)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert a.residuals.tobytes() == b.residuals.tobytes()

    def test_small_blocks_stay_dense_above_threshold(self):
        mat, _ = _mixed_blocks()
        report = low_spectrum(mat, 3, SolverOptions(dense_threshold=3))
        assert report.method == "dense"
        assert np.abs(report.eigenvalues).max() <= 1e-12

    def test_component_above_threshold_goes_iterative(self):
        mat = sparse(path_laplacian(40))
        report = low_spectrum(mat, 3, SolverOptions(dense_threshold=39))
        assert report.method == "iterative"
        want = path_laplacian_eigenvalues(40)[:3]
        assert np.abs(report.eigenvalues - want).max() <= 1e-8

    def test_partial_lanczos_result_raises(self, monkeypatch):
        # Two isolated low levels converge at once; the other two requested do not.
        diag = np.r_[[-10.0, -9.0], np.linspace(0, 1, 298)]
        mat = sparse(np.diag(diag) + 1e-3 * path_laplacian(300))
        monkeypatch.setattr(spectral, "MAX_MATVECS", 1)
        with pytest.raises(ConvergenceError) as info:
            low_spectrum(mat, 4, SolverOptions(dense_threshold=10))
        assert info.value.best_value == pytest.approx(-10, abs=1e-2)
        assert info.value.residual <= 1e-8

    def test_three_qubit_identity_ground_degeneracy(self):
        schedule = SweepSchedule(ProblemShape(3, 1, 1))
        total = assemble_total(schedule, auto_constants(schedule))
        report = low_spectrum(total, 8)
        assert report.eigenvalues.dtype == np.float64
        assert len(report.eigenvalues) == 8
        assert np.abs(report.eigenvalues + 2376).max() <= 1e-9
        assert len(report.clusters) == 1
        result = gap(total)
        assert result.resolved
        assert result.ground_degeneracy == 44
        assert result.ground_value == pytest.approx(-2376, abs=1e-9)
        assert result.next_value == pytest.approx(-2375.66701723, abs=1e-8)


class TestRestrict:
    def test_single_configuration_diagonal(self, desk_identity_schedule, desk_shape):
        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        idx = basis.config_index(config_from_labels(0, [0, 0], "00", desk_shape))
        sub = restrict(op, [idx])
        assert sub.shape == (1, 1)
        assert sub[0, 0] == pytest.approx(1.0, abs=0)

    def test_orbit_restriction_is_exact_laplacian(self):
        shape = ProblemShape(3, 1, 3)
        basis = SpinBasis(shape)
        op = assemble_part(build_h_comp_bond(SweepSchedule(shape)), shape)
        idx = [
            basis.config_index(config_from_labels(0, labels, "000", shape))
            for labels in orbit_label_walk(shape)
        ]
        sub = restrict(op, idx)
        assert np.array_equal(sub.real, path_laplacian(7))

    def test_zero_operator(self):
        sub = restrict(sparse(np.zeros((6, 6))), [0, 3])
        assert np.array_equal(sub, np.zeros((2, 2)))

    def test_vector_basis_and_orthonormality_guard(self):
        mat = sparse(np.diag([1.0, 2.0, 3.0]))
        q = np.eye(3)[:, :2]
        sub = restrict(mat, [q[:, 0], q[:, 1]])
        assert np.allclose(sub, np.diag([1.0, 2.0]))
        with pytest.raises(SpectralError):
            restrict(mat, [q[:, 0], q[:, 0]])


class TestGap:
    def test_path_gap_closed_form(self):
        report = gap(sparse(path_laplacian(5)))
        assert report.resolved
        assert report.ground_degeneracy == 1
        assert report.gap == pytest.approx(2 * (1 - cos(pi / 5)), abs=1e-10)

    def test_identity_reports_degenerate_only(self):
        report = gap(sparse(np.eye(5)))
        assert not report.resolved
        assert report.gap == 0.0
        assert report.ground_degeneracy == 5

    def test_orbit_gap_value(self):
        shape = ProblemShape(3, 1, 2)
        basis = SpinBasis(shape)
        op = assemble_part(build_h_comp_bond(SweepSchedule(shape)), shape)
        idx = [
            basis.config_index(config_from_labels(0, labels, "000", shape))
            for labels in orbit_label_walk(shape)
        ]
        report = gap(sparse(restrict(op, idx)))
        assert report.gap == pytest.approx(2 * (1 - cos(pi / 5)), abs=1e-9)
        assert abs(report.gap - 0.381966) <= 1e-6


class TestDetectFrozen:
    def test_exhaustive_scan_agrees(self, desk_identity_schedule, desk_shape):
        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        legal_patterns = {d.labels for _, d in enumerate_legal_orbit(desk_shape)}
        expected = set()
        col_nnz = np.diff(op.matrix.tocsc().indptr)
        for idx in range(basis.config_dim):
            config = basis.config_at(idx)
            ok, violations = is_legal(config, desk_shape)
            form_ok = all(v.startswith("clock-pattern") for v in violations)
            if not form_ok:
                continue
            if col_nnz[idx] != 0:
                continue
            labels = tuple(
                s.cycle
                for s in sorted(
                    (s for s in config if s is not HEAD), key=lambda s: s.position
                )
            )
            if labels in legal_patterns:
                continue
            expected.add(idx)
        got = {basis.config_index(c) for c in detect_frozen(desk_shape)}
        assert got == expected
        assert len(got) == 24  # 2 off-orbit label patterns x 4 bit patterns x 3 heads

    def test_frozen_rows_are_dark(self, desk_identity_schedule, desk_shape):
        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        for config in detect_frozen(desk_shape):
            vec = np.zeros(basis.config_dim)
            vec[basis.config_index(config)] = 1.0
            assert np.linalg.norm(op.matrix @ vec) == 0.0

    def test_orbit_patterns_never_frozen(self, desk_shape):
        legal = {d.labels for _, d in enumerate_legal_orbit(desk_shape)}
        for config in detect_frozen(desk_shape):
            labels = tuple(
                s.cycle
                for s in sorted((s for s in config if s is not HEAD), key=lambda s: s.position)
            )
            assert labels not in legal

    def test_multi_head_configs_excluded(self, desk_shape):
        for config in detect_frozen(desk_shape):
            assert sum(1 for s in config if s is HEAD) == 1

    def test_indices_helper_sorted(self, desk_shape):
        idx = frozen_config_indices(desk_shape)
        assert len(idx) == 24
        assert np.all(np.diff(idx) > 0)

    def test_coupled_frozen_configuration_rejected(self, desk_identity_schedule, desk_shape):
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        sub, keep = frozen_excluded_submatrix(op, desk_shape)
        assert sub.shape == (729 - 24, 729 - 24)
        frozen = int(frozen_config_indices(desk_shape)[0])
        other = int(keep[0])
        coupled = op.matrix.tolil()
        coupled[frozen, other] = 0.5
        coupled[other, frozen] = 0.5
        with pytest.raises(SpectralError):
            frozen_excluded_submatrix(sp.csr_matrix(coupled), desk_shape)


class TestChainModels:
    def test_two_site_uniform(self):
        eigs = np.linalg.eigvalsh(chain_models(2, "uniform"))
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)

    def test_engineered_hosts_binomial_vector(self):
        for n in range(2, 11):
            chain = chain_models(n + 1, "engineered")
            vec = binomial_chain_vector(n)
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
            lam = vec @ chain @ vec
            assert np.linalg.norm(chain @ vec - lam * vec) <= 1e-10
            assert lam == pytest.approx(n, abs=1e-9)

    def test_uniform_ground_final_coefficient_decays(self):
        last = None
        for n in range(4, 11):
            chain = chain_models(n + 1, "uniform")
            vals, vecs = np.linalg.eigh(chain)
            coeff = abs(vecs[-1, 0])
            if last is not None:
                assert coeff < last
            last = coeff

    def test_bad_arguments(self):
        with pytest.raises(SpectralError):
            chain_models(1)
        with pytest.raises(SpectralError):
            chain_models(4, "nope")
