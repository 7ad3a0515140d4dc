import ast
import re
import time
from math import cos, pi
from pathlib import Path

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
from clockring import hamiltonian, spectral
from clockring.basis import config_from_labels, orbit_label_walk
from clockring.circuit import force_reject_gate, schedule_from_placements
from clockring.hamiltonian import assemble_orbit, assemble_total, standard_parts, total_parts
from clockring.promise import auto_constants, sector_hamiltonian
from clockring.spectral import (
    CLUSTER_RTOL,
    ConvergenceError,
    SpectralError,
    binomial_chain_vector,
    frozen_config_indices,
    frozen_excluded_submatrix,
    hermiticity_residual,
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

        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        lam, _, _ = ground_energy(op)
        assert lam == pytest.approx(0.0, abs=1e-10)
        eta = simulate_history(desk_identity_schedule, "00").history_vector()
        assert np.linalg.norm(op.matrix @ eta) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(SpectralError):
            ground_energy(sparse([[0, 1], [0, 0]]))

    @staticmethod
    def _shifted_comp():
        # (2,1,2) H_comp has 3-state blocks, which Lanczos can take at k = 1.
        shape = ProblemShape(2, 1, 2)
        op = assemble_part(build_h_comp_bond(SweepSchedule(shape)), shape)
        return sp.csr_matrix(op.matrix + 2.0 * sp.eye(op.dim, dtype=complex))

    def test_dense_and_iterative_agree(self, monkeypatch):
        shifted = self._shifted_comp()
        lam_dense, _, _ = ground_energy(shifted)
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 1)
        assert low_spectrum(shifted, 1).method == "iterative"
        lam_iter, _, _ = ground_energy(shifted)
        assert lam_iter == pytest.approx(lam_dense, abs=1e-8)

    def test_iterative_deterministic_across_runs(self, monkeypatch):
        shifted = self._shifted_comp()
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 1)
        assert low_spectrum(shifted, 1).method == "iterative"
        a = ground_energy(shifted)[0]
        b = ground_energy(shifted)[0]
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
        op = assemble_part(build_h_comp_bond(random_schedule(shape, rng)), shape)
        sub = restrict(op, orbit_block_indices(shape, 0))
        got = np.linalg.eigvalsh(sub)
        want = np.sort(np.repeat(path_laplacian_eigenvalues(5), 8))
        assert np.abs(got - want).max() <= 1e-10

    def test_k_out_of_range(self):
        with pytest.raises(SpectralError):
            low_spectrum(sparse(np.eye(3)), 4)

    def test_non_finite_operator_refused(self):
        with pytest.raises(SpectralError, match="not Hermitian"):
            low_spectrum(sparse([[1, np.nan], [np.nan, 2]]), 1)

    def test_non_finite_residual_refused(self, monkeypatch):
        def nan_solve(mat, labels, sizes, rows, k, lower_bound):
            return np.full(k, np.nan), np.eye(mat.shape[0])[:, :k], False

        monkeypatch.setattr(spectral, "_block_eigenpairs", nan_solve)
        with pytest.raises(ConvergenceError):
            low_spectrum(sparse(np.eye(2)), 1)


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

    def test_small_blocks_stay_dense_above_threshold(self, monkeypatch):
        mat, _ = _mixed_blocks()
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 3)
        report = low_spectrum(mat, 3)
        assert report.method == "dense"
        assert np.abs(report.eigenvalues).max() <= 1e-12

    def test_component_above_threshold_goes_iterative(self, monkeypatch):
        mat = sparse(path_laplacian(40))
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 39)
        report = low_spectrum(mat, 3)
        assert report.method == "iterative"
        want = path_laplacian_eigenvalues(40)[:3]
        assert np.abs(report.eigenvalues - want).max() <= 1e-8

    def test_lanczos_runs_per_component(self, monkeypatch):
        # Two equal 40-state chains above the threshold, small blocks between them.
        chain = path_laplacian(40) - 0.03 * np.eye(40)
        blocks = [chain, np.zeros((1, 1)), path_laplacian(3) - 0.01 * np.eye(3), chain,
                  np.full((1, 1), 0.02), path_laplacian(2)]
        dim = sum(len(b) for b in blocks)
        perm = np.random.default_rng(3).permutation(dim)
        mat = np.zeros((dim, dim), dtype=complex)
        at = 0
        for block in blocks:
            idx = perm[at:at + len(block)]
            mat[np.ix_(idx, idx)] = block
            at += len(block)
        solved = []
        shift_invert = spectral._shift_invert_eigenpairs

        def recording(sub, k, lower_bound):
            solved.append(sub.shape[0])
            return shift_invert(sub, k, lower_bound)

        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 10)
        monkeypatch.setattr(spectral, "_shift_invert_eigenpairs", recording)
        k = 12
        report = low_spectrum(sparse(mat), k)
        assert report.method == "iterative"
        assert solved == [40, 40]
        want = np.linalg.eigvalsh(mat)[:k]
        scale = max(1.0, np.abs(want).max())
        assert np.abs(report.eigenvalues - want).max() <= 1e-8 * scale
        tol = CLUSTER_RTOL * max(1.0, spectral._norm_estimate(sparse(mat)))
        assert [len(c) for c in report.clusters] == [len(c) for c in spectral._cluster(want, tol)]
        assert [len(c) for c in report.clusters][:2] == [2, 2]  # one level from each chain

    def test_dense_groups_keep_only_the_offered_vectors(self, monkeypatch):
        # Two dense size groups; at k = 1 the first group's stack must be
        # released before the second one is solved.  The cut is raised so
        # both chains stay on the dense route.
        import tracemalloc

        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 1200)
        def chain(n, shift):
            return sp.diags([np.arange(n) * 0.01 + shift, -np.ones(n - 1), -np.ones(n - 1)],
                            [0, 1, -1])

        mat = sp.block_diag([chain(1000, 0.0), chain(1200, 0.5)], format="csr")
        tracemalloc.start()
        try:
            report = low_spectrum(mat, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.vectors.shape == (2200, 1)
        assert np.flatnonzero(report.vectors[:, 0]).max() < 1000
        largest_stack = 1200 * 1200 * 8  # its blocks and its vectors are both live at the peak
        assert peak < 2.2 * largest_stack

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


def _random_orbit_block(n_cycles: int):
    """The total's orbit block of a random (2,1,R) schedule, 4 (R + 1)
    states in one component, and the total's lower bound -alpha J2."""
    shape = ProblemShape(2, 1, n_cycles)
    schedule = random_schedule(shape, np.random.default_rng(3))
    constants = auto_constants(schedule)
    return assemble_orbit(total_parts(standard_parts(schedule), constants), shape), constants.lower_bound


@pytest.fixture(scope="module")
def orbit_block_1100():
    return _random_orbit_block(1100)


class TestShiftInvert:
    @pytest.mark.parametrize("k", [1, 8])
    def test_large_random_orbit_block_in_under_a_second(self, orbit_block_1100, levels_below, k):
        block, bound = orbit_block_1100
        assert block.shape == (4404, 4404)
        assert spectral._components(block)[1].tolist() == [4404]
        start = time.perf_counter()
        report = low_spectrum(block, k, bound)
        assert time.perf_counter() - start < 1.0
        assert report.method == "iterative"
        assert bound <= report.eigenvalues[0] == pytest.approx(-1421.32944821, abs=1e-6)
        # No level is skipped: exactly k lie below a point just above the k-th.
        assert levels_below(block, report.eigenvalues[-1] + 1e-6) == k

    @pytest.mark.parametrize("n_cycles", [64, 255])  # 260 and 1,024 states
    def test_random_orbit_blocks_match_dense(self, n_cycles):
        block, bound = _random_orbit_block(n_cycles)
        assert block.shape[0] > spectral.DENSE_THRESHOLD
        dense = np.linalg.eigvalsh(block.toarray())
        for k in (1, 8):
            report = low_spectrum(block, k, bound)
            assert report.method == "iterative"
            assert np.abs(report.eigenvalues - dense[:k]).max() <= 1e-10 * np.abs(dense[:k]).max()

    def test_gershgorin_bound_alone_gives_the_same_levels(self):
        block, bound = _random_orbit_block(64)
        with_bound, alone = low_spectrum(block, 8, bound), low_spectrum(block, 8)
        assert np.abs(with_bound.eigenvalues - alone.eigenvalues).max() <= 1e-10 * abs(bound)

    @staticmethod
    def _isolated_ground():
        # A 300-state path with one site pulled down: one level near -3,
        # the rest in [0, 4].
        mat = path_laplacian(300)
        mat[0, 0] -= 3.0
        return sparse(mat), np.linalg.eigvalsh(mat)

    def test_bound_above_ground_level_raises(self):
        mat, levels = self._isolated_ground()
        assert levels[0] < -2 and levels[1] > 0
        with pytest.raises(SpectralError, match="not proven positive definite"):
            low_spectrum(mat, 1, levels[0] + 1.0)
        with pytest.raises(SpectralError, match="no lower bound"):
            low_spectrum(mat, 2, 2.0)  # many levels below the shift

    def test_bound_below_ground_level_gives_the_levels(self):
        mat, levels = self._isolated_ground()
        report = low_spectrum(mat, 3, levels[0] - 0.5)
        assert report.method == "iterative"
        assert np.abs(report.eigenvalues - levels[:3]).max() <= 1e-10

    def test_byte_cap_counts_the_copy_of_u(self, monkeypatch):
        # The pivots are read from a copy of U, up to the factor's size again:
        # a cap between one and two factor sizes refuses the solve.
        block = sparse(path_laplacian(300))
        monkeypatch.setattr(spectral, "FACTOR_BYTE_CAP", 1)
        with pytest.raises(SpectralError, match="over the cap") as refused:
            low_spectrum(block, 1)
        held = int(re.search(r"holds ([\d,]+) bytes", str(refused.value))[1].replace(",", ""))
        monkeypatch.setattr(spectral, "FACTOR_BYTE_CAP", held * 3 // 2)
        with pytest.raises(SpectralError, match="over the cap"):
            low_spectrum(block, 1)
        monkeypatch.setattr(spectral, "FACTOR_BYTE_CAP", 2 * held)
        assert low_spectrum(block, 1).method == "iterative"


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

    def test_nan_is_refused(self):
        # NaN fails every "<= tol" test, where "> tol" would let it through.
        with pytest.raises(SpectralError, match="hermiticity: nan"):
            restrict(sparse(np.array([[1.0, np.nan], [np.nan, 2.0]])), [0, 1])


def _hermiticity_cases():
    a = sp.random(12, 12, density=0.3, random_state=4, dtype=complex).tocsr()
    hermitian = (a + a.conj().T).tocsr()
    perturbed = hermitian.copy()
    perturbed.data[5] += 0.25j
    stored_zero = hermitian.copy()
    stored_zero.data[[0, 3]] = 0
    with_nan = hermitian.copy()
    with_nan.data[7] = np.nan
    coo = hermitian.tocoo()
    row, col = next((r, c) for r, c in zip(coo.row, coo.col) if r != c)
    with_inf, inf_pair = hermitian.copy(), hermitian.copy()
    with_inf[row, col] = np.inf  # its mirror is finite: the residual is inf
    inf_pair[row, col] = inf_pair[col, row] = complex(np.inf, 1)  # inf - inf is NaN
    duplicates = sp.csr_matrix(  # (0, 1) holds 1 + 2 and (1, 0) holds 2 + 1: Hermitian
        (np.array([1, 2, 2, 1, 0.5]), np.array([1, 1, 0, 0, 1]), np.array([0, 2, 5])),
        shape=(2, 2),
    )
    # 256 < nnz <= 2^16: uint16 labels, the positions themselves.
    b = sp.random(300, 300, density=0.04, random_state=5, dtype=complex).tocsr()
    medium = (b + b.conj().T).tocsr()
    medium_perturbed = medium.copy()
    medium_perturbed.data[-3] += 1e-3
    # More than 2^16 entries in rows of at most 256: byte labels that wrap.
    n = 22_000
    off = np.arange(1, n) + 0.5j
    banded = sp.diags([off.conj(), np.arange(n, dtype=complex), off], [-1, 0, 1], format="csr")
    banded_perturbed = banded.copy()
    banded_perturbed.data[-5] += 2e-3j
    # Row and column 0 hold every column: positions, not byte labels.
    spokes = np.arange(2, n)
    rows, cols = np.r_[0 * spokes, spokes], np.r_[spokes, 0 * spokes]
    arrowhead = (banded + sp.csr_matrix((np.r_[spokes + 1j, spokes - 1j], (rows, cols)), shape=(n, n))).tocsr()
    arrow_perturbed = arrowhead.copy()
    arrow_perturbed.data[7] += 3e-3
    return {
        "hermitian": hermitian, "perturbed": perturbed, "asymmetric": a, "stored-zero": stored_zero,
        "nan": with_nan, "inf": with_inf, "inf-pair": inf_pair, "duplicates": duplicates,
        "real": hermitian.real.tocsr(), "medium": medium, "medium-perturbed": medium_perturbed,
        "banded": banded, "banded-perturbed": banded_perturbed,
        "arrowhead": arrowhead, "arrowhead-perturbed": arrow_perturbed,
    }


@pytest.mark.parametrize("name", list(_hermiticity_cases()))
def test_hermiticity_residual_matches_the_difference(name, monkeypatch):
    mat = _hermiticity_cases()[name]
    delta = mat - mat.conj().T
    want = 0.0 if delta.nnz == 0 else float(np.abs(delta.data).max())
    for chunk in (3, 2 ** 18):  # stored entries per block: several blocks, or one
        monkeypatch.setattr(spectral, "CHUNK", chunk)
        np.testing.assert_equal(hermiticity_residual(mat), want)


def _assert_components_match_csgraph(mat):
    """_components gives the labels and sizes of scipy's undirected connected
    components of mat's stored pattern; the reference is imported here only."""
    from scipy.sparse.csgraph import connected_components

    pattern = sp.csr_matrix((np.ones(mat.nnz), mat.indices, mat.indptr), shape=mat.shape)
    count, want = connected_components(pattern, directed=False)
    labels, sizes, rows = spectral._components(mat)
    np.testing.assert_array_equal(rows, np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)))
    np.testing.assert_array_equal(labels, want)
    np.testing.assert_array_equal(sizes, np.bincount(want, minlength=count))


def _path(order):
    """One-sided edges between consecutive entries of order."""
    n = len(order)
    return sp.csr_matrix((np.ones(n - 1), (order[:-1], order[1:])), shape=(n, n))


def _component_cases():
    rng = np.random.default_rng(23)
    cases = {}
    for size, density in [(2, 0.5), (17, 0.05), (60, 0.02), (200, 0.004), (200, 0.02), (500, 0.003)]:
        a = sp.random(size, size, density=density, random_state=rng, dtype=complex).tocsr()
        cases[f"one-sided-{size}-{density}"] = a
        cases[f"symmetric-{size}-{density}"] = (a + a.conj().T).tocsr()
    n = 2049
    cases["path-shuffled"] = _path(rng.permutation(n))
    zigzag = np.empty(n, dtype=np.int64)  # 0, n-1, 1, n-2, ...
    zigzag[0::2], zigzag[1::2] = np.arange((n + 1) // 2), np.arange(n - 1, (n - 1) // 2, -1)
    cases["path-zigzag"] = _path(zigzag)
    spokes = np.delete(np.arange(40), 17)
    cases["star"] = sp.csr_matrix((np.ones(39), (np.full(39, 17), spokes)), shape=(40, 40))
    cases["isolated"] = sp.csr_matrix((np.ones(3), ([2, 5, 9], [7, 3, 2])), shape=(12, 12))
    cases["empty"] = sp.csr_matrix((6, 6))
    cases["self-loops"] = sp.identity(7, format="csr")
    cases["one-by-one"] = sp.csr_matrix(np.array([[2.0]]))
    cases["one-by-one-empty"] = sp.csr_matrix((1, 1))
    return cases


@pytest.mark.parametrize("name", list(_component_cases()))
def test_components_match_csgraph(name):
    _assert_components_match_csgraph(_component_cases()[name])


@pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 8), (3, 1, 1), (3, 1, 2), (4, 1, 1)], ids=str)
def test_components_of_ladder_blocks_match_csgraph(shape):
    shape = ProblemShape(*shape)
    for schedule in (SweepSchedule(shape), random_schedule(shape, np.random.default_rng(3))):
        _assert_components_match_csgraph(sector_hamiltonian(schedule, auto_constants(schedule)).total)
        _assert_components_match_csgraph(hamiltonian.assemble_orbit([(build_h_comp_bond(schedule), 1.0)], shape))


class TestGap:
    def test_path_gap_closed_form(self):
        report = gap(sparse(path_laplacian(5)))
        assert report.resolved
        assert report.ground_degeneracy == 1
        assert report.gap == pytest.approx(2 * (1 - cos(pi / 5)), abs=1e-10)

    def test_next_value_is_lowest_level_outside_ground_cluster(self):
        # 1 and 1 + 5e-8 share a cluster; next_value is its lowest level, not its mean.
        report = gap(sparse(np.diag([0.0] * 6 + [1.0] * 3 + [1 + 5e-8] * 3)))
        assert report.resolved
        assert report.ground_degeneracy == 6
        assert report.next_value == 1.0
        assert report.gap == 1.0

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
    def test_exhaustive_scan_agrees(self, desk_identity_schedule, desk_shape, form_valid):
        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        legal_patterns = {d.labels for _, d in enumerate_legal_orbit(desk_shape)}
        expected = set()
        col_nnz = np.diff(op.matrix.tocsc().indptr)
        for idx in range(basis.config_dim):
            config = basis.config_at(idx)
            if not form_valid(config):
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


def test_spectral_is_the_only_eigensolver_module():
    package = Path(spectral.__file__).parent
    linalg_importers, spectral_sources, slot_edge_importers = set(), set(), set()
    from_spectral_in_hamiltonian = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                names = [base] + [base.rstrip(".") + "." + alias.name for alias in node.names]
            else:
                continue
            if any(n.startswith("scipy.sparse.linalg") for n in names):
                linalg_importers.add(path.stem)
            if any(n.endswith(".slot_edges") for n in names):
                slot_edge_importers.add(path.stem)
            if path.stem == "spectral":
                spectral_sources.update(names)
            if path.stem == "hamiltonian" and isinstance(node, ast.ImportFrom) and node.module == "spectral":
                from_spectral_in_hamiltonian.update(alias.name for alias in node.names)
    assert linalg_importers == {"spectral"}
    # The bond terms and the off-sector floor solve nothing (off_sector_floor
    # reads H_form's min-plus bound alone).
    assert from_spectral_in_hamiltonian == {"CHUNK", "hermiticity_residual"}
    # slot_edges states the clock rule once; only the bond terms read it directly.
    assert slot_edge_importers <= {"basis", "hamiltonian"}
    assert not any("hamiltonian" in n for n in spectral_sources)
    assert hamiltonian.hermiticity_residual is spectral.hermiticity_residual


def test_spectral_is_the_only_module_with_eigen_calls():
    # Every reported level comes from low_spectrum; the projection-lemma
    # check draws its own random matrices and diagonalizes them.
    allowed = {("promise", "verify_lemma_numeric"), ("promise", "_random_hermitian")}
    package = Path(spectral.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        if path.stem == "spectral":
            continue
        tree = ast.parse(path.read_text())
        owner = {child: (path.stem, node.name) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) for child in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("eigh", "eigvalsh", "eigsh"):
                    callers.add(owner.get(node, (path.stem, None)))
    assert callers <= allowed


def test_basis_is_the_only_module_with_layout_arithmetic():
    # SpinBasis states the site layout once (level, positions, sector_layout);
    # an `n_cycles + 1` anywhere else restates it.
    def adds_one_to_n_cycles(node):
        sides = (node.left, node.right) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) else ()
        return (any(isinstance(side, ast.Attribute) and side.attr == "n_cycles" for side in sides)
                and any(isinstance(side, ast.Constant) and side.value == 1 for side in sides))

    package = Path(spectral.__file__).parent
    modules = {path.stem for path in package.glob("*.py")
               if any(map(adds_one_to_n_cycles, ast.walk(ast.parse(path.read_text()))))}
    assert modules == {"basis"}
