import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from clockring import (
    CouplingConstants,
    Data,
    HEAD,
    ProblemShape,
    SpinBasis,
    SweepSchedule,
    assemble,
    assemble_part,
    assemble_total,
    build_h_comp_bond,
    build_h_form_bond,
    build_h_input_bond,
    build_h_output_bond,
    build_shift_operator,
    check_translation_invariance,
    export_triplets,
    orbit_label_walk,
    random_schedule,
    standard_parts,
)
from clockring import hamiltonian, spectral
from clockring.basis import config_from_labels, initial_config
from clockring.hamiltonian import BuildError, LocalTerm, RingOperator, parse_triplets
from clockring.spectral import hermiticity_residual, path_laplacian


def orbit_indices_fixed_bits(shape, bits, basis, head=0):
    return [
        basis.config_index(config_from_labels(head, labels, bits, shape))
        for labels in orbit_label_walk(shape)
    ]


def orbit_block(shape, basis, head=0):
    n = shape.n_qubits
    idx = []
    for labels in orbit_label_walk(shape):
        for q in range(2 ** n):
            bits = [(q >> (n - 1 - i)) & 1 for i in range(n)]
            idx.append(basis.config_index(config_from_labels(head, labels, bits, shape)))
    return idx


class TestCompBond:
    def test_restriction_is_2x2_laplacian(self, desk_identity_schedule, desk_shape):
        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        idx = orbit_indices_fixed_bits(desk_shape, "00", basis)
        sub = op.matrix[np.ix_(idx, idx)].toarray().real
        assert np.array_equal(sub, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_bond_term_hermitian_psd(self, desk_identity_schedule):
        term = build_h_comp_bond(desk_identity_schedule)
        assert term.hermiticity_residual() == 0.0
        eigs = np.linalg.eigvalsh(term.matrix.toarray())
        assert eigs.min() >= -1e-10

    def test_annihilates_uniform_orbit_superposition(self, desk_identity_schedule, desk_shape):
        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        idx = orbit_indices_fixed_bits(desk_shape, "00", basis)
        eta = np.zeros(basis.config_dim, dtype=complex)
        eta[idx] = 1 / np.sqrt(len(idx))
        assert np.linalg.norm(op.matrix @ eta) <= 1e-10

    def test_norm_within_bound(self, rng):
        # The checked bound, the largest absolute row sum, stays far below 10 T.
        shape = ProblemShape(3, 1, 3)
        term = build_h_comp_bond(random_schedule(shape, rng))
        assert abs(term.matrix).sum(axis=1).max() <= 6 < 10 * shape.total_steps

    def test_norm_check_needs_no_eigensolve(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("eigensolve in a bond-term build")

        monkeypatch.setattr(spectral, "low_spectrum", refuse)
        build_h_comp_bond(random_schedule(ProblemShape(3, 1, 2), rng))

    def test_random_gates_isospectral_to_laplacian(self, rng):
        shape = ProblemShape(3, 1, 2)
        basis = SpinBasis(shape)
        op = assemble_part(build_h_comp_bond(random_schedule(shape, rng)), shape)
        idx = orbit_block(shape, basis)
        sub = op.matrix[np.ix_(idx, idx)].toarray()
        got = np.sort(np.linalg.eigvalsh(sub))
        want = np.sort(np.repeat(np.linalg.eigvalsh(path_laplacian(5)), 2 ** 3))
        assert np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("dims", [(2, 1, 1), (2, 1, 4), (4, 1, 1), (3, 1, 3), (2, 1, 64)])
@pytest.mark.parametrize("sign", [1, -1])
def test_operator_norm_matches_dense_spectrum(dims, sign):
    # validate's operator-norm check is the largest absolute row sum, which
    # is at least the spectral norm of a Hermitian term, so the check is
    # never weaker than one on the spectrum.  Sign -1 makes the negative
    # side dominate: a check on signed row sums would pass it at any bound.
    # Only rows and columns holding entries are compared, the others only
    # add the eigenvalue 0: at (2,1,64), T+1 = 65, H_comp has bond dim 68,121.
    shape = ProblemShape(*dims)
    schedule = random_schedule(shape, np.random.default_rng(sum(dims)))
    parts = {"H_comp": build_h_comp_bond(schedule)} if dims == (2, 1, 64) else standard_parts(schedule)
    for name, term in parts.items():
        term = LocalTerm(term.local_dim, name, classes=term.classes, table=sign * term.table,
                         pairs=(term.rows, term.cols, sign * term.vals))
        live = np.union1d(*term.matrix.nonzero())
        block = term.matrix[live][:, live].toarray()
        bound = np.abs(block).sum(axis=1).max(initial=0.0)
        assert np.abs(np.linalg.eigvalsh(block)).max(initial=0.0) <= bound * (1 + 1e-12), name
        term.validate(max_norm=bound * (1 + 1e-12))
        if bound > 0:
            with pytest.raises(BuildError, match="norm exceeds"):
                term.validate(max_norm=bound * (1 - 1e-12))


class TestInputBond:
    def test_full_witness_register_means_zero(self):
        term = build_h_input_bond(ProblemShape(2, 2, 1))
        assert term.matrix.nnz == 0

    def test_ring_expectation_on_flipped_ancilla(self, desk_shape):
        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_input_bond(desk_shape), desk_shape)
        bad = basis.config_index(initial_config("01", 0, desk_shape))
        good = basis.config_index(initial_config("00", 0, desk_shape))
        diag = op.matrix.diagonal().real
        assert diag[bad] == 1.0
        assert diag[good] == 0.0

    def test_projector_norm_one(self, desk_shape):
        term = build_h_input_bond(desk_shape)
        assert term.hermiticity_residual() == 0.0
        eigs = np.linalg.eigvalsh(term.matrix.toarray())
        assert eigs.min() >= 0.0
        assert eigs.max() == pytest.approx(1.0, abs=0)


class TestFormBond:
    def test_every_legal_configuration_scores_minus_one(self):
        shape = ProblemShape(3, 1, 2)
        basis = SpinBasis(shape)
        op = assemble_part(build_h_form_bond(shape), shape)
        diag = op.matrix.diagonal().real
        for head in range(shape.n_sites):
            for labels in orbit_label_walk(shape):
                for bits in ("000", "101", "111"):
                    idx = basis.config_index(config_from_labels(head, labels, bits, shape))
                    assert diag[idx] == -1.0

    def test_minimum_is_minus_one_on_layout_sector_only(self):
        # the floor must be exactly the single-head ordered layouts:
        # (N+1) head sites x (R+1)^N label tuples x 2^N bit patterns
        shape = ProblemShape(2, 1, 1)
        op = assemble_part(build_h_form_bond(shape), shape)
        diag = op.matrix.diagonal().real
        assert diag.min() == -1.0
        assert int((diag == -1.0).sum()) == 3 * 4 * 4

    def test_adjacent_second_head_compensated(self, desk_shape):
        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_form_bond(desk_shape), desk_shape)
        config = (Data(0, 0, 1), HEAD, HEAD)
        val = op.matrix.diagonal().real[basis.config_index(config)]
        assert val >= 0.0
        assert val == 4.0  # -2 reward, +2 crowding on each misplaced head boundary

    def test_scrambled_positions_score(self):
        # positions (1,3,2) after the head: two increment violations plus a
        # head preceded by position 2 instead of N
        shape = ProblemShape(3, 1, 1)
        basis = SpinBasis(shape)
        op = assemble_part(build_h_form_bond(shape), shape)
        config = (HEAD, Data(0, 0, 1), Data(0, 0, 3), Data(0, 0, 2))
        assert op.matrix.diagonal().real[basis.config_index(config)] == 3.0

    def test_cycle_labels_do_not_matter(self):
        shape = ProblemShape(2, 1, 2)
        basis = SpinBasis(shape)
        op = assemble_part(build_h_form_bond(shape), shape)
        diag = op.matrix.diagonal().real
        for labels in ([0, 0], [1, 2], [2, 0]):
            idx = basis.config_index(config_from_labels(1, labels, "11", shape))
            assert diag[idx] == -1.0


    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 2, 3), (3, 1, 2), (4, 2, 1)],
                             ids=lambda s: "-".join(map(str, s)))
    def test_matches_the_per_pair_rules(self, shape):
        # The docstring's rules, pair by pair: the reward on a left head, +2
        # for a head not followed by position 1 or not preceded by position
        # N, +1 for a data pair that does not step the position by 1.
        shape = ProblemShape(*shape)
        basis = SpinBasis(shape)
        d = basis.local_dim
        want = np.zeros(d * d)
        for left, a in enumerate(basis.states()):
            for right, b in enumerate(basis.states()):
                value = 0.0
                if a is HEAD:
                    value -= 1.0
                    if not (isinstance(b, Data) and b.position == 1):
                        value += 2.0
                if b is HEAD and not (isinstance(a, Data) and a.position == shape.n_qubits):
                    value += 2.0
                if isinstance(a, Data) and isinstance(b, Data) and b.position != a.position + 1:
                    value += 1.0
                want[left * d + right] = value
        stored = np.flatnonzero(want)
        _assert_same_csr(build_h_form_bond(shape).matrix,
                         sp.csr_matrix((want[stored].astype(complex), (stored, stored)), shape=(d * d, d * d)))


class TestOutputBond:
    def test_fires_on_reject_bit_at_final_clock(self, desk_shape):
        basis = SpinBasis(desk_shape)
        op = assemble_part(build_h_output_bond(desk_shape), desk_shape)
        diag = op.matrix.diagonal().real
        final = orbit_label_walk(desk_shape)[-1]
        rejecting = basis.config_index(config_from_labels(0, final, "10", desk_shape))
        accepting = basis.config_index(config_from_labels(0, final, "00", desk_shape))
        initial = basis.config_index(initial_config("10", 0, desk_shape))
        assert diag[rejecting] == 1.0
        assert diag[accepting] == 0.0
        assert diag[initial] == 0.0


class TestAssembledPartsPSD:
    def test_penalty_parts_nonnegative(self, desk_shape, desk_identity_schedule):
        for name, term in standard_parts(desk_identity_schedule).items():
            if name == "H_form":
                continue  # carries the -1 head reward by design
            op = assemble_part(term, desk_shape, name)
            eigs = np.linalg.eigvalsh(op.matrix.toarray())
            assert eigs.min() >= -1e-9, name


def _csr_bytes(mat) -> int:
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def _traced_peak(build):
    """build()'s result and the peak of the memory it allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_same_csr(got, want):
    """Equal index dtypes and values, and values equal bit for bit."""
    for name in ("indptr", "indices"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def _seeded_total(shape):
    from clockring import auto_constants

    schedule = random_schedule(ProblemShape(*shape), np.random.default_rng(0))
    return assemble_total(schedule, auto_constants(schedule))


class TestAssembly:
    def test_zero_weights_give_zero_operator(self, desk_shape, desk_identity_schedule):
        term = build_h_comp_bond(desk_identity_schedule)
        op = assemble([(term, 0.0)], desk_shape)
        assert op.nnz == 0

    def test_nonzeros_merge_across_bonds(self, desk_shape, desk_identity_schedule):
        term = build_h_comp_bond(desk_identity_schedule)
        op = assemble_part(term, desk_shape)
        assert op.hermiticity_residual() == 0.0
        assert 0 < op.nnz <= 3 * term.matrix.nnz * 9

    def test_peak_memory_per_raw_triple(self):
        # A seeded (3,1,3) total: term entries x other sites x bonds makes
        # 1,990,000 raw triples.  64 B each leaves room for a packed code,
        # its key and its gathered value, not for full rows, cols and values
        # with a sort permutation on top (about 104 B).
        from clockring import auto_constants
        from clockring.hamiltonian import total_parts

        schedule = random_schedule(ProblemShape(3, 1, 3), np.random.default_rng(0))
        parts = total_parts(standard_parts(schedule), auto_constants(schedule))
        rest = SpinBasis(schedule.shape).config_dim // parts[0][0].dim
        raw = sum(term.matrix.nnz for term, _ in parts) * rest * schedule.shape.n_sites
        assert raw == 1_990_000
        _, peak = _traced_peak(lambda: assemble(parts, schedule.shape))
        assert peak < 64 * raw

    @pytest.mark.parametrize("shape", [(2, 1, 1), (3, 1, 2), (3, 1, 3), (2, 2, 2), (3, 2, 1)])
    def test_row_blocks_match_one_pass(self, shape, monkeypatch):
        # Blocks of one site-0 digit each against a single pass over all codes.
        from clockring import auto_constants
        from clockring.hamiltonian import total_parts

        schedule = random_schedule(ProblemShape(*shape), np.random.default_rng(sum(shape)))
        parts = total_parts(standard_parts(schedule), auto_constants(schedule))
        sum_runs, blocks = hamiltonian._sum_runs, []

        def counted(keys, ranks, table, n_cols, counts, *rest):
            blocks.append(counts.size)  # the block's rows
            return sum_runs(keys, ranks, table, n_cols, counts, *rest)

        monkeypatch.setattr(hamiltonian, "_sum_runs", counted)
        results = {}
        for chunk in (2 ** 62, 2 ** 8):
            monkeypatch.setattr(hamiltonian, "CHUNK", chunk)
            blocks.clear()
            results[chunk] = assemble(parts, schedule.shape).matrix
            assert sum(blocks) == results[chunk].shape[0]
            assert len(blocks) == (1 if chunk > 2 ** 8 else SpinBasis(schedule.shape).local_dim)
        whole, blocked = results.values()
        for name in ("indptr", "indices"):
            assert getattr(blocked, name).dtype == getattr(whole, name).dtype
            assert np.array_equal(getattr(blocked, name), getattr(whole, name))
        assert np.array_equal(blocked.data.view(np.int64), whole.data.view(np.int64))

    def test_runs_split_inside_one_digit(self, monkeypatch):
        # Below one site-0 digit's codes, each digit's sorted block is summed
        # in several runs, each cut where a row begins.
        from clockring import auto_constants
        from clockring.hamiltonian import total_parts

        schedule = random_schedule(ProblemShape(3, 1, 2), np.random.default_rng(6))
        parts = total_parts(standard_parts(schedule), auto_constants(schedule))
        finite, runs = hamiltonian._finite, []

        def counted(vals, what):
            if what == "a summed entry":  # once a run, on the run's entries
                runs.append(vals.size)
            return finite(vals, what)

        monkeypatch.setattr(hamiltonian, "_finite", counted)
        results = {}
        for chunk in (2 ** 62, 97):
            monkeypatch.setattr(hamiltonian, "CHUNK", chunk)
            runs.clear()
            results[chunk] = assemble(parts, schedule.shape).matrix
        assert len(runs) > 10 * SpinBasis(schedule.shape).local_dim
        assert max(runs) <= 97
        _assert_same_csr(results[97], results[2 ** 62])

    def test_entries_with_more_contributions_than_a_run(self, monkeypatch):
        # At (2,1,1) a diagonal entry collects contributions from several
        # terms on every bond; with CHUNK = 4 such an entry's run grows to
        # the end of its row.  The V0 sector and bond terms reduce the same way.
        from clockring import auto_constants
        from clockring.hamiltonian import assemble_orbit, total_parts

        schedule = random_schedule(ProblemShape(2, 1, 1), np.random.default_rng(7))
        parts = total_parts(standard_parts(schedule), auto_constants(schedule))
        sum_runs, most = hamiltonian._sum_runs, []

        def counted(keys, *rest):
            most.append(np.unique(keys, return_counts=True)[1].max(initial=0))
            return sum_runs(keys, *rest)

        monkeypatch.setattr(hamiltonian, "_sum_runs", counted)
        results = {}
        for chunk in (2 ** 62, 4):
            monkeypatch.setattr(hamiltonian, "CHUNK", chunk)
            most.clear()
            results[chunk] = (assemble(parts, schedule.shape).matrix, assemble_orbit(parts, schedule.shape),
                              build_h_comp_bond(schedule).matrix)
            assert max(most) > 4
        for got, want in zip(results[4], results[2 ** 62]):
            _assert_same_csr(got, want)

    def test_peak_memory_follows_the_output(self, monkeypatch):
        # With row blocks the sum never holds all contributions at once: the
        # peak is the output, sized once, plus one block, then the
        # Hermiticity check's transposed labels; one pass over all codes
        # peaks near 4.9 CSRs here.
        from clockring import auto_constants

        monkeypatch.setattr(hamiltonian, "CHUNK", 2 ** 16)
        schedule = random_schedule(ProblemShape(3, 1, 3), np.random.default_rng(0))
        constants = auto_constants(schedule)
        mat, peak = _traced_peak(lambda: assemble_total(schedule, constants).matrix)
        assert peak < 2.5 * _csr_bytes(mat)

    @pytest.mark.parametrize("shape, total, most_mib", [((3, 1, 3), False, 6), ((3, 1, 2), True, 4)])
    def test_ring_sum_holds_little_over_its_output(self, shape, total, most_mib):
        # Each block of about CHUNK = 2^16 codes allocates its own codes and
        # keys: 4.2 MiB over the 12.4 MiB CSR of a seeded (3,1,3) H_comp, and
        # 2.1 MiB over the 6.5 MiB of a seeded (3,1,2) total.  One scratch
        # array for the largest block of 2^18 codes held 16.3 and 11.6 MiB.
        from clockring import auto_constants
        from clockring.hamiltonian import _ring_sum, _weighted_entries, total_parts

        schedule = random_schedule(ProblemShape(*shape), np.random.default_rng(0))
        if total:
            parts = total_parts(standard_parts(schedule), auto_constants(schedule))
        else:
            parts = [(build_h_comp_bond(schedule), 1.0)]
        basis = SpinBasis(schedule.shape)
        entries = _weighted_entries(parts, basis.local_dim)
        mat, peak = _traced_peak(lambda: _ring_sum(*entries, basis))
        assert peak - _csr_bytes(mat) <= most_mib * 2 ** 20

    def test_hermiticity_check_of_h_comp_holds_little(self):
        # A seeded (3,1,3) H_comp, 12.4 MiB: the transposed byte labels and
        # one block of 2^16 stored entries take 4.8 MiB; blocks of 2^18 took 12.6.
        schedule = random_schedule(ProblemShape(3, 1, 3), np.random.default_rng(0))
        mat = assemble_part(build_h_comp_bond(schedule), schedule.shape).matrix
        residual, peak = _traced_peak(lambda: hermiticity_residual(mat))
        assert residual == 0.0
        assert peak <= 7 * 2 ** 20

    def test_hermiticity_check_holds_less_than_a_copy(self):
        # The check transposes position labels (a byte an entry here), not
        # the complex values; a transposed copy alone is about one CSR.
        from clockring import auto_constants

        schedule = random_schedule(ProblemShape(3, 1, 3), np.random.default_rng(0))
        mat = assemble_total(schedule, auto_constants(schedule)).matrix
        residual, peak = _traced_peak(lambda: hermiticity_residual(mat))
        assert residual == 0.0
        assert peak < 0.9 * _csr_bytes(mat)

    def test_hermiticity_labels_are_bytes(self, monkeypatch):
        # No row of the (3,1,3) total holds more than 256 entries, so the
        # transposed labels take a byte an entry; int32 positions took 0.63x.
        mat = _seeded_total((3, 1, 3)).matrix
        monkeypatch.setattr(spectral, "CHUNK", 2 ** 14)
        residual, peak = _traced_peak(lambda: hermiticity_residual(mat))
        assert residual == 0.0
        assert peak < 0.5 * _csr_bytes(mat)

    def test_translation_check_holds_less_than_the_output(self):
        # Blocks whose pattern matches are subtracted in place, and the
        # stored block is read, not copied; copies of both took 1.19x.
        op = _seeded_total((3, 1, 3))
        shift = build_shift_operator(op.shape)
        residual, peak = _traced_peak(lambda: check_translation_invariance(op, shift))
        assert residual == 0.0
        assert peak < 0.9 * _csr_bytes(op.matrix)

    def test_shift_build_bytes_per_configuration(self, monkeypatch):
        # int8 ones, int32 columns and indptr: 9 bytes; complex ones and
        # whole-space int64 temporaries took 32.
        shape = ProblemShape(3, 1, 3)
        monkeypatch.setattr(hamiltonian, "CHUNK", 2 ** 12)
        shift, peak = _traced_peak(lambda: build_shift_operator(shape))
        assert peak < 12 * shift.dim

    def test_sparse_build_peak_follows_the_output(self):
        # H_comp at (2,1,32), dim 2,352,637: the CSR is mostly its indptr, so
        # per-row counts in any wider dtype than the index would show here.
        shape = ProblemShape(2, 1, 32)
        op, peak = _traced_peak(lambda: assemble_part(build_h_comp_bond(SweepSchedule(shape)), shape))
        assert op.dim == 2_352_637
        assert peak < 2.5 * _csr_bytes(op.matrix)

    def test_dimension_cap(self):
        # (2,1,64) has d^3 = 17,779,581 configurations, over DIM_CAP: refused
        # before any allocation.
        constants = CouplingConstants(1, 1, 1, 1)
        with pytest.raises(BuildError, match="exceeds cap"):
            assemble_total(SweepSchedule(ProblemShape(2, 1, 64)), constants)

    def test_nan_terms_are_refused(self, desk_shape, monkeypatch):
        d = SpinBasis(desk_shape).local_dim
        nan = LocalTerm(d, "nan", classes=np.arange(d), table=np.full((d, d), np.nan))
        with pytest.raises(BuildError, match="hermiticity residual nan"):
            nan.validate()
        with pytest.raises(BuildError, match="weighted bond-term value is not finite"):
            assemble([(nan, 1.0)], desk_shape)
        monkeypatch.setattr(LocalTerm, "hermiticity_residual", lambda self: 0.0)
        with pytest.raises(BuildError, match="nan: norm exceeds 10"):
            nan.validate(max_norm=10)
        monkeypatch.setattr(RingOperator, "hermiticity_residual", lambda self: float("nan"))
        with pytest.raises(BuildError, match="hermiticity residual nan"):
            assemble([], desk_shape)

    @pytest.mark.parametrize("j2", [0.0, -1.0, float("inf"), float("nan")])
    def test_constants_must_be_finite_and_positive(self, j2):
        with pytest.raises(BuildError):
            CouplingConstants(1.0, j2, 1.0, 1.0)

    def test_history_energy_is_form_reward_only(self, desk_shape, desk_identity_schedule):
        from clockring import simulate_history

        constants = CouplingConstants(1.0, 2.0, 3.0, float(desk_shape.total_steps))
        total = assemble_total(desk_identity_schedule, constants)
        eta = simulate_history(desk_identity_schedule, "00").history_vector()
        energy = float(np.real(np.vdot(eta, total.matrix @ eta)))
        assert energy == pytest.approx(-constants.j2 * constants.alpha, abs=1e-12)


class TestShift:
    def test_rotates_configuration(self, desk_shape):
        basis = SpinBasis(desk_shape)
        shift = build_shift_operator(desk_shape)
        config = initial_config("10", 0, desk_shape)
        vec = np.zeros(basis.config_dim)
        vec[basis.config_index(config)] = 1.0
        moved = shift.matrix @ vec
        target = initial_config("10", 1, desk_shape)
        assert moved[basis.config_index(target)] == 1.0

    def test_period_and_unitarity(self, desk_shape):
        shift = build_shift_operator(desk_shape)
        s = shift.matrix
        eye = sp.eye(s.shape[0], format="csr", dtype=complex)
        assert (abs(s.conj().T @ s - eye)).nnz == 0
        power = eye
        for _ in range(desk_shape.n_sites):
            power = s @ power
        assert (abs(power - eye)).nnz == 0

    @pytest.mark.parametrize("shape", [(2, 1, 1), (3, 1, 1), (2, 2, 1)])
    def test_matches_the_coordinate_built_permutation(self, shape):
        shape = ProblemShape(*shape)
        basis = SpinBasis(shape)
        dim = basis.config_dim
        src = np.arange(dim, dtype=np.int64)
        want = sp.csr_matrix((np.ones(dim), (basis.translate(src, 1), src)), shape=(dim, dim), dtype=np.int8)
        got = build_shift_operator(shape).matrix
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestTranslationInvariance:
    def test_assembled_parts_commute_exactly(self, desk_shape, desk_identity_schedule):
        shift = build_shift_operator(desk_shape)
        for name, term in standard_parts(desk_identity_schedule).items():
            op = assemble_part(term, desk_shape, name)
            assert check_translation_invariance(op, shift) == 0.0

    def test_zero_operator(self, desk_shape, desk_identity_schedule):
        shift = build_shift_operator(desk_shape)
        zero = assemble([], desk_shape)
        assert check_translation_invariance(zero, shift) == 0.0

    def test_single_bond_perturbation_breaks_invariance(self, desk_shape, desk_identity_schedule):
        # The term on bond (0, 1) alone: its two digits lead, the rest follow.
        term = build_h_comp_bond(desk_identity_schedule)
        basis = SpinBasis(desk_shape)
        rest = basis.config_dim // term.dim
        coo = term.matrix.tocoo()
        rows = (coo.row.astype(np.int64)[:, None] * rest + np.arange(rest)).ravel()
        cols = (coo.col.astype(np.int64)[:, None] * rest + np.arange(rest)).ravel()
        vals = np.broadcast_to(coo.data[:, None], (coo.nnz, rest)).ravel()
        mat = sp.csr_matrix(
            (vals, (rows, cols)), shape=(basis.config_dim, basis.config_dim)
        )
        lopsided = RingOperator(desk_shape, mat, "one bond")
        shift = build_shift_operator(desk_shape)
        residual = check_translation_invariance(lopsided, shift)
        delta = shift.matrix @ mat - mat @ shift.matrix
        assert residual > 0.0
        assert residual == np.abs(delta.data).max()

    def test_shift_must_be_a_unit_permutation(self, desk_shape, desk_identity_schedule):
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        shift = build_shift_operator(desk_shape).matrix
        eye = sp.eye(shift.shape[0], format="csr", dtype=complex)
        repeated, negative, past_the_end = shift.copy(), shift.copy(), shift.copy()
        repeated.indices[1] = repeated.indices[0]  # one 1 per row, but a column twice
        negative.indices[0] = -1
        past_the_end.indices[0] = shift.shape[0]
        for bad in (2 * shift, shift + eye, sp.csr_matrix(shift.shape, dtype=complex),
                    repeated, negative, past_the_end):
            with pytest.raises(BuildError, match="unit permutation"):
                check_translation_invariance(op, RingOperator(desk_shape, bad, "bad"))

    def test_random_schedule_total_commutes(self, rng):
        shape = ProblemShape(2, 1, 2)
        schedule = random_schedule(shape, rng)
        constants = CouplingConstants(1.0, 5.0, 2.0, float(shape.total_steps))
        total = assemble_total(schedule, constants)
        shift = build_shift_operator(shape)
        assert check_translation_invariance(total, shift) == 0.0

    @pytest.mark.parametrize("chunk", [2 ** 20, 2 ** 9, 16])
    def test_row_blocks_match_the_permuted_difference(self, chunk, monkeypatch):
        shape = ProblemShape(2, 1, 2)
        schedule = random_schedule(shape, np.random.default_rng(5))
        total = assemble_total(schedule, CouplingConstants(1.0, 5.0, 2.0, float(shape.total_steps)))
        shift = build_shift_operator(shape)
        p = shift.matrix.indices
        bumped = total.matrix.copy()
        bumped.data[[7, 300]] += [1e-3, 2.5e-3j]
        dropped = total.matrix.copy()  # one entry gone: the pattern changes
        dropped.data[11] = 0
        dropped.eliminate_zeros()
        # One shift orbit of entries, each stored as two duplicates that sum to
        # 3: invariant, though entry by entry 1, 2 meets 2, 1.
        orbit = [(5, 17)]
        while len(orbit) < shape.n_sites:
            orbit.append((p[orbit[-1][0]], p[orbit[-1][1]]))
        rows, cols = np.repeat(np.array(orbit).T, 2, axis=1)
        by_row = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=total.dim))))
        values = np.array([1.0, 2, 2, 1, 1, 2])[by_row]
        split = sp.csr_matrix((values, cols[by_row], indptr), shape=total.matrix.shape)
        # Each row of one shift orbit holds the same 100 values alternating
        # between two columns: invariant, and each column's sum depends on the
        # order its entries meet, which sorting a row's columns may change.
        walk = [np.array([5, 17, 21])]
        while len(walk) < shape.n_sites:
            walk.append(p[walk[-1]])
        walk = np.array(sorted(map(tuple, walk)))
        alternate = np.where(np.arange(100) % 2, walk[:, 1:2], walk[:, 2:3]).ravel()
        counts = np.bincount(walk[:, 0], minlength=total.dim) * 100
        interleaved = sp.csr_matrix(
            (np.tile(np.random.default_rng(0).normal(size=100), len(walk)) + 0j, alternate, np.r_[0, np.cumsum(counts)]),
            shape=total.matrix.shape,
        )
        monkeypatch.setattr(hamiltonian, "CHUNK", chunk)
        residuals = []
        for mat in (total.matrix, bumped, dropped, split, interleaved):
            want = float(np.abs((mat[p][:, p] - mat).data).max(initial=0.0))
            residuals.append(check_translation_invariance(RingOperator(shape, mat), shift))
            assert residuals[-1] == want
        assert residuals[0] == residuals[3] == residuals[4] == 0.0 and min(residuals[1:3]) > 0.0


class TestExport:
    def test_header_and_round_trip(self, desk_shape, desk_identity_schedule):
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        text = export_triplets(op)
        head = text.splitlines()[0]
        assert head == f"% dim 729 nnz {op.nnz} hermitian"
        back = parse_triplets(text)
        assert (abs(back - op.matrix)).nnz == 0

    def test_truncated_file_rejected(self, desk_shape, desk_identity_schedule):
        op = assemble_part(build_h_comp_bond(desk_identity_schedule), desk_shape)
        lines = export_triplets(op).splitlines()
        with pytest.raises(BuildError):
            parse_triplets("\n".join(lines[:-1]))

    @pytest.mark.parametrize(
        "text",
        ["% dim 2", "%", "% dim 2 nnz 1\n0 1 1.0", "% dim 2 nnz 1\n0 x 1 0",
         "% dim 2 nnz 1\n0 2 1 0", "% dim two nnz 1\n", "% dim -1 nnz 0"],
    )
    def test_malformed_text_names_the_line(self, text):
        with pytest.raises(BuildError, match="line|header"):
            parse_triplets(text)

    def test_tokens_past_loadtxt_are_read_line_by_line(self):
        # int and float read underscores and indices past int64, which the
        # one-pass reader refuses; the lines are then read one by one.
        assert parse_triplets("% dim 12 nnz 1\n1_0 3 0.5 -1_0\n")[10, 3] == 0.5 - 10j
        with pytest.raises(BuildError, match=r"line 3: index out of range 0\.\.11"):
            parse_triplets("% dim 12 nnz 2\n0 0 1 0\n" + "9" * 30 + " 0 1 0\n")

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 5),
        entries=st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.complex_numbers(allow_nan=False, allow_infinity=False),
            max_size=12,
        ),
    )
    def test_round_trip_is_exact(self, dim, entries):
        dense = np.zeros((dim, dim), dtype=complex)
        for (r, c), v in entries.items():
            if r < dim and c < dim:
                dense[r, c] = v
        op = RingOperator(ProblemShape(2, 1, 1), sp.csr_matrix(dense))
        back = parse_triplets(export_triplets(op))
        assert back.shape == op.matrix.shape
        assert (back != op.matrix).nnz == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["%", "dim", "nnz", "hermitian", "0", "1", "2", "-1",
                                 "1.5", "nan", "1e400", "9" * 30, "x", ""])
                | st.text(max_size=3),
                max_size=6,
            ).map(" ".join),
            max_size=5,
        ).map("\n".join)
    )
    def test_junk_raises_only_build_error(self, text):
        try:
            parse_triplets(text)
        except BuildError:
            pass
