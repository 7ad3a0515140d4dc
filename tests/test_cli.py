import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from clockring import cli, hamiltonian
from clockring.cli import main
from clockring.circuit import ProblemShape, format_circuit_text, schedule_from_placements
from clockring.hamiltonian import parse_triplets, standard_parts


IDENTITY_N2 = "shape 2 1 1\n"


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "idc.txt"
    path.write_text(IDENTITY_N2)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_header_values_and_residuals(self, capsys, circuit_file):
        code, out, _ = run_cli(capsys, "compile", "--circuit", circuit_file, "--parts", "H_comp")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dim 729"
        assert lines[2] == "hermiticity_residual 0"
        assert lines[3] == "translation_residual 0"

    def test_export_file_round_trips(self, capsys, circuit_file, tmp_path):
        out_path = tmp_path / "op.txt"
        code, out, _ = run_cli(
            capsys, "export", "--circuit", circuit_file, "--parts", "H_comp",
            "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("% dim 729 nnz ")
        assert text.splitlines()[0].endswith("hermitian")
        parse_triplets(text)

    def test_malformed_gate_line_fails_with_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("shape 2 1 1\ngate 1 1 broken\n")
        code, _, err = run_cli(capsys, "compile", "--circuit", str(path))
        assert code == 1
        assert "line 2" in err

    def test_non_unitary_gate_rejected(self, capsys, tmp_path):
        entries = " ".join("2,0" if i % 5 == 0 else "0,0" for i in range(16))
        path = tmp_path / "bad.txt"
        path.write_text(f"shape 2 1 1\ngate 1 1 {entries}\n")
        code, _, err = run_cli(capsys, "compile", "--circuit", str(path))
        assert code == 1
        assert "not unitary" in err

    def test_all_parts_built_once(self, capsys, circuit_file, monkeypatch):
        calls = []

        def counted(schedule):
            calls.append(schedule)
            return standard_parts(schedule)

        monkeypatch.setattr(cli, "standard_parts", counted)
        monkeypatch.setattr(hamiltonian, "standard_parts", counted)
        code, _, _ = run_cli(capsys, "compile", "--circuit", circuit_file)
        assert code == 0
        assert len(calls) == 1

    def test_dimension_cap_guard(self, capsys):
        # (2,1,64) has d^3 = 17,779,581 configurations, over the fixed cap.
        code, _, err = run_cli(capsys, "compile", "--n", "2", "--r", "64")
        assert code == 1
        assert "cap" in err


class TestOracleCommand:
    def test_accepting_witness(self, capsys, circuit_file):
        code, out, _ = run_cli(capsys, "oracle", "--circuit", circuit_file, "--witness", "00")
        assert code == 0
        rows = dict(line.split()[:2] for line in out.splitlines())
        assert rows["H_output"] == "0"
        assert rows["H_comp"] == "0"
        assert rows["p_reject"] == "0"

    def test_rejecting_witness(self, capsys, circuit_file):
        code, out, _ = run_cli(capsys, "oracle", "--circuit", circuit_file, "--witness", "10")
        rows = dict(line.split()[:2] for line in out.splitlines())
        assert rows["H_output"] == "0.5"
        assert rows["p_reject"] == "1"
        assert rows["p_reject_over_steps"] == "0.5"

    def test_history_is_simulated_once(self, capsys, monkeypatch, tmp_path):
        # The rows and p_reject read one simulated history; p_reject is the
        # bits a separate simulation gives.
        from clockring import oracle, promise
        from clockring.circuit import random_schedule

        schedule = random_schedule(ProblemShape(3, 2, 2), np.random.default_rng(5))
        path = tmp_path / "rand.txt"
        path.write_text(format_circuit_text(schedule))
        history = oracle.simulate_history(schedule, "101")
        rows = promise.orbit_expectations(history, standard_parts(schedule), hamiltonian.orbit_keys(schedule.shape))
        p_rej = oracle.reject_probability(schedule, "101")
        steps = schedule.shape.total_steps + 1
        want = oracle.format_expectation_report(rows) + f"p_reject {p_rej:.12g}\np_reject_over_steps {p_rej / steps:.12g}\n"
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return history

        for module in (cli, oracle, promise):
            monkeypatch.setattr(module, "simulate_history", counted)
        code, out, _ = run_cli(capsys, "oracle", "--circuit", str(path), "--witness", "101")
        assert (code, len(calls), out) == (0, 1, want)


class TestSpectrumCommand:
    def test_orbit_restricted_spectrum(self, capsys, circuit_file):
        code, out, _ = run_cli(
            capsys, "spectrum", "--circuit", circuit_file, "--orbit-restrict",
            "--k", "4", "--frozen-scan",
        )
        assert code == 0
        assert out.splitlines()[0] == "frozen_count 24"
        assert out.splitlines()[1].startswith("eig 0 ")

    def test_full_spectrum_runs(self, capsys, circuit_file):
        code, out, _ = run_cli(capsys, "spectrum", "--circuit", circuit_file, "--k", "3")
        assert code == 0
        assert len([l for l in out.splitlines() if l.startswith("eig")]) == 3

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2)],
                             ids=lambda s: "-".join(map(str, s)))
    def test_frozen_count_is_the_full_space_count(self, capsys, shape):
        from clockring.circuit import ProblemShape
        from clockring.spectral import frozen_config_indices

        n, _, r = shape
        code, out, _ = run_cli(capsys, "spectrum", "--n", str(n), "--r", str(r),
                               "--orbit-restrict", "--k", "1", "--frozen-scan")
        assert code == 0
        want = len(frozen_config_indices(ProblemShape(*shape)))
        assert out.splitlines()[0] == f"frozen_count {want}"

    def test_frozen_scan_past_int64_config_indices(self, capsys):
        # d^13 = 9.4e21 configurations at (12,1,1); the orbit block has 49,152.
        code, out, _ = run_cli(capsys, "spectrum", "--n", "12", "--r", "1",
                               "--orbit-restrict", "--frozen-scan")
        assert code == 0
        assert out.startswith("frozen_count ")

    def test_frozen_scan_is_capped_before_anything_is_built(self, capsys, monkeypatch):
        # The touched patterns' bound, 135,992,101 at (4,1,300), is past
        # DIM_CAP; the orbit block is small.
        from clockring import basis

        def refuse(*args, **kwargs):
            raise AssertionError("built past the frozen-scan cap")

        for name in ("SweepSchedule", "standard_parts"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(basis, "frozen_patterns", refuse)
        code, out, err = run_cli(capsys, "spectrum", "--n", "4", "--r", "300",
                                 "--orbit-restrict", "--frozen-scan")
        assert (code, out) == (1, "")
        assert err.startswith("error: frozen-scan") and len(err.splitlines()) == 1
        assert f"exceeds cap {hamiltonian.DIM_CAP}" in err

    def test_no_full_space_build(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("full-space build")

        for module in (hamiltonian, cli):
            monkeypatch.setattr(module, "assemble", refuse)
            monkeypatch.setattr(module, "assemble_total", refuse)
        code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--k", "8")
        assert code == 0
        assert len(out.splitlines()) == 8
        argv = ("verify", "--mode", "decide", "--n", "2", "--r", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == PINNED_REPORTS[argv]

    def test_spectrum_and_decide_past_the_dim_cap(self, capsys):
        # (5,1,1) has 85,766,121 configurations; V0 has 1,024.
        code, out, _ = run_cli(capsys, "verify", "--mode", "decide", "--n", "5")
        assert code == 0
        lambda0 = out.split()[3]
        code, out, _ = run_cli(capsys, "spectrum", "--n", "5", "--k", "12")
        assert code == 0
        lines = [line.split() for line in out.splitlines()]
        assert [line[1] for line in lines] == [str(i) for i in range(12)]
        assert lines[0][2] == lambda0
        # Every V0 level appears once per head translate, in one cluster.
        for first in range(0, 12, 6):
            assert len({(line[2], line[4]) for line in lines[first:first + 6]}) == 1

    def test_k_beyond_the_certified_levels(self, capsys):
        # V0 at (2,1,1) has 16 states, so H has 48 certifiable levels.
        code, _, err = run_cli(capsys, "spectrum", "--n", "2", "--k", "49")
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_k_beyond_the_orbit_block(self, capsys):
        # The (2,1,1) orbit block has 4 (T+1) = 8 states.
        code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--orbit-restrict", "--k", "8")
        assert code == 0 and len(out.splitlines()) == 8
        code, out, err = run_cli(capsys, "spectrum", "--n", "2", "--orbit-restrict", "--k", "100")
        assert code == 1 and out == ""
        assert err == "error: k = 100 out of range 1..8\n"

    @pytest.mark.parametrize("argv", [("spectrum", "--n", "2", "--k", "3"),
                                      ("verify", "--mode", "decide", "--n", "2")], ids=" ".join)
    def test_level_above_the_floor_is_a_one_line_error(self, capsys, monkeypatch, argv):
        from clockring import promise

        monkeypatch.setattr(promise, "off_sector_floor", lambda *args: -1e9)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "off-sector floor" in err
        assert len(err.splitlines()) == 1


class TestGapscan:
    def test_table_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "gapscan", "--tplus", "3,5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "T gap scaled_gap"
        t2 = lines[1].split()
        assert t2[0] == "2"
        assert float(t2[1]) == pytest.approx(2 * (1 - np.cos(np.pi / 3)), abs=1e-9)
        t4 = lines[2].split()
        assert float(t4[2]) == pytest.approx(
            2 * (1 - np.cos(np.pi / 5)) * 25, abs=1e-9
        )


    def test_gaps_match_the_path_gap(self, capsys):
        from clockring.spectral import path_gap

        sizes = (17, 33, 65, 129, 257)
        code, out, _ = run_cli(capsys, "gapscan", "--tplus", ",".join(map(str, sizes)))
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == [t_plus_1 - 1 for t_plus_1 in sizes]
        for t_plus_1, (_, gap_value, scaled) in zip(sizes, rows):
            want = path_gap(t_plus_1)
            assert abs(float(gap_value) - want) <= 1e-9
            assert abs(float(scaled) - want * t_plus_1 ** 2) <= 1e-9 * t_plus_1 ** 2

    def test_merged_first_excited_level_is_one_error_line(self, capsys, monkeypatch):
        # A cluster tolerance above the T+1 = 33 path gap puts excited levels
        # in the ground cluster; T+1 = 9, whose gap is larger, still prints.
        from clockring import spectral

        monkeypatch.setattr(spectral, "CLUSTER_RTOL", spectral.path_gap(33))
        code, out, err = run_cli(capsys, "gapscan", "--tplus", "9,33")
        assert code == 1
        assert out == "T gap scaled_gap\n8 0.120614758428 9.76979543268\n"
        assert err.startswith("error: T = 32: ground cluster of ")
        assert len(err.splitlines()) == 1


class TestVerify:
    def test_desk_pair_separation(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mode", "separation", "--desk-pair")
        assert code == 0
        sep_line = [l for l in out.splitlines() if l.startswith("separation")][0]
        assert float(sep_line.split()[1]) > 0

    def test_decide_mode(self, capsys, circuit_file):
        code, out, _ = run_cli(
            capsys, "verify", "--mode", "decide", "--circuit", circuit_file,
            "--a", "-1000", "--b", "0",
        )
        assert code == 0
        assert out.startswith("verdict ")

    def test_separation_requires_two_circuits(self, capsys, circuit_file):
        code, _, err = run_cli(capsys, "verify", "--mode", "separation", "--circuit", circuit_file)
        assert code == 1
        assert "circuit-no" in err

    @pytest.mark.parametrize("r", ["1", "2"])
    def test_desk_pair_reads_r(self, capsys, tmp_path, r):
        # The (2,1,R) pair given as circuit files prints the same bytes; at
        # R = 1 they are the pinned report.
        from clockring.circuit import SweepSchedule, force_reject_gate

        files = []
        for name, schedule in (("yes", SweepSchedule(ProblemShape(2, 1, int(r)))),
                               ("no", schedule_from_placements([(1, 1, force_reject_gate())], 2, 1, int(r)))):
            files.append(tmp_path / f"{name}.txt")
            files[-1].write_text(format_circuit_text(schedule))
        code, want, _ = run_cli(capsys, "verify", "--mode", "separation",
                                "--circuit", str(files[0]), "--circuit-no", str(files[1]))
        assert code == 0
        pinned = PINNED_REPORTS[("verify", "--mode", "separation", "--desk-pair")]
        assert (want == pinned) == (r == "1")
        for argv in (("--r", r), ("--n", "2", "--m", "1", "--r", r)):
            assert run_cli(capsys, "verify", "--mode", "separation", "--desk-pair", *argv) == (0, want, "")

    @pytest.mark.parametrize("argv", [
        ("verify", "--mode", "separation", "--desk-pair", "--n", "3"),
        ("verify", "--mode", "separation", "--desk-pair", "--m", "2"),
        ("verify", "--mode", "separation", "--desk-pair", "--circuit", "CIRCUIT"),
        ("verify", "--mode", "separation", "--desk-pair", "--circuit-no", "CIRCUIT"),
        ("verify", "--mode", "decide", "--n", "2", "--desk-pair"),
        ("verify", "--mode", "decide", "--n", "2", "--circuit-no", "CIRCUIT"),
        ("verify", "--mode", "decide", "--circuit", "CIRCUIT", "--n", "2"),
        ("verify", "--mode", "separation", "--circuit", "CIRCUIT", "--circuit-no", "CIRCUIT", "--r", "2"),
        ("verify", "--mode", "separation", "--desk-pair", "--a", "5", "--b", "1"),
        ("verify", "--mode", "separation", "--circuit", "CIRCUIT", "--circuit-no", "CIRCUIT", "--b", "0.5"),
        ("compile", "--circuit", "CIRCUIT", "--n", "2"),
        ("oracle", "--circuit", "CIRCUIT", "--m", "1"),
        ("spectrum", "--circuit", "CIRCUIT", "--r", "1"),
        ("export", "--circuit", "CIRCUIT", "--r", "1", "--out", "UNWRITTEN"),
    ], ids=" ".join)
    def test_source_flags_it_would_ignore_are_refused(self, capsys, circuit_file, tmp_path, argv):
        out_path = tmp_path / "op.txt"
        argv = [{"CIRCUIT": circuit_file, "UNWRITTEN": str(out_path)}.get(a, a) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out_path.exists()


class TestLemmaCommand:
    def test_no_violations(self, capsys):
        code, out, _ = run_cli(capsys, "lemma", "--trials", "200", "--seed", "1")
        assert code == 0
        assert "violations 0" in out


class TestErrors:
    def test_missing_circuit_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "spectrum", "--circuit", str(tmp_path / "absent.txt"))
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_k_zero(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n", "2", "--k", "0")
        assert (code, out, err) == (1, "", "error: k = 0 out of range 1..48\n")

    def test_k_negative(self, capsys):
        # The given k, and the 3 x 16 levels H certifies at (2,1,1), not the
        # V0 level count a negative k would be turned into.
        code, out, err = run_cli(capsys, "spectrum", "--n", "2", "--k", "-3")
        assert (code, out, err) == (1, "", "error: k = -3 out of range 1..48\n")

    @pytest.mark.parametrize("witness", ["1x", "0 ", "-1"])
    def test_witness_outside_01(self, capsys, witness):
        code, out, err = run_cli(capsys, "oracle", "--n", "2", "--witness", witness)
        assert (code, out, err) == (1, "", "error: need a bit string of length 2\n")

    @pytest.mark.parametrize("argv,message", [
        (("spectrum", "--n", "2", "--r", "0"), "error: n_cycles must be >= 1\n"),
        (("spectrum", "--n", "2", "--m", "0"), "error: input_len must satisfy 1 <= M <= N\n"),
        (("spectrum", "--n", "2", "--j2", "inf", "--k", "2"),
         "error: coupling constants must be finite and strictly positive\n"),
        (("spectrum", "--n", "2", "--alpha", "nan", "--k", "2"),
         "error: coupling constants must be finite and strictly positive\n"),
        (("compile", "--n", "2", "--j1", "-1", "--j2", "1", "--alpha", "1"),
         "error: coupling constants must be finite and strictly positive\n"),
        (("compile", "--n", "2", "--j1", "1e200"), "error: J overflows at ||H1|| = 3e+200\n"),
        # Each trial holds dim x dim arrays: refused before any of them.
        (("lemma", "--dim", "4097"), "error: dim 4097: dim^2 = 16785409 exceeds cap 16777216\n"),
    ], ids=["r0", "m0", "j2-inf", "alpha-nan", "j1-negative", "j1-overflow", "lemma-dim-4097"])
    def test_bad_shape_or_constant(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("argv", [
        ("lemma", "--dim", "1"),
        ("lemma", "--trials", "-3"),
        ("gapscan", "--tplus", "1"),
        ("gapscan", "--tplus", "abc"),
        ("gapscan", "--tplus", "3,,5"),
        ("gapscan", "--tplus", "3,5,1"),
    ], ids=" ".join)
    def test_bad_lemma_or_gapscan_values(self, capsys, argv):
        # The error names what the command needs, and gapscan prints no header first.
        code, out, err = run_cli(capsys, *argv)
        need = "trials >= 1 and dim >= 2" if argv[0] == "lemma" else "--tplus needs"
        assert code == 1 and out == ""
        assert err.startswith("error: ") and need in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("compile", "--n", "2", "--j2", "1e308", "--alpha", "1"),
        ("compile", "--n", "2", "--j2", "1e300", "--alpha", "1e300"),
        ("compile", "--n", "2", "--j2", "1e307", "--alpha", "4"),
        ("spectrum", "--n", "2", "--j2", "1e308", "--alpha", "1", "--k", "2"),
        ("verify", "--mode", "decide", "--n", "2", "--j2", "1e308", "--alpha", "1"),
        ("spectrum", "--n", "2", "--j2", "1e307", "--alpha", "3", "--k", "2"),
        ("verify", "--mode", "separation", "--desk-pair", "--j2", "1e307", "--alpha", "3"),
    ], ids=["compile-inf", "compile-nan", "compile-sum-inf", "spectrum", "decide",
            "spectrum-norm-inf", "separation-norm-inf"])
    def test_overflowing_weights(self, capsys, argv):
        # A weighted value, a summed entry or the solver's norm estimate past
        # the float range is an error, with no numpy warning and no NaN report.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "not finite" in err and len(err.splitlines()) == 1

    def test_part_named_twice(self, capsys):
        code, out, err = run_cli(capsys, "compile", "--n", "2", "--parts", "H_comp,H_comp")
        assert (code, out, err) == (1, "", "error: unknown or repeated part 'H_comp'\n")

    def test_cap_error_does_not_advise_orbit_mode(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--n", "2", "--r", "64")
        assert code == 1
        assert err.startswith("error: ") and "exceeds cap" in err
        assert "orbit" not in err

    def test_memory_exhaustion_is_a_one_line_error(self, capsys, monkeypatch):
        def exhaust(schedule):
            raise MemoryError("Unable to allocate 11.9 GiB")

        monkeypatch.setattr(cli, "build_h_comp_bond", exhaust)
        code, _, err = run_cli(capsys, "gapscan", "--tplus", "5")
        assert code == 1
        assert err == "error: out of memory: Unable to allocate 11.9 GiB\n"


class TestOrbitBlockPastTheCap:
    # (2,1,64) has d^3 = 17,779,581 configurations, above the 2^24 cap; its
    # orbit block has 4 (T+1) = 260.
    def test_orbit_restricted_spectrum_is_the_path_laplacian(self, capsys):
        from clockring.spectral import path_laplacian_eigenvalues

        code, out, _ = run_cli(
            capsys, "spectrum", "--n", "2", "--r", "64", "--orbit-restrict", "--k", "260",
            "--j2", "1", "--alpha", "1",
        )
        assert code == 0
        values = np.array([float(line.split()[2]) for line in out.splitlines()])
        assert values.size == 260
        # Witness bits 00 carry no penalty: that chain is -alpha j2 + j2 L.
        for want in path_laplacian_eigenvalues(65) - 1.0:
            assert np.abs(values - want).min() <= 1e-9

    def test_gapscan_past_the_cap(self, capsys):
        from clockring.spectral import path_gap

        code, out, _ = run_cli(capsys, "gapscan", "--tplus", "65")
        assert code == 0
        total, gap_value, _ = out.splitlines()[1].split()
        assert total == "64"
        assert float(gap_value) == pytest.approx(path_gap(65), rel=1e-9)

    def test_factor_over_the_byte_cap_is_one_error_line(self, capsys, monkeypatch):
        # T+1 = 300: four 300-state paths, each above the dense cut.
        from clockring import spectral

        monkeypatch.setattr(spectral, "FACTOR_BYTE_CAP", 1024)
        code, out, err = run_cli(capsys, "gapscan", "--tplus", "300")
        assert code == 1 and out == "T gap scaled_gap\n"
        assert err.startswith("error: the LU factor of a 300-state block holds ")
        assert len(err.splitlines()) == 1

    def test_gapscan_2049_peak_stays_small(self):
        # Four 2,049-state paths by shift-invert; a dense stack of them took 770 MB.
        # The child reads its own VmHWM: ru_maxrss carries the parent's peak
        # over vfork/exec, so it would read pytest's size, not the child's.
        script = ("import sys\n"
                  "from clockring.cli import main\n"
                  "code = main(['gapscan', '--tplus', '2049'])\n"
                  "peak = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
                  "print(peak.split()[1], file=sys.stderr)\n"
                  "sys.exit(code)\n")
        done = _fresh_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines()[1].startswith("2048 2.3508003327")
        assert int(done.stderr.decode()) < 200 * 1024  # VmHWM is in kB

    def test_oracle_builds_no_full_space_vector_or_operator(self, capsys, monkeypatch):
        from clockring.oracle import HistoryState

        def refuse(*args, **kwargs):
            raise AssertionError("full-space build")

        monkeypatch.setattr(hamiltonian, "assemble", refuse)
        monkeypatch.setattr(HistoryState, "history_vector", refuse)
        code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--r", "2", "--witness", "100")
        assert code == 0
        assert out == PINNED_REPORTS[("oracle", "--n", "3", "--r", "2", "--witness", "100")]

    @pytest.mark.parametrize("argv,dim", [
        (("oracle", "--n", "24"), 24 * 2 ** 24),
        (("gapscan", "--tplus", "5000000"), 5_000_000 * 4),
        (("gapscan", "--tplus", "3,5000000"), 5_000_000 * 4),
        (("spectrum", "--n", "24", "--orbit-restrict"), 24 * 2 ** 24),
    ], ids=["oracle-n24", "gapscan-5000000", "gapscan-3-then-5000000", "spectrum-orbit-n24"])
    def test_orbit_block_over_the_cap_is_refused_first(self, capsys, monkeypatch, argv, dim):
        # (T+1) 2^N orbit states over DIM_CAP: one error line, before any
        # schedule, history simulation or bond term (or any gapscan row).
        from clockring import oracle, promise

        def refuse(*args, **kwargs):
            raise AssertionError("built before the orbit cap check")

        monkeypatch.setattr(cli, "SweepSchedule", refuse)
        for module in (cli, hamiltonian, promise):
            monkeypatch.setattr(module, "standard_parts", refuse)
        for module in (cli, hamiltonian):
            monkeypatch.setattr(module, "build_h_comp_bond", refuse)
        for module in (cli, oracle, promise):
            monkeypatch.setattr(module, "simulate_history", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: orbit block dim {dim} exceeds cap {hamiltonian.DIM_CAP}\n"

    def test_oracle_at_large_r_builds_only_the_orbit_block(self, capsys, monkeypatch):
        # V0 at (3,1,100) has 202^3 = 8.2 M configurations; the orbit block has
        # 8 (T+1).  One lookup pass over the orbit serves all four parts.
        build, sizes = hamiltonian._sector_contributions, []

        def orbit_only(weighted_terms, shape, configs):
            sizes.append(np.size(configs))
            if sizes[-1] > 8 * 201:
                raise AssertionError("a block larger than the orbit")
            return build(weighted_terms, shape, configs)

        monkeypatch.setattr(hamiltonian, "_sector_contributions", orbit_only)
        code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--r", "100")
        assert code == 0
        assert sizes == [8 * 201]
        assert out.startswith("H_input 0 0\nH_form -1 0\nH_comp 0 0\nH_output 0 0\n")


# Stdout pinned byte for byte.  `spectrum` is left out: its residual column
# depends on the BLAS build.
PINNED_REPORTS = {
    ("verify", "--mode", "separation", "--desk-pair"): (
        "constants j1 1 j2 78 alpha 16 w_out 1\n"
        "yes lambda0 -1248 filtered -1248 orbit -1248 witness 00 variational -1248 p_reject 0\n"
        "yes parts H_input 0 H_form -1 H_comp 0 H_output 0\n"
        "no lambda0 -1248 filtered -1247.50160255 orbit -1247.50160255 witness 00 "
        "variational -1247.5 p_reject 1\n"
        "no parts H_input 0 H_form -1 H_comp 0 H_output 0.5\n"
        "separation 0.49839745236 orbit 0.49839745236 raw 0\n"
    ),
    ("oracle", "--n", "3", "--r", "2", "--witness", "100"): (
        "H_input 0 0\nH_form -1 0\nH_comp 0 0\nH_output 0.2 0\n"
        "p_reject 1\np_reject_over_steps 0.2\n"
    ),
    ("gapscan", "--tplus", "3,5,9"): (
        "T gap scaled_gap\n2 1 9\n4 0.38196601125 9.54915028125\n"
        "8 0.120614758428 9.76979543268\n"
    ),
    ("compile", "--n", "2"): (
        "dim 729\nnnz 945\nhermiticity_residual 0\ntranslation_residual 0\n"
    ),
    ("verify", "--mode", "decide", "--n", "2", "--r", "2"): (
        "verdict Yes lambda0 -1350 a 0 b 0.5 margin 1350\n"
    ),
    ("verify", "--mode", "decide", "--n", "2", "--a", "-1300", "--b", "-1200"): (
        "verdict OutsidePromise lambda0 -1248 a -1300 b -1200 margin -48\n"
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=" ".join)
def test_pinned_report_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == PINNED_REPORTS[argv]


def _fresh_python(*args):
    """Run a new interpreter that imports this checkout's clockring."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [("compile", "--n", "2"), ("gapscan", "--tplus", "3,5,9")], ids=" ".join)
def test_module_entry_point_prints_the_pinned_report(argv):
    # `python -m clockring` runs the same CLI without an install.
    done = _fresh_python("-m", "clockring", *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode() == PINNED_REPORTS[argv]


def test_separation_loads_no_scipy_graph_or_eigensolver_stack():
    """Importing clockring and certifying a separation, which runs no
    Lanczos, loads none of scipy.sparse.csgraph, scipy.sparse.linalg (only
    ARPACK needs it, imported where it is called) or scipy.linalg, which
    the other two pull in; together they cost about 11 MB of RSS and 0.05
    to 0.13 s of start-up.  A later scipy.linalg user, such as ROADMAP item 4's
    eigh_tridiagonal routing, imports it where it is used and updates this
    guard on purpose."""
    heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")
    done = _fresh_python("-c", "\n".join([
        "import sys",
        "import clockring",
        "from clockring import cli",
        "code = cli.main(['verify', '--mode', 'separation', '--desk-pair', '--n', '2', '--r', '2'])",
        f"print(code, [m for m in {heavy!r} if m in sys.modules])",
    ]))
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().splitlines()[-1] == "0 []"


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, circuit_file):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "spectrum", "--circuit", circuit_file, "--k", "4",
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_deterministic_oracle(self, capsys, tmp_path):
        from clockring.circuit import random_unitary

        sched = schedule_from_placements(
            [(1, 1, random_unitary(np.random.default_rng(2)))], 2, 1, 1
        )
        path = tmp_path / "rand.txt"
        path.write_text(format_circuit_text(sched))
        outs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "oracle", "--circuit", str(path), "--witness", "10")
            outs.add(out)
        assert len(outs) == 1


class TestFlagsPerCommand:
    def test_settable_value_count(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        counts = {
            name: sum(a.dest not in ("help", "func") for a in p._actions)
            for name, p in subparsers.items()
        }
        assert counts == {"compile": 9, "export": 9, "oracle": 5, "spectrum": 10,
                          "gapscan": 1, "verify": 12, "lemma": 3}

    @pytest.mark.parametrize("argv", [
        ("gapscan", "--n", "3"),
        ("oracle", "--n", "2", "--dim-cap", "10"),
        ("spectrum", "--n", "2", "--dim-cap", "10"),
        ("lemma", "--n", "2"),
        ("compile", "--n", "2", "--k", "3"),
    ], ids=" ".join)
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2

    def test_separation_reads_j1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mode", "separation", "--desk-pair", "--j1", "2")
        assert code == 0
        assert out.startswith("constants j1 2 j2 300 alpha 16 w_out 1\n")

    def test_separation_reads_a_lone_j2(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mode", "separation", "--desk-pair", "--j2", "100")
        assert code == 0
        assert out.startswith("constants j1 1 j2 100 alpha 16 w_out 1\n")


def test_dim_cap_checked_before_bond_terms(capsys, monkeypatch):
    def refuse(schedule):
        raise AssertionError("bond terms built before the dim cap check")

    monkeypatch.setattr(cli, "standard_parts", refuse)
    monkeypatch.setattr(hamiltonian, "standard_parts", refuse)
    for parts in ("all", "H_comp,H_form"):
        code, _, err = run_cli(capsys, "compile", "--n", "2", "--r", "100000", "--parts", parts)
        assert code == 1
        assert err.startswith("error: ") and "exceeds cap" in err
