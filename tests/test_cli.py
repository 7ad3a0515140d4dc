import numpy as np
import pytest

from clockring import cli, hamiltonian
from clockring.cli import main
from clockring.circuit import format_circuit_text, schedule_from_placements
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

    def test_dimension_cap_guard(self, capsys, circuit_file):
        code, _, err = run_cli(
            capsys, "compile", "--circuit", circuit_file, "--dim-cap", "100"
        )
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
        code, _, err = run_cli(capsys, "spectrum", "--n", "2", "--k", "0")
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_cap_error_does_not_advise_orbit_mode(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--n", "2", "--r", "64")
        assert code == 1
        assert err.startswith("error: ") and "exceeds cap" in err
        assert "orbit" not in err


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

    def test_oracle_builds_no_full_space_vector_or_operator(self, capsys, monkeypatch):
        from clockring.oracle import HistoryState

        def refuse(*args, **kwargs):
            raise AssertionError("full-space build")

        monkeypatch.setattr(hamiltonian, "assemble", refuse)
        monkeypatch.setattr(HistoryState, "history_vector", refuse)
        code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--r", "2", "--witness", "100")
        assert code == 0
        assert out == PINNED_REPORTS[("oracle", "--n", "3", "--r", "2", "--witness", "100")]


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
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=" ".join)
def test_pinned_report_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == PINNED_REPORTS[argv]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, circuit_file):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "spectrum", "--circuit", circuit_file, "--k", "4",
                "--seed", "11",
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
        assert counts == {"compile": 10, "export": 10, "oracle": 5, "spectrum": 13,
                          "gapscan": 1, "verify": 15, "lemma": 3}

    @pytest.mark.parametrize("argv", [
        ("gapscan", "--n", "3"),
        ("oracle", "--n", "2", "--dim-cap", "10"),
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
