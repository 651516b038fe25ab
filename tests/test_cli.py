import json

import numpy as np
import pytest

from weylpath import harmonic_exact_K, overlap
from weylpath.cli import main

HARMONIC = {
    "hbar": 1.0,
    "mass": 1.0,
    "omega": 1.0,
    "width_b": 1.0,
    "ordering": "normal",
    "terms": [{"m": 1, "n": 1, "re": 1.0}, {"m": 0, "n": 0, "re": 0.5}],
}

QUARTIC = {
    "hbar": 1.0,
    "mass": 1.0,
    "omega": 1.0,
    "width_b": 1.0,
    "ordering": "weyl_qp",
    "terms": [
        {"m": 0, "n": 2, "re": 0.5},
        {"m": 2, "n": 0, "re": 0.5},
        {"m": 4, "n": 0, "re": 1.0},
    ],
}


@pytest.fixture
def harmonic_json(tmp_path):
    path = tmp_path / "harmonic.json"
    path.write_text(json.dumps(HARMONIC))
    return str(path)


@pytest.fixture
def quartic_json(tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(QUARTIC))
    return str(path)


class TestSymbols:
    def test_quartic_table(self, quartic_json, tmp_path, capsys):
        assert main(["symbols", "--hamiltonian", quartic_json]) == 0
        out = capsys.readouterr().out
        assert "q^2 p^0: +3.5" in out  # 1/2 + 3 b^2 in the Q symbol
        assert "q^2 p^0: -2.5" in out  # 1/2 - 3 b^2 in the P symbol
        assert "q^0 p^0: +1.25" in out  # (b^2 + 1/b^2)/4 + 3 b^4/4
        assert "q^4 p^0: +1" in out

    def test_harmonic_symbols(self, harmonic_json, capsys):
        assert main(["symbols", "--hamiltonian", harmonic_json]) == 0
        out = capsys.readouterr().out
        assert "v^1 u^1: +1" in out
        assert "v^0 u^0: +0.5" in out  # Q constant
        assert "v^0 u^0: -0.5" in out  # P constant

    def test_empty_terms(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"ordering": "normal", "terms": []}))
        assert main(["symbols", "--hamiltonian", str(path)]) == 0
        assert "0" in capsys.readouterr().out


class TestHarmonicCompare:
    def test_mu_row_reproduces_reference(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(
            [
                "harmonic-compare", "--T", str(2 * np.pi), "--z0", "0.5,0",
                "--z1", "0.3,0.4", "--N-list", "100", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,form,re_K,im_K,abs_err_vs_oracle,re_mu,im_mu"
        row_q = next(l for l in lines if l.startswith("100,q"))
        fields = row_q.split(",")
        assert float(fields[5]) == pytest.approx(1.22, abs=5e-3)
        assert float(fields[6]) == pytest.approx(0.01, abs=5e-3)

    def test_zero_frequency_rows(self, tmp_path, capsys):
        rc = main(
            ["harmonic-compare", "--omega", "0", "--T", "1.0", "--N-list", "4,8"]
        )
        assert rc == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            fields = line.split(",")
            assert float(fields[5]) == 1.0 and float(fields[6]) == 0.0

    def test_deterministic_output(self, tmp_path):
        args = [
            "harmonic-compare", "--T", "3.1", "--z0", "0.2,0.1",
            "--z1", "0.4,-0.2", "--N-list", "2,4,8,100",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPropagate:
    def test_exact_harmonic(self, harmonic_json, capsys):
        rc = main(
            [
                "propagate", "--hamiltonian", harmonic_json, "--form", "exact",
                "--z0", "0.3,0.0", "--z1", "0.0,0.5", "--T", "1.0",
            ]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        want = harmonic_exact_K(0.3, 0.5j, 1.0, 1.0)
        assert record["re_K"] == pytest.approx(want.real, abs=1e-10)
        assert record["im_K"] == pytest.approx(want.imag, abs=1e-10)

    def test_zero_time_is_overlap(self, quartic_json, capsys):
        rc = main(
            [
                "propagate", "--hamiltonian", quartic_json,
                "--z0", "0.3,0.2", "--z1=-0.1,0.4", "--T", "0",
            ]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        want = overlap(-0.1 + 0.4j, 0.3 + 0.2j)
        assert record["re_K"] == pytest.approx(want.real, abs=1e-12)

    def test_discrete_form_reports_refinement(self, harmonic_json, capsys):
        rc = main(
            [
                "propagate", "--hamiltonian", harmonic_json, "--form", "q",
                "--z0", "0.4,0.1", "--z1=0.2,-0.3", "--T", "0.2", "--N", "2",
            ]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["refinement_delta"] < 1e-6

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(
            ["propagate", "--hamiltonian", str(bad), "--z0", "0,0",
             "--z1", "0,0", "--T", "1"]
        )
        assert rc == 1

    def test_convergence_error_exit_code(self, harmonic_json):
        rc = main(
            [
                "propagate", "--hamiltonian", harmonic_json, "--form", "q",
                "--z0", "0.4,0.1", "--z1=0.2,-0.3", "--T", "0.2",
                "--N", "2", "--tol", "1e-15",
            ]
        )
        assert rc == 2

    def test_numeric_error_exit_code(self, harmonic_json):
        rc = main(
            [
                "propagate", "--hamiltonian", harmonic_json, "--form", "w",
                "--z0", "0.4,0.1", "--z1=0.2,-0.3", "--T", "0.2", "--N", "5",
            ]
        )
        assert rc == 3


class TestSemiclassical:
    def test_harmonic_matches_exact(self, harmonic_json, capsys):
        rc = main(
            [
                "semiclassical", "--hamiltonian", harmonic_json, "--form", "w",
                "--z0", "0.3,0.0", "--z1", "0.0,0.5", "--T", "1.0",
            ]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        want = harmonic_exact_K(0.3, 0.5j, 1.0, 1.0)
        assert record["re_K"] == pytest.approx(want.real, abs=1e-9)
        assert record["im_K"] == pytest.approx(want.imag, abs=1e-9)
        assert len(record["trajectories"]) == 1
        assert record["trajectories"][0]["residual"] < 1e-10

    def test_csv_round_trip_file(self, harmonic_json, tmp_path):
        out = tmp_path / "result.json"
        rc = main(
            [
                "semiclassical", "--hamiltonian", harmonic_json, "--form", "q",
                "--z0", "0.1,0.0", "--z1", "0.2,0.0", "--T", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert "re_K" in record and "trajectories" in record


class TestArgumentRanges:
    @pytest.mark.parametrize(
        "argv",
        [
            ["propagate", "--z0", "0,0", "--z1", "0,0", "--T", "-1"],
            ["semiclassical", "--z0", "0,0", "--z1", "0,0", "--T", "-1"],
            ["semiclassical", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--steps", "4"],
            ["symbols", "--format", "csv"],
            ["semiclassical", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--format", "csv"],
            ["harmonic-compare", "--T", "1", "--N-list", "10,0"],
            ["propagate", "--form", "w", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--N", "0"],
            ["propagate", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--cutoff", "-5"],
            ["wigner-u", "--T", "0.5", "--cutoff", "-3", "--nq", "8", "--np", "8"],
            ["propagate", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--tol", "-1"],
            ["semiclassical", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--tol", "-1"],
            ["harmonic-compare", "--T", "inf", "--N-list", "10"],
            ["wigner-u", "--T", "nan", "--cutoff", "60", "--nq", "4", "--np", "4"],
            ["wigner-u", "--T", "0.5", "--cutoff", "60", "--nq", "0", "--np", "4"],
        ],
        ids=["negative-T", "semiclassical-negative-T", "few-steps",
             "symbols-format", "semiclassical-format", "zero-N-list", "zero-N",
             "negative-cutoff", "wigner-negative-cutoff", "negative-tol",
             "semiclassical-negative-tol", "infinite-T", "wigner-nan-T", "wigner-no-points"],
    )
    def test_rejected_while_parsing(self, harmonic_json, argv):
        if argv[0] != "harmonic-compare":  # the only command without --hamiltonian
            argv = argv[:1] + ["--hamiltonian", harmonic_json] + argv[1:]
        assert main(argv) == 1


class TestWignerU:
    def test_grid_dump(self, harmonic_json, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(
            [
                "wigner-u", "--hamiltonian", harmonic_json, "--T", "0.5",
                "--cutoff", "60", "--nq", "12", "--np", "12",
                "--q-widths", "2.0", "--p-widths", "2.0", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "q,p,re_U,im_U,re_husimi,im_husimi"
        assert len(lines) == 1 + 12 * 12

    def test_tail_failure_exit_code(self, harmonic_json):
        rc = main(
            [
                "wigner-u", "--hamiltonian", harmonic_json, "--T", "0.5",
                "--cutoff", "20", "--nq", "8", "--np", "8",
            ]
        )
        assert rc == 3
