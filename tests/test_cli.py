import ast
import importlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import weylpath
from weylpath import cli, coherent, errors, harmonic_discrete_K, harmonic_exact_K, overlap
from weylpath import semiclassics
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

    def test_coefficient_beyond_double_range_exit_code(self, tmp_path, capsys):
        path = tmp_path / "high.json"
        path.write_text(json.dumps({"terms": [{"m": 171, "n": 171, "re": 1.0}]}))
        assert main(["symbols", "--hamiltonian", str(path)]) == 3
        assert "term (171, 171)" in capsys.readouterr().err


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

    def test_unwritable_out_is_an_error(self, tmp_path, capsys):
        # used to end in a FileNotFoundError traceback
        out = tmp_path / "no" / "such" / "t.csv"
        assert main(["harmonic-compare", "--T", "1", "--N-list", "2", "--out", str(out)]) == 1
        assert f"error: cannot write {out}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "T, N, what",
        [("40", "4", "K of the Q form at N = 4"), ("1e6", "1000", "mu of the Q form at N = 1000")],
        ids=["K-overflow", "mu-overflow"],
    )
    def test_non_finite_row_exit_code(self, capsys, T, N, what):
        # used to print a nan Q row and exit 0, or end in an OverflowError traceback
        argv = ["harmonic-compare", "--T", T, "--N-list", N, "--z0", "1,0", "--z1", "1,0"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and what in err

    def test_oracle_overflow_exit_code(self, capsys):
        # |z'|^2 overflowed in the closed form: an OverflowError traceback and exit 1
        argv = ["harmonic-compare", "--T", "1", "--z0", "1e200,0", "--N-list", "2"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "the harmonic closed form <z2|U|z1> is not a finite double" in err


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

    def test_record_reports_what_was_used(self, harmonic_json, capsys):
        # the exact form recorded tolerance null and the discrete forms an unread cutoff
        argv = ["propagate", "--hamiltonian", harmonic_json, "--z0", "0.3,0", "--z1", "0,0.5"]
        assert main(argv + ["--T", "1.0"]) == 0
        exact = json.loads(capsys.readouterr().out)
        assert exact["tolerance"] == coherent.CUTOFF_TOLERANCE == 1e-10
        assert exact["cutoff"] == 80
        assert main(argv + ["--T", "0.2", "--form", "w", "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert header.split(",") == sorted(record) and "cutoff" not in record
        assert record["N"] == "2" and record["form"] == "w" and record["tolerance"] == ""

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

    @pytest.mark.parametrize("form, N", [("w", 3), ("q", 5)], ids=["w-odd-N", "q-N-beyond-3"])
    def test_zero_time_still_checks_form_and_N(self, harmonic_json, form, N):
        argv = ["--form", form, "--N", str(N), "--z0", "0.3,0.2", "--z1=-0.1,0.4", "--T", "0"]
        assert main(["propagate", "--hamiltonian", harmonic_json, *argv]) == 3

    def test_zero_time_discrete_form_is_overlap(self, quartic_json, capsys):
        argv = ["--form", "w", "--N", "2", "--z0", "0.3,0.2", "--z1=-0.1,0.4", "--T", "0"]
        assert main(["propagate", "--hamiltonian", quartic_json, *argv]) == 0
        record = json.loads(capsys.readouterr().out)
        want = overlap(-0.1 + 0.4j, 0.3 + 0.2j)
        assert complex(record["re_K"], record["im_K"]) == want
        assert record["N"] == 2 and record["refinement_delta"] == 0.0

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

    Q_THREE_SLICES = ["--form", "q", "--z0", "0.4,0.1", "--z1=0.2,-0.3", "--T", "0.2", "--N", "3"]

    def test_q_form_three_slices_harmonic(self, harmonic_json, capsys):
        assert main(["propagate", "--hamiltonian", harmonic_json, *self.Q_THREE_SLICES]) == 0
        record = json.loads(capsys.readouterr().out)
        want = harmonic_discrete_K("q", 0.4 + 0.1j, 0.2 - 0.3j, 1.0, 0.2, 3)
        got = complex(record["re_K"], record["im_K"])
        assert abs(got - want) < record["refinement_delta"] + 1e-7

    def test_q_form_three_slices_quartic_exit_code(self, quartic_json, capsys):
        assert main(["propagate", "--hamiltonian", quartic_json, *self.Q_THREE_SLICES]) == 3
        assert "has no limit" in capsys.readouterr().err

    def test_huge_label_exit_code(self, harmonic_json, capsys):
        # printed 11 RuntimeWarnings and exited 2 with 'moved the result by nan'
        argv = ["--form", "p", "--N", "1", "--z0", "1e200,0", "--z1", "0,0", "--T", "0.5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["propagate", "--hamiltonian", harmonic_json, *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "the coherent overlap exponent is not a finite double" in err

    def test_phase_overflow_exit_code(self, harmonic_json, capsys):
        # E_k T/hbar beyond the double range exited 2 with 'moved the result by nan'
        argv = ["--form", "exact", "--z0", "0.3,0", "--z1", "0.2,0", "--T", "1e307"]
        assert main(["propagate", "--hamiltonian", harmonic_json, *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "the phase e^{-i E_k T/hbar} at T = 1e+307 is not a finite double" in err

    def test_oracle_too_large_exit_code(self, harmonic_json, monkeypatch, capsys):
        # ended in a MemoryError traceback; no matrix may be built before the refusal
        monkeypatch.setattr(coherent, "operator_matrix", None)
        argv = ["--form", "exact", "--cutoff", "100000000", "--z0", "1,0", "--z1", "0,0", "--T", "0.5"]
        assert main(["propagate", "--hamiltonian", harmonic_json, *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "cutoff 100000000 needs an oracle at cutoff 200000000" in err

    def test_unreadable_hamiltonian_exit_code(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        argv = ["--hamiltonian", str(path), "--z0", "0,0", "--z1", "0,0", "--T", "1"]
        assert main(["propagate", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: cannot read {path}: " in err

    def test_cutoff_beyond_any_oracle_exit_code(self, harmonic_json, capsys):
        # the oracle's byte count, an int beyond the double range, ended in an OverflowError
        argv = ["--form", "exact", "--cutoff", "1" + "0" * 200, "--z0", "1,0", "--z1", "0,0", "--T", "0.5"]
        assert main(["propagate", "--hamiltonian", harmonic_json, *argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and ": 3.20e+402 bytes exceed DENSE_BYTES" in err

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

    @pytest.mark.parametrize(
        "error, code",
        [
            (errors.HamiltonianFormatError, 1),
            (errors.NonConverged, 2),
            (errors.DomainError, 3),
            (errors.InvalidArgument, 3),
        ],
    )
    def test_error_class_exit_code(self, harmonic_json, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("stub failure")

        monkeypatch.setattr(cli, "cmd_symbols", fail)  # build_parser reads it as func
        assert main(["symbols", "--hamiltonian", harmonic_json]) == code
        assert "error: stub failure" in capsys.readouterr().err

    def test_program_fault_propagates(self, harmonic_json, monkeypatch):
        # a ValueError the package did not raise on purpose is a fault, not exit 3
        def fail(args):
            raise ValueError("not a refusal")

        monkeypatch.setattr(cli, "cmd_symbols", fail)
        with pytest.raises(ValueError, match="not a refusal") as info:
            main(["symbols", "--hamiltonian", harmonic_json])
        assert not isinstance(info.value, errors.WeylPathError)


def test_package_raises_only_its_own_errors():
    """Every raise in src names a WeylPathError class, but for two raises a protocol asks for:
    argparse's type error in cli.py, and the AttributeError of the package's PEP 562
    ``__getattr__``, the one error ``hasattr`` and ``getattr(..., default)`` catch."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    offenders = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for top, node in ((top, node) for top in tree.body for node in ast.walk(top)):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised = ast.unparse(target)
            if name == "cli.py" and raised == "argparse.ArgumentTypeError":
                continue
            if (name, getattr(top, "name", None), raised) == ("__init__.py", "__getattr__", "AttributeError"):
                continue
            cls = getattr(errors, raised.split(".")[-1], None)
            if not (isinstance(cls, type) and issubclass(cls, errors.WeylPathError)):
                offenders.append(f"{name}:{node.lineno} raises {raised}")
    assert offenders == []


def test_only_errors_calls_refuse_bool():
    """Argument checks go through require_finite, require_positive and require_index; the
    boolean refusal they share is called in errors.py alone."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    callers = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "errors.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("refuse_bool"):
                callers.append(f"{name}:{node.lineno}")
    assert callers == []


def test_one_budget_comparison():
    """The memory budget is coherent.DENSE_BYTES alone: no other module names it, coherent reads
    it only in _require_dense, and that helper holds the one comparison against it."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    offenders, compares = [], 0
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        helper = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  and f.name == "_require_dense" for n in ast.walk(f)}
        for node in ast.walk(tree):
            compares += isinstance(node, ast.Compare) and "DENSE_BYTES" in ast.unparse(node)
            named = "DENSE_BYTES" in (  # a name, an attribute or an imported name
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            stored = isinstance(getattr(node, "ctx", None), ast.Store)
            if named and (name != "coherent.py" or not stored and id(node) not in helper):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == [] and compares == 1


# Functions that may run numpy under np.errstate, each with its reason; every other computation
# that can leave the double range goes through errors.finite_double.
ERRSTATE_SITES = {
    "errors.finite_double": "the output guard: a value beyond the double range is a DomainError",
    "semiclassics._newton": "a whole-grid step that overflows is the shooting's blow-up, NonConverged",
    "semiclassics._trajectories": "an overflowing coarse seed is non-finite nodes, _newton's blow-up",
    "wigner.weyl_U_grid": "a lattice node count beyond the double range is inf, and refused",
}


def test_one_trim_rule():
    """Symbols lose their round-off by one rule: TRIM_TOLERANCE is read in one function."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    readers = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                    "TRIM_TOLERANCE" in (getattr(n, "id", None), getattr(n, "attr", None))
                    for n in ast.walk(func)):
                readers.add(f"{name[:-3]}.{func.name}")
    assert readers == {"algebra._trim"}


def test_errstate_only_in_its_sites():
    """np.errstate appears in the functions of ERRSTATE_SITES alone."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    found = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            if any(getattr(node, "attr", None) == "errstate" for node in ast.walk(top)):
                found.add(f"{name[:-3]}.{getattr(top, 'name', '<statement>')}")
    assert found == set(ERRSTATE_SITES)


def _is_rk4_weight(node) -> bool:
    """``x / 6`` or a product with the constant 1/6: the weight of an RK4 step."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Div):
        return isinstance(node.right, ast.Constant) and node.right.value == 6
    return isinstance(node.op, ast.Mult) and any(
        isinstance(side, ast.Constant) and side.value == 1 / 6 for side in (node.left, node.right))


def _rk4_holders() -> dict:
    """The top-level src definitions that hold the RK4 weight, by module.name."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    found = {}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            if any(map(_is_rk4_weight, ast.walk(top))):
                found[f"{name[:-3]}.{getattr(top, 'name', '<statement>')}"] = top
    return found


def test_one_rk4_per_state_kind():
    """The RK4 weight h/6 appears in semiclassics._phi (the step Phi_h of (q, p) at every node
    at once) and semiclassics._linear_rk4 (its Jacobian, the step matrices of a linear system)
    alone, so no module grows an integrator of its own."""
    assert set(_rk4_holders()) == {"semiclassics._phi", "semiclassics._linear_rk4"}


def test_no_python_loop_over_rk4_steps():
    """No definition that holds the RK4 weight loops over steps, with for or while: every grid's
    steps are taken at once, on arrays.  The one loop in them is semiclassics._phi's over its
    three stage offsets."""
    loops = [(scope, ast.unparse(node).splitlines()[0]) for scope, top in _rk4_holders().items()
             for node in ast.walk(top) if isinstance(node, (ast.For, ast.While))]
    assert loops == [("semiclassics._phi", "for i, c in enumerate((h2, h2, h)):")]


def test_one_solve_path():
    """Every trajectory comes from one route: src calls the whole-grid Newton semiclassics._newton
    twice, on the coarse grid and on the full one, both in semiclassics._trajectories.  The
    Newton budget MAX_ITER is read in _newton alone, so no second Newton loop returns, and the
    coarse shooting, its helpers and the scalar RK4 loop _rk4 are gone."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    calls, budget, defined = {"_newton": []}, [], set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            scope = f"{name[:-3]}.{getattr(top, 'name', '<statement>')}"
            for node in ast.walk(top):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    if callee in calls:
                        calls[callee].append(scope)
                if "MAX_ITER" in (getattr(node, "id", None), getattr(node, "attr", None)) and isinstance(
                        node.ctx, ast.Load):
                    budget.append(scope)
    assert calls == {"_newton": ["semiclassics._trajectories"] * 2}
    assert set(budget) == {"semiclassics._newton"}
    assert defined.isdisjoint({"_shoot", "_stages", "_step_matrices", "_image", "_rk4"})


def test_one_eigenbasis_owner():
    """np.linalg.eigh is called in coherent.FockOracle.__init__ alone, which picks the real or
    parity-split eigenproblems, and the eigenvectors, held in ``.blocks``, are read in coherent.py
    alone: every other module applies them through the oracle's eigen_blocks and propagator."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    eigh, blocks = [], set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        scopes = [(f"{top.name}.{getattr(item, 'name', '<statement>')}", item)
                  for top in tree.body if isinstance(top, ast.ClassDef) for item in top.body]
        scopes += [(getattr(top, "name", "<statement>"), top)
                   for top in tree.body if not isinstance(top, ast.ClassDef)]
        for scope, top in scopes:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "eigh":
                    eigh.append(f"{name[:-3]}.{scope}")
                if isinstance(node, ast.Attribute) and node.attr in ("blocks", "evecs"):
                    blocks.add(name)
    assert eigh == ["coherent.FockOracle.__init__"] and blocks == {"coherent.py"}


# Public names no src code outside their own def or class uses, each with the paper identity it
# checks or the bench call (bench/workloads.py API_FUNCTIONS) that keeps it.
UNCALLED_PUBLIC = {
    "normalize": "a adag = adag a + 1: ladder words in normal order, where the symbols start",
    "q_symbol": "Q symbol A_Q = <z|A|z>, s = 0 of A_s = exp(s d_u d_v) A_Q",
    "p_symbol": "P symbol, s = -1 of A_s = exp(s d_u d_v) A_Q",
    "weyl_symbol": "Weyl symbol, s = -1/2 of A_s = exp(s d_u d_v) A_Q; bench call",
    "displacement_element": "<z2|T(q, p)|z1>, the phase-space translation behind the Weyl map",
    "weyl_element": "<z2|A|z1> from the Weyl symbol of A; bench call",
    "fock_coherent": "bench call (the Fock amplitudes of |z>)",
    "mu_coefficients": "mu_Q, mu_P, mu_W of the discrete harmonic forms, all -> exp(-i omega T)",
    "phi_N": "the discrete W-form exponent phi_N; bench call",
    "phi_N_alt": "phi_N with its quadratic part regrouped, equal for every path; bench call",
    "psi_C": "phi_N = psi_N + 2 C z''* + 2 Cbar z' + z' z''*, the chord split of phi_N",
    "phi_N_gradient": "d phi_N / d w = 0: the discrete equations of motion",
    "stationary_path_harmonic": "bench call (the stationary W path of the oscillator)",
    "area_identity": "the chord coupling as a sum of oriented symplectic areas",
    "build_matrix": "the fluctuation matrix of the W form at finite N; bench call",
    "block_tridiagonal": "the same matrix in its block-tridiagonal layout",
    "det_dense": "det of build_matrix by LU, the reference for det_recursive; bench call",
    "det_recursive": "det of the block-tridiagonal matrix by transfer matrices; bench call",
    "det_continuum": "the N -> infinity limit of det_recursive, an ODE in t; bench call",
    "solve_bvp": "one stationary trajectory of the mixed boundary problem; bench call",
    "action_S": "the complex action S of one trajectory, boundary terms included",
    "correction_I": "the ordering correction I = 1/2 int H_uv dt of one trajectory",
    "trajectory_hessian_samplers": "bench call (A(t), B(t), C(t) along a trajectory)",
    "harmonic_hamiltonian": "bench call (hbar omega (adag a + 1/2))",
    "quartic_position_hamiltonian": "bench call (the quartic oscillator of every test table)",
    "smoothing_check": "Husimi = Weyl smoothed by the Gaussian (b^2/2, c^2/2); bench call",
}


def _src_trees() -> dict:
    """The parsed module of each file in src/weylpath, by file name."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                trees[name] = ast.parse(fh.read())
    return trees


def test_every_public_name_has_a_caller_or_an_identity():
    """A public name of ``weylpath._EXPORTS`` is used by src code outside its own def or class in
    its home module, as a name or an attribute (docstrings and the table's strings do not count),
    or it is in UNCALLED_PUBLIC with its reason. A name that gains a caller leaves the list."""
    trees = _src_trees()
    homes = {public: f"{module}.py" for module, names in weylpath._EXPORTS.items()
             for public in names.split()}
    uncalled = set()
    for public, home in homes.items():
        own = {id(n) for d in trees[home].body if getattr(d, "name", None) == public
               for n in ast.walk(d)}
        if not any(
            id(n) not in own and public in (getattr(n, "id", None), getattr(n, "attr", None))
            for tree in trees.values() for n in ast.walk(tree)
        ):
            uncalled.add(public)
    assert uncalled == set(UNCALLED_PUBLIC)


def test_no_module_spells_out_its_all():
    """``weylpath._EXPORTS`` is the one list of public names: no src file assigns a list or tuple
    literal to ``__all__``; each module reads its own entry of the table."""
    spelled = [
        name for name, tree in _src_trees().items() for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, (ast.List, ast.Tuple))
        and "__all__" in map(ast.unparse, getattr(node, "targets", None) or [node.target])
    ]
    assert spelled == []


def test_readme_names_resolve():
    """Every ``module.NAME`` that README.md names, for the eight weylpath modules, is an attribute
    of that module, so a constant or helper the code drops leaves the README too; a file name
    such as ``coherent.py`` is no reference."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read()
    modules = "algebra cli coherent discrete errors fluctuation semiclassics wigner".split()
    refs = set(re.findall(rf"\b({'|'.join(modules)})\.(\w+)", text)) - {(m, "py") for m in modules}
    assert len(refs) >= 40  # the pattern still finds the README's references
    missing = {f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"weylpath.{module}"), name)}
    assert missing == set()


def test_no_module_runs_generated_code():
    """Every number comes from code as written: no src file calls the builtins ``exec``, ``eval``
    or ``compile``."""
    calls = [
        f"{name}:{node.lineno} calls {node.func.id}" for name, tree in _src_trees().items()
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("exec", "eval", "compile")
    ]
    assert calls == []


# Functions outside errors.py that test finiteness or booleans themselves, each with its reason;
# every other check goes through the errors module (require_*, finite_double).
OWN_CHECKS = {
    "algebra._apply_exp_mixed": "names the term whose coefficient left the double range, "
                                "inside the symbol maps' inner loop",
    "semiclassics._newton": "a whole-grid step that blows up is NonConverged, not a refused argument",
}


def _is_own_check(node) -> bool:
    """A call of math.isfinite, cmath.isfinite or np.isfinite, or an isinstance(..., bool)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "isfinite" and ast.unparse(func.value) in ("math", "cmath", "np", "numpy")
    if getattr(func, "id", None) == "isfinite":
        return True
    return getattr(func, "id", None) == "isinstance" and len(node.args) == 2 and any(
        getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))


def test_finite_and_boolean_checks_go_through_errors():
    """Every finiteness or boolean test in src outside errors.py lies in a function of OWN_CHECKS
    (a method counts as Class.method). A function that loses its test leaves the list."""
    src = os.path.dirname(os.path.abspath(cli.__file__))
    found = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "errors.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        module = name[:-3]
        for top in tree.body:
            in_class = isinstance(top, ast.ClassDef)
            prefix = f"{module}.{top.name}." if in_class else f"{module}."
            for scope in top.body if in_class else [top]:
                if any(map(_is_own_check, ast.walk(scope))):
                    found.add(prefix + getattr(scope, "name", "<statement>"))
    assert found == set(OWN_CHECKS)


@pytest.mark.parametrize("value", [10**20, 10**400], ids=["beyond-int64", "beyond-double"])
def test_finite_and_positive_agree_on_large_ints(value):
    """An int numpy cannot hold but a double can is a finite, positive number to both helpers
    (require_finite called it 'not a number'); an int beyond the double range is refused by both."""
    if value < 1e308:
        errors.require_finite(T=value)
        errors.require_positive(T=value)
        return
    with pytest.raises(errors.InvalidArgument, match="^T must be a number, got 1000"):
        errors.require_finite(T=value)
    with pytest.raises(errors.InvalidArgument, match="^T must be positive, got 1000"):
        errors.require_positive(T=value)


class TestSemiclassical:
    @pytest.mark.parametrize(
        "z0, T, code, message",
        [
            ("0.1,0", "1e300", 2, "trajectory blew up"),  # v stays 0, so the residual is 0
            ("1e200,0", "1", 3, "is not a finite double"),  # |z'|^2 overflows
            ("1e200,0", "0", 3, "is not a finite double"),  # printed K = 0 and exited 0
        ],
        ids=["huge-T", "huge-label", "huge-label-zero-time"],
    )
    def test_non_finite_result_refused(self, harmonic_json, capsys, z0, T, code, message):
        argv = ["semiclassical", "--hamiltonian", harmonic_json, "--z0", z0, "--z1", "0,0"]
        assert main([*argv, "--T", T]) == code
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_steps_beyond_the_budget_exit_3(self, harmonic_json, capsys, monkeypatch):
        # --steps 100000000 ran a 1e8-step RK4 loop, then built about 86 GB of arrays
        monkeypatch.setattr(semiclassics, "_step", None)  # would fail if reached
        argv = ["semiclassical", "--hamiltonian", harmonic_json, "--z0", "0.3,0", "--z1", "0,0.5",
                "--T", "1", "--steps", "100000000"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "a shooting pass of 100000000 RK4 steps" in err

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

    def test_reports_the_even_steps_it_used(self, harmonic_json, capsys):
        # --steps 17 printed 17 but integrated 18 steps, the same K as --steps 18
        argv = ["semiclassical", "--hamiltonian", harmonic_json, "--z0", "0.3,0", "--z1", "0,0.5",
                "--T", "1"]
        records = []
        for steps in ("17", "18"):
            assert main([*argv, "--steps", steps]) == 0
            records.append(json.loads(capsys.readouterr().out))
        assert records[0] == records[1] and records[0]["steps"] == 18

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
        "argv, message",
        [
            (["propagate", "--z0", "0,0", "--z1", "0,0", "--T", "-1"],
             "argument --T: T must be non-negative, got -1.0"),
            (["semiclassical", "--z0", "0,0", "--z1", "0,0", "--T", "-1"],
             "argument --T: T must be non-negative, got -1.0"),
            (["semiclassical", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--steps", "4"],
             "argument --steps: steps must be at least 16, got 4"),
            (["symbols", "--format", "csv"], "unrecognized arguments: --format csv"),
            (["semiclassical", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--format", "csv"],
             "unrecognized arguments: --format csv"),
            (["harmonic-compare", "--T", "1", "--N-list", "10,0"],
             "argument --N-list: N must be at least 1, got 0"),
            (["propagate", "--form", "w", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--N", "0"],
             "argument --N: N must be at least 1, got 0"),
            (["propagate", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--cutoff", "-5"],
             "argument --cutoff: cutoff must be at least 0, got -5"),
            (["wigner-u", "--T", "0.5", "--cutoff", "-3", "--nq", "8", "--np", "8"],
             "argument --cutoff: cutoff must be at least 0, got -3"),
            (["propagate", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--tol", "-1"],
             "argument --tol: tol must be positive, got -1.0"),
            (["semiclassical", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--tol", "-1"],
             "argument --tol: tol must be positive, got -1.0"),
            (["harmonic-compare", "--T", "inf", "--N-list", "10"],
             "argument --T: T must be finite, got inf"),
            (["wigner-u", "--T", "nan", "--cutoff", "60", "--nq", "4", "--np", "4"],
             "argument --T: T must be finite, got nan"),
            (["wigner-u", "--T", "0.5", "--cutoff", "60", "--nq", "0", "--np", "4"],
             "argument --nq: nq must be at least 1, got 0"),
            (["propagate", "--z0", "abc", "--z1", "0,0", "--T", "1"],
             "argument --z0: expected 're,im' pair, got 'abc'"),
            (["propagate", "--z0", "1,2,3", "--z1", "0,0", "--T", "1"],
             "argument --z0: expected 're,im' pair, got '1,2,3'"),
            (["propagate", "--z0", "nan,0", "--z1", "0,0", "--T", "1"],
             "argument --z0: z0 must be finite, got (nan+0j)"),
            (["propagate", "--z0", "1e400,0", "--z1", "0,0", "--T", "1"],
             "argument --z0: z0 must be finite, got (inf+0j)"),
            (["propagate", "--z0", "0,0", "--z1", "0,0", "--T", "1", "--cutoff", "1" + "0" * 400],
             "argument --cutoff: cutoff must be a number, got 1000"),
        ],
        ids=["negative-T", "semiclassical-negative-T", "few-steps",
             "symbols-format", "semiclassical-format", "zero-N-list", "zero-N",
             "negative-cutoff", "wigner-negative-cutoff", "negative-tol",
             "semiclassical-negative-tol", "infinite-T", "wigner-nan-T", "wigner-no-points",
             "label-not-a-pair", "label-three-parts", "label-nan", "label-overflow",
             "cutoff-beyond-double"],
    )
    def test_rejected_while_parsing(self, harmonic_json, capsys, argv, message):
        """Exit 1 with the refusal in the API's wording (the errors helpers'), named by option."""
        if argv[0] != "harmonic-compare":  # the only command without --hamiltonian
            argv = argv[:1] + ["--hamiltonian", harmonic_json] + argv[1:]
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err


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

    def test_every_cell_is_the_grid_value(self, quartic_json, tmp_path):
        # each cell is the .17g text of its axis or grid value, so the floats round-trip
        out = tmp_path / "grid.csv"
        argv = ["wigner-u", "--hamiltonian", quartic_json, "--T", "0.7", "--cutoff", "60",
                "--nq", "9", "--np", "7", "--format", "csv", "--out", str(out)]
        assert main(argv) == 0
        op, ctx = cli.load_hamiltonian(quartic_json)
        qs, ps = weylpath.phase_grid_axes(ctx, nq=9, npts=7)
        weyl = weylpath.weyl_U_grid(op, ctx, 0.7, qs, ps, cutoff=60).values
        husimi = weylpath.husimi_U_grid(op, ctx, 0.7, qs, ps, cutoff=60).values
        Q, P = np.meshgrid(qs, ps, indexing="ij")
        columns = [Q, P, weyl.real, weyl.imag, husimi.real, husimi.imag]
        want = [",".join(f"{c[i, j]:.17g}" for c in columns) for i in range(9) for j in range(7)]
        assert out.read_text().splitlines()[1:] == want

    def test_tail_failure_exit_code(self, harmonic_json):
        rc = main(
            [
                "wigner-u", "--hamiltonian", harmonic_json, "--T", "0.5",
                "--cutoff", "20", "--nq", "8", "--np", "8",
            ]
        )
        assert rc == 3

    def test_axis_beyond_any_array_exit_code(self, harmonic_json, capsys):
        # an axis of 1e20 points ended in numpy's ValueError: Maximum allowed size exceeded
        argv = ["wigner-u", "--hamiltonian", harmonic_json, "--T", "1", "--nq", "1" + "0" * 20]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"axes of {10**20} and 64 points: 8e+20 bytes exceed DENSE_BYTES" in err

    @pytest.mark.parametrize("q_widths", ["1e-300", "1e-6", "1e-320"])
    def test_lattice_too_large_exit_code(self, harmonic_json, capsys, q_widths):
        # a tiny q step needs about s_half / dq lattice nodes; refused before any table exists
        argv = ["wigner-u", "--hamiltonian", harmonic_json, "--T", "1", "--nq", "3", "--np", "3"]
        assert main([*argv, "--cutoff", "60", "--q-widths", q_widths]) == 3
        err = capsys.readouterr().err
        assert "lattice nodes at cutoff 60: " in err and "bytes exceed DENSE_BYTES" in err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["symbols", "--hamiltonian", "H"], str),
        (["harmonic-compare", "--T", "1", "--N-list", "2,3"], list),
        (["propagate", "--hamiltonian", "H", "--z0", "0.3,0", "--z1", "0,0.5", "--T", "1"], dict),
        (["semiclassical", "--hamiltonian", "H", "--z0", "0.3,0", "--z1", "0,0.5", "--T", "1"], dict),
        (["wigner-u", "--hamiltonian", "H", "--T", "0.5", "--cutoff", "60", "--nq", "3", "--np", "2"],
         list),
    ],
    ids=["symbols", "harmonic-compare", "propagate", "semiclassical", "wigner-u"],
)
def test_command_returns_its_payload_and_prints_nothing(argv, kind, harmonic_json, capsys):
    args = cli.build_parser().parse_args([harmonic_json if a == "H" else a for a in argv])
    payload = args.func(args)
    assert isinstance(payload, kind) and payload
    assert capsys.readouterr() == ("", "")


README_COMMANDS = [
    ["symbols", "--hamiltonian", "quartic.json"],
    ["harmonic-compare", "--T", "6.2831853", "--z0", "0.5,0", "--z1", "0.3,0.4",
     "--N-list", "10,100,1000", "--out", "table.csv"],
    ["propagate", "--hamiltonian", "harmonic.json", "--form", "exact",
     "--z0", "0.3,0", "--z1", "0,0.5", "--T", "1.0"],
    ["propagate", "--hamiltonian", "harmonic.json", "--form", "w", "--N", "2",
     "--z0", "0.3,0", "--z1", "0,0.5", "--T", "0.2"],
    ["semiclassical", "--hamiltonian", "quartic.json", "--form", "w",
     "--z0", "0.7,0", "--z1", "0.7,0", "--T", "0.5"],
    ["wigner-u", "--hamiltonian", "harmonic.json", "--T", "1.0", "--out", "grid.csv"],
]


# the weylpath modules each README command loads, besides algebra, errors and cli
README_LOADS = [[], ["coherent", "discrete"], ["coherent"], ["coherent", "discrete"],
                ["coherent", "semiclassics"], ["coherent", "discrete", "wigner"]]


@pytest.mark.parametrize(
    "argv, loads",
    list(zip(README_COMMANDS, README_LOADS)),
    ids=["symbols", "harmonic-compare", "propagate-exact", "propagate-w", "semiclassical",
         "wigner-u"],
)
def test_readme_command_loads_no_scipy(argv, loads, tmp_path, harmonic_json, quartic_json):
    # each README command in a fresh process, as a user runs it; it loads its own modules alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from weylpath.cli import main\n"
        f"status = main({argv!r})\n"
        "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m[len('weylpath.'):] for m in sys.modules if m.startswith('weylpath.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-2:] == ["0 []", repr(sorted(["algebra", "cli", "errors", *loads]))]
