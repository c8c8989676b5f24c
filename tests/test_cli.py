import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vertextwist import harness
from vertextwist.cli import main
from vertextwist.errors import MonomialOverflow
from vertextwist.harness import SuiteConfig, run_suite
from vertextwist.models import Registry
from vertextwist.series import _LIMIT, D

# the least window half-width and log bound beyond the packed field range
WIDE_WINDOW = str(_LIMIT // D)
WIDE_LOGS = str(_LIMIT)
SRC = Path(__file__).resolve().parent.parent / "src"


def test_expand_fermion_two_point(capsys):
    rc = main(["expand", "fermion", "Y(psi,x) psi", "--window", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "x^-1" in out


def test_expand_twist_leading(capsys):
    rc = main(["expand", "ramond", "Ytw(vac,x) psi", "--window", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    # leading term e^(-pi i/2) 2^(-1/2) x^(-1/2), in canonical phase form
    assert "x^-1/2" in out and "-1/2*e(1/4) + -1/2*e(3/4)" in out


def test_expand_parse_error():
    assert main(["expand", "fermion", "Y(vac"]) == 2


def test_expand_mode_application(capsys):
    rc = main(["expand", "fermion", "Y(psi(-3/2) 1, x) psi", "--window", "4"])
    assert rc == 0
    assert "x^-2" in capsys.readouterr().out


@pytest.mark.parametrize("expression,written", [
    ("Ytw(vac,x)vac", "Ytw"), ("Ytw(vac,x)Y(h,y)vac", "Y")])
def test_space_error_names_the_written_operator(capsys, expression, written):
    assert main(["expand", "z2boson", expression]) == 2
    assert capsys.readouterr().err == (
        "error: operator %r cannot act on a W-space state\n" % written)


def test_unknown_suite_exit_2(capsys):
    rc = main(["run", "--model", "fermion", "--suite", "nonsense"])
    assert rc == 2


def test_unknown_model_exit_2(capsys):
    rc = main(["run", "--model", "nope", "--suite", "axioms"])
    assert rc == 2


@pytest.mark.parametrize("argv,message", [
    (["run", "--model", "nope", "--suite", "axioms"],
     "unknown model id 'nope'"),
    (["decompose", "heis3", "nope"],
     "unknown automorphism 'nope' of heis3 (known: unipotent)"),
    (["expand", "fermion", "Y(nope,x) psi"],
     "unknown generator 'nope' (known: psi)")])
def test_unknown_name_error_says_what_is_unknown(argv, message, capsys):
    # the message itself, not the quoted repr str() gives a KeyError
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def test_run_axioms_exit_0(tmp_path, capsys):
    rc = main(["run", "--model", "fermion", "--suite", "axioms",
               "--max-weight", "2", "--window", "3",
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["summary"]["failed"] == 0
    assert doc["engine_version"]


def test_run_equivariance_twisted(capsys):
    rc = main(["run", "--model", "ramond", "--suite", "equivariance",
               "--max-weight", "1", "--window", "3"])
    assert rc == 0


def test_decompose_parity(capsys):
    rc = main(["decompose", "fermion", "parity", "--max-weight", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["spectrum"] == ["0", "1/2"]


def test_decompose_unipotent(capsys):
    rc = main(["decompose", "heis3", "unipotent", "--max-weight", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["blocks"]["1"]["nilpotency_index"] == 3


def test_dump_basis_deterministic(capsys):
    assert main(["dump-basis", "fermion", "--max-weight", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["dump-basis", "fermion", "--max-weight", "2"]) == 0
    assert capsys.readouterr().out == first


def test_report_determinism_modulo_timing():
    reg = Registry()
    cfg = SuiteConfig(model="ramond", suite="weak-comm", max_weight=1,
                      halfwidth=3)
    a = run_suite(cfg, reg).dumps(with_timing=False)
    reg2 = Registry()
    cfg2 = SuiteConfig(model="ramond", suite="weak-comm", max_weight=1,
                       halfwidth=3)
    b = run_suite(cfg2, reg2).dumps(with_timing=False)
    assert a == b


def test_bad_max_weight_exit_2(capsys):
    assert main(["run", "--model", "fermion", "--suite", "axioms",
                 "--max-weight", "abc"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["dump-basis", "fermion", "--max-weight", "x"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", [
    ["run", "--model", "fermion", "--suite", "axioms"],
    ["decompose", "heis3", "unipotent"], ["dump-basis", "fermion"]])
@pytest.mark.parametrize("cutoff", ["-1", "0"])
def test_cutoff_not_positive_exit_2(command, cutoff, capsys):
    # every command refuses the cutoff before it prints anything
    assert main(command + ["--max-weight", cutoff]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == "error: --max-weight must be positive, got %s\n" % cutoff


def test_run_detects_fault():
    # (fault, suite, max weight, halfwidth, failed, total, L(-1)-twist fails)
    for fault, suite, cut, hw, failed, total, lm1 in (
            ("twisted-seed-sign", "twisted-jacobi", 1, 3, 4, 16, 0),
            ("zero-mode-sector-sign", "twist-all", Fraction(1, 2), 2, 18, 46,
             2)):
        cfg = SuiteConfig(model="ramond", suite=suite, max_weight=cut,
                          halfwidth=hw)
        rep = run_suite(cfg, Registry(fault=fault))
        bad = [r for r in rep.records if not r.ok]
        assert (len(bad), len(rep.records)) == (failed, total), fault
        assert all(r.first_mismatch["monomial"] for r in bad), fault
        assert sum(r.identity == "L(-1)-twist" for r in bad) == lm1, fault


def test_crashed_check_is_error_exit_2(monkeypatch, tmp_path, capsys):
    def check_axioms(V, max_weight, halfwidth=4):
        """Stands in for the checker, with its name and signature."""
        raise RuntimeError("boom")
    monkeypatch.setattr(harness, "check_axioms", check_axioms)
    path = tmp_path / "r.json"
    assert main(["run", "--model", "fermion", "--suite", "axioms",
                 "--max-weight", "1", "--window", "2",
                 "--report", str(path)]) == 2
    inputs = {"check": "check_axioms", "max_weight": "1", "halfwidth": "2"}
    assert capsys.readouterr().out.splitlines()[-1] == \
        "ERROR axioms %s {'error': \"RuntimeError('boom')\"}" % inputs
    doc = json.loads(path.read_text())
    assert doc["records"] == [{
        "identity": "axioms", "inputs": inputs, "window": {}, "status": "error",
        "first_mismatch": {"error": "RuntimeError('boom')"},
        "timing_ms": doc["records"][0]["timing_ms"]}]
    assert doc["summary"] == {"total": 1, "passed": 0, "failed": 1}


@pytest.mark.parametrize("argv", [
    ["run", "--model", "fermion", "--suite", "axioms", "--max-weight", "1/0"],
    ["decompose", "heis3", "unipotent", "--max-weight", "1/0"],
    ["dump-basis", "ramond", "--max-weight", "1/0"],
    ["expand", "fermion", "Y(psi(1/0) 1, x) psi"]])
def test_zero_denominator_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_truncated_expression_exit_2(capsys):
    assert main(["expand", "ramond", "Y(psi,x)"]) == 2
    assert capsys.readouterr().err == \
        "error: unexpected end of expression\n"


@pytest.mark.parametrize("expression", ["Y(psi,x) psi!!",
                                        "Y(psi,x) psi extra"])
def test_unparsed_input_exit_2(expression, capsys):
    # a character no token matches, or a token after the expression, is a
    # parse error rather than a dropped suffix
    assert main(["expand", "fermion", expression]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unexpected"), err


@pytest.mark.parametrize("expression", ["Y(psi,,) 1", "Y(psi,1) 1",
                                        "Y(psi,vac) 1",
                                        "Y(psi,x) Y(psi,x) 1"])
def test_bad_variable_exit_2(expression, capsys):
    # a variable is a plain identifier the grammar does not reserve, and
    # names one operator's variable only
    assert main(["expand", "fermion", expression]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("expression", ["Y(Y(psi,y) psi, x) 1",
                                        "Y(psi(-1/2) Y(psi,y) 1, x) 1"])
def test_nested_operator_exit_2(expression, capsys):
    # an operator's argument is a state, so an operator inside it is
    # refused as nesting, not as a misplaced comma
    assert main(["expand", "fermion", expression]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: nested operator 'Y': nesting is not supported\n"


@pytest.mark.parametrize("window", ["0", "-1"])
def test_expand_window_not_positive_exit_2(window, capsys):
    assert main(["expand", "fermion", "Y(psi,x) psi", "--window", window]) \
        == 2
    assert capsys.readouterr().err == "error: window must be positive\n"


@pytest.mark.parametrize("argv", [
    ["run", "--model", "ramond", "--suite", "equivariance",
     "--window", WIDE_WINDOW],
    ["run", "--model", "ramond", "--suite", "equivariance",
     "--log-bound", WIDE_LOGS],
    ["expand", "fermion", "Y(psi,x) psi", "--window", WIDE_WINDOW]])
def test_window_beyond_packed_range_exit_2(argv, capsys):
    # a window or log bound that no packed monomial field holds is refused
    # before any check runs, with an error line rather than a traceback
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: monomial field %d outside the packed range"
                          % _LIMIT), err


def test_window_at_packed_range_edge_is_valid():
    top = SuiteConfig(model="ramond", suite="equivariance",
                      halfwidth=int(WIDE_WINDOW) - 1,
                      log_bound=int(WIDE_LOGS) - 1)
    top.validate()
    for wide in ({"halfwidth": int(WIDE_WINDOW)},
                 {"log_bound": int(WIDE_LOGS)}):
        cfg = SuiteConfig(model="ramond", suite="equivariance", **wide)
        with pytest.raises(MonomialOverflow):
            cfg.validate()


@pytest.mark.parametrize("expression", ["Y(psi,x) vac+", "Y(psi,x) vac-",
                                        "Y(vac-,x) psi"])
def test_module_vacuum_on_an_algebra_id_exit_2(expression, capsys):
    # vac+ and vac- are the vacua of a twisted module; an algebra has one
    assert main(["expand", "fermion", expression]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "twisted module id" in captured.err


def test_algebra_vacuum_names_on_an_algebra_id(capsys):
    # 1 and vac both name the algebra's vacuum on an algebra id
    outs = []
    for vacuum in ("1", "vac"):
        assert main(["expand", "fermion", "Y(psi,x) " + vacuum]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0] != "0\n"


def test_expand_mode_off_the_lattice_is_zero(capsys):
    # psi(1/3) has no mode on the (1/16)Z lattice, so it acts as zero
    assert main(["expand", "fermion", "Y(psi(1/3) 1,x) psi"]) == 0
    assert capsys.readouterr().out == "0\n"


def _python_m(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "vertextwist", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_python_m_runs_the_cli():
    run = ["run", "--model", "z2boson", "--suite", "twist-all",
           "--window", "1", "--max-weight"]
    ok = _python_m(*run, "1/2")
    assert ok.returncode == 0, ok.stderr
    bad = _python_m(*run, "-1")
    assert bad.returncode == 2
    assert [line for line in bad.stderr.splitlines()
            if line.startswith("error:")] == [bad.stderr.strip()]
