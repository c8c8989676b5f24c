import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import vertextwist
from vertextwist import harness, twisted, twistop, vosa
from vertextwist.harness import SUITES, SuiteConfig, run_suite
from vertextwist.scalars import Vec


# smallest meaningful configs; twist-all and mixed-products included
PLANS = {
    "axioms": ("fermion", 2, 3),
    "jordan": ("heis3", 1, 2),
    "twisted-jacobi": ("ramond", 1, 3),
    "weak-comm": ("z2boson", 1, 3),
    "commutator": ("ramond", 1, 3),
    "equivariance": ("z2boson", 1, 3),
    "polynomiality": ("ramond", 1, 3),
    "twist-all": ("ramond", 1, 2),
    "mixed-products": ("z2boson", 1, 2),
}


def test_all_suites_execute(registry):
    assert set(PLANS) == set(SUITES)
    for suite, (model, cut, hw) in PLANS.items():
        cfg = SuiteConfig(model=model, suite=suite, max_weight=cut,
                          halfwidth=hw)
        rep = run_suite(cfg, registry)
        assert rep.ok, (suite, [r.to_json() for r in rep.records if not r.ok][:1])
        assert rep.records
        # a task is named, before it runs, by the identity its record names
        # (the generalized commutator's passing record names its second,
        # delta-derivative form)
        tasks = harness._suite_tasks(cfg, registry)
        assert [r.identity.startswith(t.identity)
                for t, r in zip(tasks, rep.records)] == [True] * len(tasks)


# checkers no suite row runs, each run by its own unit tests
UNIT_TEST_ONLY = {
    # commutativity for products of more than two operators with a twist
    # operator; a suite row would be a new scenario for the stored verdicts
    "twistop.check_mixed_permutation",
    "vosa.check_weak_commutativity",    # untwisted; A1 runs the axioms
    "twisted.ModuleBase.check_L0_grading",   # A11 runs it
    # the shared second half of two row checkers
    "twisted.check_L_minus1_sides",
}


def test_every_checker_is_a_row_or_unit_test_only():
    found = set()
    for info in pkgutil.iter_modules(vertextwist.__path__):
        module = importlib.import_module("vertextwist." + info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and name.startswith("check_"):
                found.add("%s.%s" % (info.name, name))
            elif inspect.isclass(obj):
                found |= {"%s.%s.%s" % (info.name, name, attr)
                          for attr in vars(obj) if attr.startswith("check_")}
    rows = {"%s.%s" % (row.checker.__module__.rsplit(".", 1)[1],
                       row.checker.__qualname__) for row in harness.ROWS}
    assert not rows & UNIT_TEST_ONLY
    assert found == {r for r in rows if ".check_" in r} | UNIT_TEST_ONLY


def test_identity_table_is_well_formed():
    identities = [row.identity for row in harness.ROWS]
    assert len(set(identities)) == len(identities)
    for row in harness.ROWS:
        assert row.roles[:len(row.shares)] == row.shares, row.identity
    for before, row in zip(harness.ROWS, harness.ROWS[1:]):
        # rows share loops only with the adjacent rows of their suite
        if row.shares and row.shares == before.shares:
            assert row.suite == before.suite, row.identity


def test_tasks_pass_no_placeholder_arguments(registry):
    # every argument a suite hands its checker is one the checker reads
    for suite, (model, cut, hw) in PLANS.items():
        cfg = SuiteConfig(model=model, suite=suite, max_weight=cut,
                          halfwidth=hw)
        for task in harness._suite_tasks(cfg, registry):
            bound = inspect.signature(task.func).bind(*task.args,
                                                      **task.keywords)
            assert None not in bound.arguments.values(), \
                (suite, task.func.__name__, bound.arguments)


@pytest.mark.parametrize("model", ["z2boson", "ramond"])
def test_polynomiality_records_are_distinct(registry, model):
    # a record names every input of its check, w' among them, so no two
    # records of one run read alike and a failure says which pairing failed
    rep = run_suite(SuiteConfig(model=model, suite="polynomiality",
                                max_weight=1, halfwidth=2), registry)
    seen = [json.dumps([r.identity, r.inputs], sort_keys=True)
            for r in rep.records]
    assert len(set(seen)) == len(seen), seen


def test_only_matrix_elements_take_a_dual_vector():
    # identity checkers compare vector coefficients; a w' pairing is kept
    # where it does work: the polynomiality checks and the matrix elements
    keep = {"check_product_polynomiality", "check_permutation_symmetry",
            "prefactored_product", "twist_chain", "twist_matrix_element"}
    takers = {name for module in (twisted, twistop, vosa)
              for name, obj in vars(module).items()
              if (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__
              and "wprime" in inspect.signature(obj).parameters}
    assert takers == keep


def test_ramond_mixed_products_pass(registry):
    # odd w: the twist slot's sign counts only v and the operators right of
    # it, not the twisted-module operators left of it
    rep = run_suite(SuiteConfig(model="ramond", suite="mixed-products",
                                max_weight=1, halfwidth=2), registry)
    assert len(rep.records) == 12
    assert rep.ok, [r.to_json() for r in rep.records if not r.ok][:1]


def test_suite_validation(registry):
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(model="fermion", suite="nope"), registry)
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(model="fermion", suite="axioms", max_weight=-1),
                  registry)
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(model="ramond", suite="jordan"), registry)


def test_report_schema(registry):
    rep = run_suite(SuiteConfig("ramond", "weak-comm", 1, 3), registry)
    doc = json.loads(rep.dumps())
    assert {"engine_version", "config", "records", "summary"} <= set(doc)
    for rec in doc["records"]:
        assert {"identity", "inputs", "window", "status"} <= set(rec)


def test_errored_record_names_check_and_vectors(monkeypatch, registry):
    def check_twisted_jacobi(W, u, v, w, halfwidth):
        """Stands in for the checker, with its name and signature."""
        raise RuntimeError("boom")
    monkeypatch.setattr(harness, "check_twisted_jacobi", check_twisted_jacobi)
    rep = run_suite(SuiteConfig("ramond", "twisted-jacobi", 1, 3), registry)
    first = rep.records[0]
    # the record names the identity whose check raised, with status error
    assert first.errored and first.identity == "twisted-jacobi"
    assert first.to_json()["status"] == "error"
    # the module object is left out
    assert first.inputs == {"check": "check_twisted_jacobi",
                            "u": "(1)*|()>", "v": "(1)*|()>",
                            "w": "(1)*|(0, ())>", "halfwidth": "3"}


def signature_inputs(task):
    """The inputs of a task as `inspect.signature(...).bind` names them: the
    reference for `harness._task_inputs`."""
    try:
        args = inspect.signature(task.func).bind(*task.args, **task.keywords)
    except TypeError:
        return {"check": task.func.__name__}
    return {"check": task.func.__name__, **twisted._inputs(**{
        name: value for name, value in args.arguments.items()
        if isinstance(value, (Vec, int, Fraction, str, list, tuple))})}


def test_task_inputs_match_signature_binding(registry):
    first = {}
    for suite, (model, cut, hw) in PLANS.items():
        cfg = SuiteConfig(model=model, suite=suite, max_weight=cut,
                          halfwidth=hw)
        for task in harness._suite_tasks(cfg, registry):
            first.setdefault(task.func, task)
    assert set(first) == {getattr(harness, row.checker.__name__)
                          for row in harness.ROWS}
    for task in first.values():
        assert harness._task_inputs(task) == signature_inputs(task), \
            task.func.__name__
    # arguments that do not fit the checker: too few, too many
    task = first[harness.check_axioms]
    for args in (task.args[:1], task.args + (1, 2)):
        bad = partial(task.func, *args)
        assert harness._task_inputs(bad) == signature_inputs(bad) \
            == {"check": "check_axioms"}


def test_suite_config_runs_one_thread():
    assert SuiteConfig("fermion", "axioms", jobs=1).to_json()["jobs"] == 1
    for jobs in (0, 2):
        with pytest.raises(ValueError):
            SuiteConfig("fermion", "axioms", jobs=jobs)


def test_engine_import_loads_no_pool_dataclasses_or_inspect():
    # every command starts a fresh process, so the engine's import path
    # carries only what the engine runs
    code = ("import sys; before = set(sys.modules); "
            "import vertextwist.cli, vertextwist.harness, "
            "vertextwist.automorphism, vertextwist.models; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    new = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True,
                         check=True).stdout.split()
    assert "vertextwist.harness" in new
    assert not {"concurrent.futures", "dataclasses", "inspect"} & set(new)


def test_report_digest_grid_and_one_cell(monkeypatch, registry, capsys):
    # tools/report_digest.py hashes every report without its timing; its
    # sizes are the plans above, its faults every one the engine reads,
    # and a suite cell is the report `run_suite` dumps
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "tools"))
    import report_digest
    assert report_digest.SIZES == {
        suite: (cut, hw) for suite, (_, cut, hw) in PLANS.items()}
    read = {m.group(1) for path in (root / "src" / "vertextwist").glob("*.py")
            for m in re.finditer(r'fault == "([^"]+)"', path.read_text())}
    assert set(report_digest.FAULTS) == {None} | read and len(read) == 8
    cells = dict(report_digest.cells())
    assert len(cells) == len(list(report_digest.cells()))    # names unique
    name = "clean run jordan heis3 weight-lex"
    text = report_digest.cell_text(cells[name])
    cfg = SuiteConfig(model="heis3", suite="jordan", max_weight=1,
                      halfwidth=2)
    assert text == run_suite(cfg, registry).dumps(with_timing=False)
    assert "timing_ms" not in text and json.loads(text)["summary"]["total"]
    # one line per cell, then the digest of the cell digests
    monkeypatch.setattr(report_digest, "cells", lambda: [(name, cells[name])])
    assert report_digest.main() == 0
    line, total = capsys.readouterr().out.splitlines()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert line == "%s %s" % (digest, name)
    assert total == hashlib.sha256(digest.encode()).hexdigest() + " total"
