import importlib
import inspect
import json
import pkgutil
import sys

import pytest

import vertextwist
from vertextwist import harness, twisted, twistop, vosa
from vertextwist.harness import SUITES, SuiteConfig, run_suite
from vertextwist.models import Registry
from vertextwist.results import CheckResult


@pytest.fixture(scope="module")
def registry():
    return Registry()


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


def test_parallel_matches_serial(registry):
    a = run_suite(SuiteConfig("ramond", "commutator", 1, 3, jobs=1),
                  registry).to_json(with_timing=False)
    b = run_suite(SuiteConfig("ramond", "commutator", 1, 3, jobs=4),
                  registry).to_json(with_timing=False)
    assert a["records"] == b["records"] and a["summary"] == b["summary"]


def test_parallel_matches_serial_on_cold_modules():
    # each side builds its own modules, so the threads of the parallel side
    # fill the shared memo and twist-slot tables from cold; a short switch
    # interval interleaves them often
    a = run_suite(SuiteConfig("z2boson", "twist-all", 1, 2, jobs=1),
                  Registry()).to_json(with_timing=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        b = run_suite(SuiteConfig("z2boson", "twist-all", 1, 2, jobs=2),
                      Registry()).to_json(with_timing=False)
    finally:
        sys.setswitchinterval(interval)
    assert a["records"] == b["records"] and a["summary"] == b["summary"]


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


def test_jobs_capped_at_cpu_count(monkeypatch):
    pools = []

    class Recorder:
        """Stands in for the pool: records its size, starts no thread."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recorder)
    tasks = [lambda: CheckResult("x", True)] * 3
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    assert [r.ok for r in harness._run_all(tasks, 10 ** 6)] == [True] * 3
    assert harness._run_all(tasks, 2) and pools == [3, 2]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    assert len(harness._run_all(tasks, 10 ** 6)) == 3 and pools == [3, 2]
