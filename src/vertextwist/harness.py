"""Batch verification driver: the identity table, suites, reports.

`ROWS` is the one table of the identities the suites certify, and `sweep`
the one builder of their sweeps: `_suite_tasks` hands it a suite's rows
with the role domains its configuration gives, and the acceptance tests
single rows with their own cutoffs, windows and input lists.  A task
carries its row's identity, so a check that raises is recorded under it.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import groupby, product
from operator import attrgetter
from types import SimpleNamespace

from . import __version__
from .automorphism import (check_conjugation, check_derivation,
                           check_homomorphism, jordan_decompose)
from .results import CheckResult, first_failure
from .scalars import Vec
from .series import Box
from .twisted import (_inputs, check_commutator_formula, check_equivariance,
                      check_g_compatibility, check_L_minus1_derivative_W,
                      check_permutation_symmetry, check_product_polynomiality,
                      check_twisted_jacobi, check_twisted_weak_commutativity,
                      check_y0_decomposition)
from .twistop import (check_gen_commutator, check_gen_weak_commutativity,
                      check_L_minus1_twist, check_mixed_product,
                      check_twist_decomposition, check_twist_jacobi,
                      check_twist_vacuum_identity, check_weak_associativity)
from .vosa import check_axioms


def _jordan_record(g, cutoff) -> CheckResult:
    jd = jordan_decompose(g, cutoff)
    return CheckResult("jordan-decomposition", True,
                       {"automorphism": g.name,
                        "spectrum": [str(a) for a in jd.spectrum]})


# A row: an identity, its checker, its suite, the roles it sweeps (outermost
# first), the checker's arguments from a namespace of the context (V, W,
# cut, hw) and one value per role, by default (W, *role values, hw), and
# the leading roles whose loops it shares with the adjacent rows that name
# the same.  Its checker is called through this module's global of its
# name, read when a sweep is built, so a checker patched here is the one run.
Row = namedtuple("Row", "identity checker suite roles args shares",
                 defaults=(None, ()))
G, UVW, UW, WV = ("g",), ("u", "v", "w"), ("u", "w"), ("w", "v")
_on_g = attrgetter("V", "g", "cut", "hw")
ROWS = (
    Row("axioms", check_axioms, "axioms", (), attrgetter("V", "cut", "hw")),
    Row("jordan-decomposition", _jordan_record, "jordan", G,
        attrgetter("g", "cut"), G),
    Row("automorphism-homomorphism", check_homomorphism, "jordan",
        ("g", "map"), lambda a: (a.V, getattr(a.g, a.map), a.cut, a.hw), G),
    Row("nilpotent-derivation", check_derivation, "jordan", G, _on_g, G),
    Row("nilpotent-conjugation", check_conjugation, "jordan", G, _on_g, G),
    Row("twisted-jacobi", check_twisted_jacobi, "twisted-jacobi", UVW),
    Row("twisted-weak-commutativity", check_twisted_weak_commutativity,
        "weak-comm", UVW),
    Row("L(-1)-derivative-W", check_L_minus1_derivative_W, "weak-comm", UW),
    Row("commutator-formula", check_commutator_formula, "commutator", UVW),
    Row("equivariance", check_equivariance, "equivariance", UW, shares=UW),
    Row("g-compatibility", check_g_compatibility, "equivariance", UW,
        shares=UW),
    # product: (operators, w'); permuted: (operators, w', order)
    Row("product-polynomiality", check_product_polynomiality,
        "polynomiality", ("w", "product"),
        lambda a: (a.W, a.product[0], a.w, a.product[1], a.hw), ("w",)),
    Row("permutation-symmetry", check_permutation_symmetry, "polynomiality",
        ("w", "permuted"),
        lambda a: (a.W, a.permuted[0], a.w, *a.permuted[1:], a.hw), ("w",)),
    Row("twist-vacuum-identity", check_twist_vacuum_identity, "twist-all",
        ("w",)),
    Row("weak-associativity", check_weak_associativity, "twist-all", UVW,
        shares=UVW),
    Row("twist-jacobi", check_twist_jacobi, "twist-all", UVW, shares=UVW),
    Row("generalized-commutator", check_gen_commutator, "twist-all", UVW,
        shares=UVW),
    Row("generalized-weak-commutativity", check_gen_weak_commutativity,
        "twist-all", UVW, shares=UVW),
    Row("twist-decomposition", check_twist_decomposition, "twist-all", WV,
        shares=WV),
    Row("L(-1)-twist", check_L_minus1_twist, "twist-all", WV, shares=WV),
    Row("log-decomposition", check_y0_decomposition, "twist-all", UW),
    # mixed: (operators left of the twist slot, operators right of it, v)
    Row("mixed-product-recentred", check_mixed_product, "mixed-products",
        ("w", "mixed"), lambda a: (a.W, a.mixed[0], a.w, *a.mixed[1:], a.hw)),
)
_ROW = {row.identity: row for row in ROWS}
SUITES = tuple(dict.fromkeys(row.suite for row in ROWS))


def sweep(identities, domains, **context) -> list:
    """The tasks of the rows of these identities, in report order, each a
    partial that carries its row's identity."""
    tasks = []
    for shared, rows in groupby(map(_ROW.__getitem__, identities),
                                attrgetter("shares")):
        rows = list(rows)
        for head in product(*(domains[r] for r in shared)):
            for row in rows:
                check = globals()[row.checker.__name__]
                for tail in product(*(domains[r]
                                      for r in row.roles[len(shared):])):
                    a = SimpleNamespace(**context,
                                        **dict(zip(row.roles, head + tail)))
                    tasks.append(partial(check, *(
                        row.args(a) if row.args else
                        (a.W, *head, *tail, a.hw))))
                    tasks[-1].identity = row.identity
    return tasks


def module_roles(W, cutoff, order="weight-lex", alg_cutoff=None) -> dict:
    """The role domains of the twisted suites on W: u and v over the algebra
    basis to `alg_cutoff` (default `cutoff`), w over the module basis to
    `cutoff`, and the operators of the product rows over the generators."""
    V = W.V
    us = [Vec.basis(k) for k in V.basis(alg_cutoff or cutoff, order)]
    ws = [Vec.basis(k) for k in W.basis(cutoff, order)]
    gens = [V.gen_vector(g.name) for g in V.gens]
    one = Vec.basis(V.vac)
    return {"u": us, "v": us, "w": ws,
            "product": [([u, u], wp) for wp in ws for u in gens]
            + [([gens[0]] * 3, ws[0])],
            "permuted": [([gens[0]] * 2, ws[0], [1, 0])],
            "mixed": [m for u in gens for m in (([u], [], u), ([u], [u], one),
                                                ([], [], u))]}


class SuiteConfig:
    """One suite run.  Checks run in one thread: `jobs` is accepted only as
    1, the value a report states."""

    def __init__(self, model: str, suite: str, max_weight=Fraction(2),
                 halfwidth: int = 4, log_bound: int = None, jobs: int = 1,
                 basis_order: str = "weight-lex"):
        if jobs != 1:
            raise ValueError("checks run in one thread; jobs must be 1, "
                             "got %r" % (jobs,))
        self.model = model
        self.suite = suite
        self.max_weight = max_weight
        self.halfwidth = halfwidth
        self.log_bound = log_bound
        self.basis_order = basis_order

    def validate(self):
        if self.suite not in SUITES:
            raise ValueError("unknown suite id %r (known: %s)"
                             % (self.suite, ", ".join(SUITES)))
        if self.max_weight <= 0 or self.halfwidth <= 0:
            raise ValueError("cutoff and window must be positive")
        # the window and the log bound must fit a packed monomial's fields:
        # MonomialOverflow, a ValueError, when they do not
        Box.cube(1, -self.halfwidth, self.halfwidth, self.log_bound or 0)
        if self.basis_order not in ("weight-lex", "weight-revlex"):
            raise ValueError("unknown basis order %r" % self.basis_order)

    def to_json(self):
        return {"model": self.model, "suite": self.suite,
                "max_weight": str(self.max_weight),
                "window_halfwidth": self.halfwidth,
                "log_bound": self.log_bound, "jobs": 1,
                "basis_order": self.basis_order}


class Report:
    def __init__(self, config: SuiteConfig, records: list):
        self.config = config
        self.records = records

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def to_json(self, with_timing=True):
        recs = []
        for r in self.records:
            doc = r.to_json()
            if not with_timing:
                doc.pop("timing_ms", None)
            recs.append(doc)
        return {
            "engine_version": __version__,
            "config": self.config.to_json(),
            "records": recs,
            "summary": {"total": len(self.records),
                        "passed": sum(1 for r in self.records if r.ok),
                        "failed": sum(1 for r in self.records if not r.ok)},
        }

    def dumps(self, with_timing=True) -> str:
        return json.dumps(self.to_json(with_timing), indent=2, sort_keys=True)


def _timed(task):
    t0 = time.monotonic()
    try:
        res = task()
    except Exception as exc:   # a crashed check is an error, not a failure
        res = CheckResult(task.identity, False, _task_inputs(task),
                          first_mismatch={"error": repr(exc)}, errored=True)
    if isinstance(res, list):  # check_axioms: one result per axiom
        res = first_failure("axioms", {"checks": len(res)}, res)
    res.time_ms = (time.monotonic() - t0) * 1000.0
    return res


def _task_inputs(task: partial) -> dict:
    """The checker a task calls and its vector, number and text arguments,
    named as the checker's code names its positional parameters."""
    code = task.func.__code__
    names = code.co_varnames[:code.co_argcount]
    required = len(names) - len(task.func.__defaults__ or ())
    if not required <= len(task.args) <= len(names):
        return {"check": task.func.__name__}   # the crash says so
    return {"check": task.func.__name__, **_inputs(**{
        name: value for name, value in zip(names, task.args)
        if isinstance(value, (Vec, int, Fraction, str, list, tuple))})}


def _suite_tasks(cfg: SuiteConfig, registry):
    kind, obj = registry.resolve(cfg.model)
    rows = [row for row in ROWS if row.suite == cfg.suite]
    if kind == "algebra":
        V, W, domains = obj.algebra, None, {
            "g": [obj.automorphisms[n] for n in sorted(obj.automorphisms)],
            "map": ("apply", "unipotent_exp", "semisimple_exp")}
    elif cfg.log_bound is not None and obj.log_bound > cfg.log_bound:
        raise ValueError(
            "module carries log powers up to %d, beyond the declared bound %d"
            % (obj.log_bound, cfg.log_bound))
    else:
        V, W = obj.V, obj
        domains = module_roles(W, cfg.max_weight, cfg.basis_order)
    if not {r for row in rows for r in row.roles} <= domains.keys():
        raise ValueError("suite %r runs on %s" % (cfg.suite, (
            "a twisted module id" if kind == "algebra"
            else "an algebra model id")))
    return sweep([row.identity for row in rows], domains, V=V, W=W,
                 cut=cfg.max_weight, hw=cfg.halfwidth)


def run_suite(cfg: SuiteConfig, registry) -> Report:
    cfg.validate()
    tasks = _suite_tasks(cfg, registry)
    return Report(cfg, [_timed(t) for t in tasks])
