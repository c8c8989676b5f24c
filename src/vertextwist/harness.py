"""Batch verification driver: suites, reports, parallel execution."""

from __future__ import annotations

import inspect
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product

from . import __version__
from .automorphism import (check_conjugation, check_derivation,
                           check_homomorphism, jordan_decompose)
from .results import CheckResult, first_failure
from .scalars import Vec
from .series import Box
from .twisted import (check_commutator_formula, check_equivariance,
                      check_g_compatibility, check_L_minus1_derivative_W,
                      check_permutation_symmetry, check_product_polynomiality,
                      check_twisted_jacobi, check_twisted_weak_commutativity,
                      check_y0_decomposition)
from .twistop import (check_gen_commutator, check_gen_weak_commutativity,
                      check_L_minus1_twist, check_mixed_product,
                      check_twist_decomposition, check_twist_jacobi,
                      check_twist_vacuum_identity, check_weak_associativity)
from .vosa import check_axioms

SUITES = ("axioms", "jordan", "twisted-jacobi", "weak-comm", "commutator",
          "equivariance", "polynomiality", "twist-all", "mixed-products")


@dataclass
class SuiteConfig:
    model: str
    suite: str
    max_weight: Fraction = Fraction(2)
    halfwidth: int = 4
    log_bound: int = None
    jobs: int = 1
    basis_order: str = "weight-lex"

    def validate(self):
        if self.suite not in SUITES:
            raise ValueError("unknown suite id %r (known: %s)"
                             % (self.suite, ", ".join(SUITES)))
        if self.max_weight <= 0 or self.halfwidth <= 0:
            raise ValueError("cutoff and window must be positive")
        # the window and the log bound must fit a packed monomial's fields:
        # MonomialOverflow, a ValueError, when they do not
        Box.cube(1, -self.halfwidth, self.halfwidth, self.log_bound or 0)
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1, got %d" % self.jobs)
        if self.basis_order not in ("weight-lex", "weight-revlex"):
            raise ValueError("unknown basis order %r" % self.basis_order)

    def to_json(self):
        return {"model": self.model, "suite": self.suite,
                "max_weight": str(self.max_weight),
                "window_halfwidth": self.halfwidth,
                "log_bound": self.log_bound, "jobs": self.jobs,
                "basis_order": self.basis_order}


@dataclass
class Report:
    config: SuiteConfig
    records: list = field(default_factory=list)

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
        res = CheckResult("error", False, _task_inputs(task),
                          first_mismatch={"error": repr(exc)}, errored=True)
    if isinstance(res, list):  # check_axioms: one result per axiom
        res = first_failure("axioms", {"checks": len(res)}, res)
    res.time_ms = (time.monotonic() - t0) * 1000.0
    return res


def _task_inputs(task: partial) -> dict:
    """The checker a task calls and its vector, number and text arguments;
    vectors as repr, the rest as str."""
    out = {"check": task.func.__name__}
    try:
        args = inspect.signature(task.func).bind(*task.args, **task.keywords)
    except TypeError:          # the arguments do not fit: the crash says so
        return out
    for name, value in args.arguments.items():
        if isinstance(value, Vec):
            out[name] = repr(value)
        elif isinstance(value, (int, Fraction, str, list, tuple)):
            out[name] = str(value)
    return out


def _run_all(tasks, jobs: int):
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return [_timed(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_timed, tasks))


def _algebra_basis_vectors(V, cutoff, order):
    return [Vec.basis(k) for k in V.basis(cutoff, order)]


def _suite_tasks(cfg: SuiteConfig, registry):
    kind, obj = registry.resolve(cfg.model)
    hw = cfg.halfwidth
    cut = cfg.max_weight
    order = cfg.basis_order

    if cfg.suite == "axioms":
        V = obj.algebra if kind == "algebra" else obj.V
        return [partial(check_axioms, V, cut, hw)]

    if cfg.suite == "jordan":
        if kind != "algebra":
            raise ValueError("jordan suite runs on an algebra model id")
        V = obj.algebra
        tasks = []
        for name, g in sorted(obj.automorphisms.items()):
            tasks += [partial(_jordan_record, g, name, cut),
                      partial(check_homomorphism, V, g.apply, cut, hw),
                      partial(check_homomorphism, V, g.unipotent_exp, cut, hw),
                      partial(check_homomorphism, V, g.semisimple_exp, cut, hw),
                      partial(check_derivation, V, g, cut, hw),
                      partial(check_conjugation, V, g, cut, hw)]
        return tasks

    if kind != "twisted":
        raise ValueError("suite %r runs on a twisted module id" % cfg.suite)
    W = obj
    if cfg.log_bound is not None and W.log_bound > cfg.log_bound:
        raise ValueError(
            "module carries log powers up to %d, beyond the declared bound %d"
            % (W.log_bound, cfg.log_bound))
    V = W.V
    us = _algebra_basis_vectors(V, cut, order)
    ws = [Vec.basis(k) for k in W.basis(cut, order)]
    uvw = list(product(us, us, ws))
    uw = list(product(us, ws))

    if cfg.suite == "twisted-jacobi":
        return [partial(check_twisted_jacobi, W, u, v, w, hw)
                for u, v, w in uvw]
    if cfg.suite == "weak-comm":
        return [partial(check_twisted_weak_commutativity, W, u, v, w, hw)
                for u, v, w in uvw] \
            + [partial(check_L_minus1_derivative_W, W, u, w, hw)
               for u, w in uw]
    if cfg.suite == "commutator":
        return [partial(check_commutator_formula, W, u, v, w, hw)
                for u, v, w in uvw]
    if cfg.suite == "equivariance":
        return [t for u, w in uw
                for t in (partial(check_equivariance, W, u, w, hw),
                          partial(check_g_compatibility, W, u, w, hw))]
    gens = [V.gen_vector(g.name) for g in V.gens]
    if cfg.suite == "polynomiality":
        tasks = []
        for w in ws:
            tasks += [partial(check_product_polynomiality, W, [u, u], w, wp,
                              hw) for wp in ws for u in gens]
            tasks += [partial(check_product_polynomiality, W, [gens[0]] * 3,
                              w, ws[0], hw),
                      partial(check_permutation_symmetry, W,
                              [gens[0], gens[0]], w, ws[0], [1, 0], hw)]
        return tasks
    if cfg.suite == "twist-all":
        triples = (check_weak_associativity, check_twist_jacobi,
                   check_gen_commutator, check_gen_weak_commutativity)
        return [partial(check_twist_vacuum_identity, W, w, hw) for w in ws] \
            + [partial(check, W, u, v, w, hw) for u, v, w in uvw
               for check in triples] \
            + [partial(check, W, w, v, hw) for w in ws for v in us
               for check in (check_twist_decomposition, check_L_minus1_twist)] \
            + [partial(check_y0_decomposition, W, u, w, hw)
               for u, w in uw]
    if cfg.suite == "mixed-products":
        one = Vec.basis(V.vac)
        return [partial(check_mixed_product, W, tw, w, alg, v, hw)
                for w in ws for u in gens
                for tw, alg, v in (([u], [], u), ([u], [u], one), ([], [], u))]
    raise ValueError("unhandled suite %r" % cfg.suite)


def _jordan_record(g, name, cutoff) -> CheckResult:
    jd = jordan_decompose(g, cutoff)
    return CheckResult("jordan-decomposition", True,
                       {"automorphism": name,
                        "spectrum": [str(a) for a in jd.spectrum]})


def run_suite(cfg: SuiteConfig, registry) -> Report:
    cfg.validate()
    tasks = _suite_tasks(cfg, registry)
    records = _run_all(tasks, cfg.jobs)
    return Report(cfg, records)
