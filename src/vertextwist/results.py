"""Check outcomes in a uniform, JSON-serializable shape, and the one verdict
path every checker ends in.

`compare` is the only place that decides a verdict: it certifies two sides
of an identity, each a Series, coefficient by coefficient on a box, and a
failure carries the box as its window and the first differing monomial with
both coefficients.  `Modes` states an identity mode by mode, as sides
side(N, k) giving the coefficient of x^{-n-1} log(x)^k, N the lattice int
of n.  `first_failure` folds the records of a sweep into its first failure,
or one pass record for the whole sweep.
"""

from __future__ import annotations

from .series import (D, Box, TermSeries, format_monomial, lattice_mono,
                     series_mismatch, window_json)


class CheckResult:
    """The outcome of one check; `errored` when the check raised instead of
    reaching a verdict."""

    def __init__(self, identity: str, ok: bool, inputs=None, window=None,
                 first_mismatch: dict = None, errored: bool = False):
        self.identity = identity
        self.ok = ok
        self.inputs = {} if inputs is None else inputs
        self.window = {} if window is None else window
        self.first_mismatch = first_mismatch
        self.time_ms = None
        self.errored = errored

    def to_json(self):
        status = "error" if self.errored else "pass" if self.ok else "fail"
        doc = {"identity": self.identity, "inputs": self.inputs,
               "window": self.window, "status": status}
        if self.first_mismatch is not None:
            doc["first_mismatch"] = self.first_mismatch
        if self.time_ms is not None:
            doc["timing_ms"] = round(self.time_ms, 3)
        return doc


def compare(identity, inputs, vars, box, lhs, rhs) -> CheckResult:
    """Certify lhs == rhs coefficient by coefficient on the box.

    Each side is a Series, read on the box.  A failure carries the first
    differing monomial in canonical order and both coefficients there, None
    standing for an absent term.
    """
    mismatch = series_mismatch(lhs, rhs, box)
    window = window_json(vars, box)
    if mismatch is None:
        return CheckResult(identity, True, inputs, window)
    m, a, b = mismatch
    return CheckResult(identity, False, inputs, window, {
        "monomial": format_monomial(m, vars), "lhs": str(a), "rhs": str(b)})


class Modes:
    """The modes n = -e-1 of Y(u, x) at the exponents e of a sweep, a
    sequence of lattice ints, with the log powers k <= logcap: rows of the
    lattice int N of n, k and the monomial, built once, and the box they
    span, so that no mode is clipped."""

    vars = ("x",)

    def __init__(self, exponents, logcap=0):
        self.box = Box((min(exponents),), (max(exponents),), (logcap,))
        self.rows = [(-p - D, k, lattice_mono((p,), (k,)))
                     for p in exponents for k in range(logcap + 1)]

    def compare(self, identity, inputs, lhs, rhs) -> CheckResult:
        """`compare` of the sides lhs(N, k) and rhs(N, k), each giving the
        coefficient of x^{-n-1} log(x)^k, N the lattice int of n."""
        return compare(identity, inputs, self.vars, self.box, *(
            TermSeries(self.vars, {m: side(N, k) for N, k, m in self.rows})
            for side in (lhs, rhs)))


def first_failure(identity, inputs, records) -> CheckResult:
    """The first failing record of a sweep, or one pass record for it all;
    records may be a generator, which is read no further than a failure."""
    for r in records:
        if not r.ok:
            return r
    return CheckResult(identity, True, inputs)
