"""Check outcomes in a uniform, JSON-serializable shape, and the comparator
that turns two expanded sides of an identity into one."""

from __future__ import annotations

from dataclasses import dataclass, field

from .series import (Series, TermSeries, format_monomial, series_mismatch,
                     window_json)


@dataclass
class CheckResult:
    identity: str
    ok: bool
    inputs: dict = field(default_factory=dict)
    window: dict = field(default_factory=dict)
    first_mismatch: dict = None
    time_ms: float = None
    errored: bool = False     # the check raised instead of reaching a verdict

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

    Each side is a Series or a {monomial: coefficient} dict; a dict is read
    on the box with its zero coefficients dropped.  A failure carries the
    first differing monomial in canonical order and both coefficients there,
    None standing for an absent term.
    """
    mismatch = series_mismatch(_as_series(lhs, vars), _as_series(rhs, vars),
                               box)
    window = window_json(vars, box)
    if mismatch is None:
        return CheckResult(identity, True, inputs, window)
    m, a, b = mismatch
    return CheckResult(identity, False, inputs, window, {
        "monomial": format_monomial(m, vars), "lhs": repr(a), "rhs": repr(b)})


def _as_series(side, vars) -> Series:
    return side if isinstance(side, Series) else TermSeries(vars, side)
