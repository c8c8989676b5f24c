"""One sha256 per engine report, timing left out, over a fixed grid.

Usage, from the root of a checkout:

    python3 tools/report_digest.py

Prints one line per grid cell, the sha256 of its output and the cell's
name, then the sha256 of all cell digests in order as `total`.  Two
checkouts whose reports are byte-identical print the same lines.  The grid,
run clean and under each fault the engine reads:

- every suite on every model id it runs on, at the cutoff and window of
  the smallest test plan of each suite, in both basis orders, each report
  dumped with `Report.dumps(with_timing=False)`;
- `decompose` of each automorphism at weight 3, `dump-basis` of each id
  at weight 2 in both basis orders, and `expand` of a few expressions on
  each id, as text and as JSON, at window 2, as the command line prints
  them.

A cell that raises has the exception's repr as its output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vertextwist import cli, harness  # noqa: E402
from vertextwist.models import Registry  # noqa: E402

# suite: (cutoff, window half-width), the plans of tests/test_harness.py
SIZES = {"axioms": (2, 3), "jordan": (1, 2), "twisted-jacobi": (1, 3),
         "weak-comm": (1, 3), "commutator": (1, 3), "equivariance": (1, 3),
         "polynomiality": (1, 3), "twist-all": (1, 2),
         "mixed-products": (1, 2)}
FAULTS = (None, "bracket-sign", "clifford-sign", "creation-sign",
          "omega-scale", "twisted-bracket-sign", "twisted-seed-sign",
          "zero-mode-scale", "zero-mode-sector-sign")
ORDERS = ("weight-lex", "weight-revlex")
EXPANSIONS = (("fermion", "Y(psi,x) psi"),
              ("fermion", "Y(psi(-3/2) 1, x) psi"),
              ("boson1", "Y(h,x) h"), ("heis3", "Y(a,x) b"),
              ("ramond", "Ytw(vac,x) psi"),
              ("ramond", "Yg(psi,x) Ytw(vac-,y) psi"),
              ("z2boson", "Ytw(vac,x) h"),
              ("z2boson", "Yg(h,x) Ytw(vac,y) h"))
ALGEBRA_ROLES = {"g", "map"}


def _suite_cell(registry, model, suite, order):
    cut, hw = SIZES[suite]
    cfg = harness.SuiteConfig(model=model, suite=suite, max_weight=cut,
                              halfwidth=hw, basis_order=order)
    return lambda: harness.run_suite(cfg, registry).dumps(with_timing=False)


def _cli_cell(registry, argv):
    def run():
        args = cli.build_parser().parse_args(argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            args.func(args, registry)
        return out.getvalue()
    return run


def cells():
    """(name, text function) for every cell of the grid, in print order."""
    clean = Registry().bundles()
    algebras = [b.id for b in clean]
    modules = [t for b in clean for t in sorted(b.twisted)]
    for fault in FAULTS:
        registry = Registry(fault)
        tag = fault or "clean"
        for suite in harness.SUITES:
            roles = {r for row in harness.ROWS if row.suite == suite
                     for r in row.roles}
            for model in algebras if roles <= ALGEBRA_ROLES else modules:
                for order in ORDERS:
                    yield ("%s run %s %s %s" % (tag, suite, model, order),
                           _suite_cell(registry, model, suite, order))
        for b in clean:
            for g in sorted(b.automorphisms):
                yield ("%s decompose %s %s" % (tag, b.id, g),
                       _cli_cell(registry, ["decompose", b.id, g,
                                            "--max-weight", "3"]))
        for model in algebras + modules:
            for order in ORDERS:
                yield ("%s dump-basis %s %s" % (tag, model, order),
                       _cli_cell(registry, ["dump-basis", model,
                                            "--max-weight", "2",
                                            "--seed-order", order]))
        for model, text in EXPANSIONS:
            for form in ([], ["--json"]):
                yield ("%s expand %s %r%s" % (tag, model, text,
                                              " --json" if form else ""),
                       _cli_cell(registry, ["expand", model, text,
                                            "--window", "2", *form]))


def cell_text(fn) -> str:
    try:
        return fn()
    except Exception as exc:
        return "raised %r" % (exc,)


def main() -> int:
    total = hashlib.sha256()
    for name, fn in cells():
        digest = hashlib.sha256(cell_text(fn).encode()).hexdigest()
        total.update(digest.encode())
        print(digest, name, flush=True)
    print(total.hexdigest(), "total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
