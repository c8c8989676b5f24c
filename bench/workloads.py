"""Workloads of the vertextwist benchmark and the reference-verdict gate.

Each workload is a list of sub-runs; a sub-run is one call of a library
entry point behind the command line (`run_suite` behind `vertextwist run`,
`jordan_decompose` behind `vertextwist decompose`) and runs in a fresh
process, as each command-line call does.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

BASIS_ORDERS = ("weight-lex", "weight-revlex")

# Why each workload: the three stress disjoint layer stacks, so an
# optimisation of one layer has a workload that shows it and others that
# predict no change.
WORKLOADS = {
    # series convolution (3-variable delta kernels, Fraction monomials) over
    # cyclotomic scalars; read-heavy mode memo; no twistop or linalg work
    "jacobi-ramond": [
        {"id": "run", "kind": "suite", "model": "ramond",
         "suite": "twisted-jacobi", "max_weight": "2", "halfwidth": 3},
    ],
    # TwistOpSlot and its repeated L(-1); miss-heavy mode memo; linalg idle
    "twist-z2boson": [
        {"id": "run", "kind": "suite", "model": "z2boson",
         "suite": "twist-all", "max_weight": "1", "halfwidth": 2},
    ],
    # exact linear algebra and Jordan data over purely rational scalars; no
    # series, chains or twistop work
    "jordan-heis3": [
        {"id": "decompose", "kind": "decompose", "model": "heis3",
         "automorphism": "unipotent", "max_weight": "5"},
        {"id": "run", "kind": "suite", "model": "heis3", "suite": "jordan",
         "max_weight": "2", "halfwidth": 6},
    ],
}

# Per-layer counters each workload should leave at 0, for the layers it
# bypasses; the traced run reports whether each prediction holds.
PREDICTED_ZERO = {
    "jacobi-ramond": ("twistop.slot_applies", "linalg.solve_calls"),
    "twist-z2boson": ("linalg.solve_calls",),
    "jordan-heis3": ("series.conv_pairs_tried", "chains.enum_calls",
                     "twistop.slot_applies"),
}

# Injected sign faults the gate must see: every failing record carries a
# located mismatch, and the number of failures is the engine's known one.
FAULT_PROBES = [
    {"id": "twisted-seed-sign", "kind": "suite", "fault": "twisted-seed-sign",
     "model": "ramond", "suite": "twisted-jacobi", "max_weight": "1",
     "halfwidth": 3, "expect_total": 16, "expect_failed": 4},
    {"id": "zero-mode-sector-sign", "kind": "suite",
     "fault": "zero-mode-sector-sign", "model": "ramond", "suite": "twist-all",
     "max_weight": "1/2", "halfwidth": 2, "expect_total": 46,
     "expect_failed": 18},
]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / (workload + ".json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def verdict_of(result: dict):
    """The timing-free verdict of one sub-run: its records or its Jordan JSON."""
    if "jordan" in result:
        return {"jordan": result["jordan"]}
    return {"records": result["records"]}


def compare(verdict: dict, reference: dict) -> tuple:
    """(attempted, failed) for one sub-run's verdict against the reference.

    Records are compared in any order. A record that differs counts once as
    failed; so does one missing or one extra. A Jordan JSON is one verdict.
    """
    if "jordan" in reference:
        return 1, 0 if verdict.get("jordan") == reference["jordan"] else 1
    got = Counter(json.dumps(r, sort_keys=True)
                  for r in verdict.get("records", []))
    want = Counter(json.dumps(r, sort_keys=True) for r in reference["records"])
    failed = max(sum((got - want).values()), sum((want - got).values()))
    return max(sum(got.values()), sum(want.values())), failed


def probe_refuted(probe: dict, result: dict) -> tuple:
    """(ok, message): the fault is caught with located mismatches only."""
    records = result["records"]
    failing = [r for r in records if r["status"] != "pass"]
    located = [r for r in failing
               if r["identity"] != "error"
               and "monomial" in (r.get("first_mismatch") or {})]
    ok = (len(records) == probe["expect_total"]
          and len(failing) == probe["expect_failed"]
          and len(located) == len(failing))
    return ok, ("%s: %d of %d checks fail, %d with a located monomial "
                "(expected %d of %d)"
                % (probe["id"], len(failing), len(records), len(located),
                   probe["expect_failed"], probe["expect_total"]))
