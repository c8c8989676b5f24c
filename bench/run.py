"""vertextwist benchmark: time to verdict at a fixed cutoff and window.

Usage, from the root of a checkout:

    python3 bench/run.py --workload jacobi-ramond --seed 1 --seconds 13 --trace 0
    python3 bench/run.py                # every workload, one table each

Closed loop, one client, jobs=1: a pass runs the workload's sub-runs one
after another, each in a fresh process with a fresh Registry (so every memo
is cold, as in one command-line call). A run makes as many passes as fit
in --seconds at the reference speed (below), at least one, judged by the
first. End-to-end metrics are medians over the passes of per-pass numbers;
set-up time is the median over every process of the run but the fault
probes, plus a few that only set up.

Times are given at the reference speed of speed.py: each measured process
samples the machine's speed with a fixed calibration kernel every 40 ms, and
each stretch of wall time is scaled by the speed sampled at its end. A shared
host's speed drifts by up to 1.8 times within minutes; wall times (printed in
the table, not in the JSON) move with it, times at reference speed do not.

--trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics of the traced one; spans go to .bench_out/.

Every run first runs two fault probes: engines with an injected sign fault,
which the checks must refute with located mismatches. Every pass is compared
with the stored reference verdicts (bench/reference/), in any record order.

The seed picks the basis order of the sweeps and the order of the sub-runs
of a workload; the verdicts do not depend on it. The last line of standard
output is one JSON object.

Timings are process-local, measured on a machine that may be shared with
other work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import (BASIS_ORDERS, FAULT_PROBES, PREDICTED_ZERO, WORKLOADS,
                       compare, load_reference, probe_refuted, verdict_of)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 6
SPANS_DIR = ".bench_out"


class ChildFailed(RuntimeError):
    pass


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "jobs": 1,
            "timings": "process-local, at the reference speed of speed.py "
                       "(wall times in the table), on a possibly shared "
                       "machine"}


def run_child(spec: dict) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                              cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("%s timed out after %ds" % (spec.get("id", "setup"),
                                                      CHILD_TIMEOUT_S)) from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed("%s exited with %d: %s"
                          % (spec.get("id", "setup"), proc.returncode,
                             proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """Value with ten checks beyond it; the largest when there are ten or fewer."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        rng = random.Random(seed)
        self.order = rng.choice(BASIS_ORDERS)
        self.subruns = list(WORKLOADS[workload])
        rng.shuffle(self.subruns)
        self.reference = load_reference(workload)
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.setup_s = []
        self.setup_wall_s = []

    def child(self, spec: dict) -> dict:
        out = run_child(spec)
        if "fault" not in spec:
            self.setup_s.append(out["setup_s"])
            self.setup_wall_s.append(out["setup_wall_s"])
        return out

    def run_pass(self, trace: bool = False) -> list:
        results = []
        for sub in self.subruns:
            spec = dict(sub, order=self.order)
            if trace:
                tag = "%s-seed%d-%s" % (self.workload, self.seed, sub["id"])
                spec.update(trace=True, spans_id=tag,
                            spans_out="%s/%s.spans.json" % (SPANS_DIR, tag))
            out = self.child(spec)
            attempted, failed = compare(verdict_of(out),
                                        self.reference[sub["id"]])
            self.attempted += attempted
            self.failed += failed
            if failed:
                self.notes.append("%s: %d of %d verdicts differ from the "
                                  "reference" % (sub["id"], failed, attempted))
            results.append(out)
        return results

    def probe_faults(self) -> bool:
        ok = True
        for probe in FAULT_PROBES:
            refuted, message = probe_refuted(probe, self.child(dict(probe)))
            self.notes.append("fault probe " + message)
            ok = ok and refuted
        return ok


def pass_metrics(results: list) -> dict:
    """Per-pass numbers, at reference speed and (under "wall") wall time."""
    checks = [ms for r in results for ms in r["check_ms"]]
    wall = [ms for r in results for ms in r["check_wall_ms"]]
    verdict = sum(r["verdict_s"] for r in results)
    return {"verdict_s": verdict,
            "check_ms_p50": statistics.median(checks),
            "check_ms_tail": tail(checks),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "overhead_s": verdict - sum(checks) / 1000.0,
            "checks": len(checks),
            "wall": {"verdict_s": sum(r["verdict_wall_s"] for r in results),
                     "check_ms_p50": statistics.median(wall),
                     "check_ms_tail": tail(wall)}}


def layer_metrics(traced: list, untraced: dict, traced_m: dict) -> dict:
    c = {}
    for r in traced:
        for key, value in r["layers"].items():
            c[key] = c.get(key, 0) + value
    get = lambda key: c.get(key, 0)
    ratio = lambda num, den: get(num) / get(den) if get(den) else 0.0
    out = {key: get(key) for key in (
        "scalars.mul_calls", "scalars.add_calls", "series.terms_in_calls",
        "series.terms_materialized", "series.conv_pairs_tried",
        "series.conv_pairs_kept", "series.self_s", "chains.enum_calls",
        "chains.slot_applies", "chains.self_s", "modes.apply_calls",
        "modes.computes", "modes.self_s", "twistop.slot_applies",
        "twistop.slot_computes", "twistop.lminus1_calls", "twistop.self_s",
        "linalg.solve_calls", "linalg.mat_mul_calls", "linalg.kernel_calls",
        "linalg.self_s", "automorphism.jordan_s", "automorphism.self_s")}
    out["scalars.mul_rational_share"] = ratio("scalars.mul_rational",
                                              "scalars.mul_calls")
    out["series.cache_hit_ratio"] = ratio("series.cache_hits",
                                          "series.terms_in_calls")
    out["series.conv_keep_ratio"] = ratio("series.conv_pairs_kept",
                                          "series.conv_pairs_tried")
    lookups = get("modes.memo_hits") + get("modes.computes")
    out["modes.memo_hit_ratio"] = (get("modes.memo_hits") / lookups
                                   if lookups else 0.0)
    out["twistop.slot_memo_hit_ratio"] = (
        1.0 - ratio("twistop.slot_computes", "twistop.slot_lookups")
        if get("twistop.slot_lookups") else 0.0)
    # harness overhead is read off the untraced pass, which the tracer's
    # own cost does not inflate
    out["harness.overhead_s"] = untraced["overhead_s"]
    out["trace.overhead_ratio"] = traced_m["verdict_s"] / untraced["verdict_s"]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 units: dict) -> dict:
    run = Run(workload, seed)
    probes_ok = run.probe_faults()
    untraced = run.run_pass()
    passes = [pass_metrics(untraced)]
    if trace:
        traced = run.run_pass(trace=True)
        same = all(compare(verdict_of(t), verdict_of(u))[1] == 0
                   for t, u in zip(traced, untraced))
        restored = all(r["restored"] for r in traced)
        metrics = layer_metrics(traced, passes[0], pass_metrics(traced))
        run.notes.append("traced pass: %d spans, verdicts equal to the "
                         "untraced pass: %s, originals restored: %s"
                         % (sum(r["layers"]["spans"] for r in traced), same,
                            restored))
        run.notes.append("predicted 0: " + ", ".join(
            "%s %s" % (key, metrics[key]) for key in PREDICTED_ZERO[workload]))
        wall = {}
        ok = restored and same
    else:
        # the pass count follows from time at reference speed, so that it
        # does not change with the machine's speed
        for _ in range(round(seconds / passes[0]["verdict_s"]) - 1):
            passes.append(pass_metrics(run.run_pass()))
        for _ in range(SETUP_PROBES):
            run.child({"kind": "setup"})
        timed = ("verdict_s", "check_ms_p50", "check_ms_tail")
        metrics = {key: statistics.median(p[key] for p in passes)
                   for key in timed + ("peak_rss_mb",)}
        metrics["setup_s"] = statistics.median(run.setup_s)
        wall = {key: statistics.median(p["wall"][key] for p in passes)
                for key in timed}
        wall["setup_s"] = statistics.median(run.setup_wall_s)
        ok = True

    correct = ok and probes_ok and run.failed == 0
    print("== %s  seed=%d  basis order=%s  sub-runs=%s  passes=%d  "
          "checks/pass=%d" % (workload, seed, run.order,
                              ",".join(s["id"] for s in run.subruns),
                              len(passes), passes[0]["checks"]))
    for note in run.notes:
        print("   " + note)
    print("   fail_ratio %.4f (%d of %d verdicts)"
          % (run.failed / run.attempted, run.failed, run.attempted))
    for name, unit in units.items():
        line = "   %-32s %14.6g %s" % (name, metrics[name], unit)
        if name in wall:
            line += "   (wall %.6g)" % wall[name]
        print(line)
    return {"correct": correct, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vertextwist" / "__init__.py").is_file():
        print("error: no engine source under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    seconds = args.seconds or spec["run_seconds"]

    print("machine: %s" % json.dumps(machine(), sort_keys=True))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {w: run_workload(w, args.seed, seconds,
                                   bool(args.trace), units)
                   for w in workloads}
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, name): m
                        for w, r in results.items()
                        for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
