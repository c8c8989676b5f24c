"""One benchmark sub-run in a fresh process, so every engine memo starts cold.

Usage: python3 bench/child.py '<sub-run spec as JSON>'

Times the set-up (import of the entry-point modules plus a Registry with
every model file parsed and cross-checked), then the sub-run from the call
to its serialized output. Every time is reported twice: as wall time
(`*_wall_*`) and at the reference speed of `speed.py`, measured by a speed
sampler that runs in this process from start to end. Prints one JSON object
as the last line of its standard output. With "trace" set in the spec, the
sub-run runs under the layer tracer, which is installed after set-up and
removed before output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckClock:
    """Records the wall interval of each check, around `harness._timed`."""

    def __init__(self, harness):
        self.harness = harness
        self.original = harness._timed
        self.intervals = []

    def __enter__(self):
        original, intervals = self.original, self.intervals

        def timed(fn):
            start = time.perf_counter()
            try:
                return original(fn)
            finally:
                intervals.append((start, time.perf_counter()))
        self.harness._timed = timed
        return self

    def __exit__(self, *exc):
        self.harness._timed = self.original


def run_subrun(spec, registry, timed):
    """Run one sub-run; `timed(fn)` returns (result of fn, start, end)."""
    from vertextwist import automorphism, harness

    if spec["kind"] == "suite":
        cfg = harness.SuiteConfig(
            model=spec["model"], suite=spec["suite"],
            max_weight=Fraction(spec["max_weight"]),
            halfwidth=spec["halfwidth"], jobs=1,
            basis_order=spec.get("order", "weight-lex"))
        with CheckClock(harness) as clock:
            text, start, end = timed(
                lambda: harness.run_suite(cfg, registry).dumps())
        records = json.loads(text)["records"]
        check_wall_ms = [r.pop("timing_ms") for r in records]
        if len(clock.intervals) != len(records):
            raise RuntimeError("%d checks timed for %d records"
                               % (len(clock.intervals), len(records)))
        return {"records": records, "check_wall_ms": check_wall_ms,
                "span": (start, end), "checks": clock.intervals}
    if spec["kind"] == "decompose":
        _, bundle = registry.resolve(spec["model"])
        g = bundle.automorphisms[spec["automorphism"]]
        cutoff = Fraction(spec["max_weight"])
        text, start, end = timed(lambda: json.dumps(
            automorphism.jordan_decompose(g, cutoff).to_json(),
            indent=2, sort_keys=True))
        return {"jordan": json.loads(text),
                "check_wall_ms": [(end - start) * 1000.0],
                "span": (start, end), "checks": [(start, end)]}
    raise ValueError("unknown sub-run kind %r" % spec["kind"])


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, start, time.perf_counter()


def main(argv) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, str(SRC))
    sampler = SpeedSampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        import vertextwist.automorphism  # noqa: F401  entry-point modules
        import vertextwist.harness  # noqa: F401
        from vertextwist.models import Registry
        registry = Registry(fault=spec.get("fault"))
        registry.bundles()
        setup = (t0, time.perf_counter())

        out = {}
        tracer = None
        if spec["kind"] != "setup":
            if spec.get("trace"):
                from layertrace import Tracer
                tracer = Tracer()
                try:
                    tracer.install()
                    out = run_subrun(spec, registry, tracer.timed_root)
                finally:
                    out["restored"] = tracer.uninstall()
            else:
                out = run_subrun(spec, registry, _timed)
    finally:
        sampler.stop()

    out["setup_wall_s"] = setup[1] - setup[0]
    out["setup_s"] = sampler.reference_s(*setup)
    if spec["kind"] != "setup":
        start, end = out.pop("span")
        out["verdict_wall_s"] = end - start
        out["verdict_s"] = sampler.reference_s(start, end)
        out["check_ms"] = [1000.0 * sampler.reference_s(a, b)
                           for a, b in out.pop("checks")]
    if tracer is not None:
        # the tracer's spans are wall time; bring them to the reference
        # speed with the sub-run's own factor
        out["layers"] = tracer.summary(out["verdict_s"] / out["verdict_wall_s"])
        tracer.write_spans(ROOT / spec["spans_out"], spec["spans_id"])
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
