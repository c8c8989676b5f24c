"""Tier-1 test seconds at reference speed.

Usage, from the root of a checkout:

    python3 tools/tier1.py

Runs the tier-1 command, `pytest -q --continue-on-collection-errors` on
`tests/`, in this process, with a plugin that times each test and runs the
calibration kernel of `bench/speed.py` between tests, never inside one.  A
test's reference seconds are its wall seconds (setup, call and teardown)
scaled by REFERENCE_KERNEL_S over the kernel's mean time in the samples
just before and just after it, so that two runs on a host whose speed
drifts give comparable numbers.  The samples see the speed between tests
only, so a speed change inside a long test is not corrected.  Hypothesis
draws from the fixed seed HYPOTHESIS_SEED, so two runs time the same
examples.  Writes each
test's reference and wall seconds, and their totals, to
`.bench_out/tier1.json`, prints the ten heaviest tests, and exits with
pytest's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out" / "tier1.json"
SAMPLES = 10     # kernel runs per speed sample; their mean time is the sample
HYPOTHESIS_SEED = 0

# bench/speed.py is read, and no bytecode of it is written under bench/
sys.path.insert(0, str(ROOT / "bench"))
_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from speed import REFERENCE_KERNEL_S, kernel  # noqa: E402
sys.dont_write_bytecode = _write


def kernel_s() -> float:
    """The machine's speed now: the mean time of the calibration kernel."""
    start = time.perf_counter()
    for _ in range(SAMPLES):
        kernel()
    return (time.perf_counter() - start) / SAMPLES


class ReferenceTimer:
    """Per test, its wall seconds, and those times REFERENCE_KERNEL_S over
    the mean of the speed samples taken just before and just after it; the
    sample after one test is the sample before the next."""

    def __init__(self):
        self.wall = {}
        self.seconds = {}
        self._last = None

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        before = self._last or kernel_s()
        start = time.perf_counter()
        yield
        wall = time.perf_counter() - start
        self._last = after = kernel_s()
        self.wall[item.nodeid] = wall
        self.seconds[item.nodeid] = \
            wall * REFERENCE_KERNEL_S * 2 / (before + after)


def main() -> int:
    os.chdir(ROOT)
    timer = ReferenceTimer()
    code = pytest.main(["-q", "--continue-on-collection-errors",
                        "--hypothesis-seed=%d" % HYPOTHESIS_SEED],
                       plugins=[timer])
    total = sum(timer.seconds.values())
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({
        "total_s": round(total, 3),
        "wall_s": round(sum(timer.wall.values()), 3),
        "tests": {k: round(v, 3) for k, v in sorted(timer.seconds.items())},
        "wall": {k: round(v, 3) for k, v in sorted(timer.wall.items())}},
        indent=2) + "\n")
    print("tier-1 at reference speed: %.1f s over %d tests (%s)"
          % (total, len(timer.seconds), OUT.relative_to(ROOT)))
    for name, s in sorted(timer.seconds.items(), key=lambda kv: -kv[1])[:10]:
        print("%8.2f s  %s" % (s, name))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
