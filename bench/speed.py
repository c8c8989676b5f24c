"""Machine-speed sampling, so that timings hold still on a host whose speed
drifts.

On a shared host (here a 2-vCPU Xeon virtual machine) the same pure-Python
work can take 1.8 times as long from one minute to the next, and switch
between the two within a second, when other work lands on the same physical
core. No number of repetitions averages that out of a wall time. So the
measured process samples its own speed: a timer signal runs a fixed
calibration kernel every PERIOD_S seconds, and each sample's duration gives
the machine's speed at that moment. `SpeedSampler.reference_s(a, b)` turns
the wall interval [a, b] into the time its work takes at the reference
speed, the speed at which the kernel takes REFERENCE_KERNEL_S, leaving out
the time of the samples themselves.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.04
KERNEL_ITERATIONS = 400
REFERENCE_KERNEL_S = 0.001


def kernel() -> dict:
    """The engine's kind of work: small Fraction sums in a tuple-keyed dict."""
    acc = {}
    for i in range(KERNEL_ITERATIONS):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i % 11, 3 + i % 4)
    return acc


class SpeedSampler:
    def __init__(self):
        self.samples = []  # (start, duration) of each kernel run, in order
        self._previous = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()

    def stop(self):
        """Stop the timer, restore the old handler, and take a last sample so
        that every interval measured before has a sample after it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference_s(self, a: float, b: float) -> float:
        """Seconds the work done in the wall interval [a, b] takes at the
        reference speed. Each stretch of work is scaled by the sample that
        ends it; the samples' own time is not work and is left out."""
        total, pos = 0.0, a
        for start, dur in self.samples:
            end = start + dur
            if end <= pos:
                continue
            scale = REFERENCE_KERNEL_S / dur
            if start >= b:
                return total + (b - pos) * scale
            if start > pos:
                total += (start - pos) * scale
            pos = end
            if pos >= b:
                return total
        raise ValueError("no speed sample after the end of the interval")
