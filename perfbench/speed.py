"""Machine-speed reference for the benchmark's time metrics.

On a shared machine the speed of one core drifts by 15-30% over tens of
seconds, far more than the changes the benchmark has to resolve.  So while a
step is timed, a fixed pure-Python kernel (exact `Fraction` arithmetic and an
integer loop, the same kind of work hgpade does) is timed as well: a few
times just before and after the step, and every TICK_S seconds during it
from a timer signal.  Each time is reported rescaled to the reference speed:

    reported seconds = wall seconds * REFERENCE_S / (mean kernel time)

where the wall time excludes the kernel runs made during the step.
REFERENCE_S is the kernel's mean time on the machine the benchmark was
defined on (2-core x86_64, Python 3.11), so reported seconds read close to
wall seconds there.  The raw wall times are printed alongside.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0020
TICK_S = 0.1
SAMPLES_AFTER = 3


def kernel():
    x = Fraction(0)
    for k in range(1, 134):
        x += Fraction(k, 3 * k + 1) * Fraction(2 * k - 1, 7)
    s = 0
    for i in range(10000):
        s += i * i % 7
    return x, s


def sample() -> float:
    """Time of one kernel run, in seconds.  The garbage collector is off
    meanwhile: a collection would scan whatever the timed step holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times steps against the kernel; keeps every kernel time it took."""

    def __init__(self):
        self.samples = [sample() for _ in range(SAMPLES_AFTER)]
        self._during = []

    def _tick(self, signum, frame):
        self._during.append(sample())

    def timed(self, fn):
        """Run fn(); return (its result, wall seconds, reference seconds).

        The speed is the mean kernel time over the samples taken during the
        step and just before and after it.  The mean, not the median: the
        machine switches between a fast and a slow mode, and what slows the
        step is the share of time spent in each."""
        before = self.samples[-SAMPLES_AFTER:]
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        during = self._during
        wall -= sum(during)
        after = [sample() for _ in range(SAMPLES_AFTER)]
        self.samples += during + after
        return result, wall, self.rescale(wall, before + during + after)

    @staticmethod
    def rescale(wall: float, samples: list) -> float:
        """Wall seconds at the speed the kernel samples show, in reference
        seconds."""
        return wall * REFERENCE_S / statistics.mean(samples)
