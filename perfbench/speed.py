"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed a process gets drifts by tens of percent over
periods from a fraction of a second to tens of seconds, and a fixed stdlib
loop slows down with the package's own work.  So the benchmark runs a fixed
calibration loop (Fraction and float arithmetic, garbage collection off)
before an operation whenever ``INTERVAL_S`` have passed since the last one,
and scales each operation's wall time by

    NOMINAL_S / (calibration time around that operation)

Reported times therefore read as seconds on a machine that runs the
calibration loop in ``NOMINAL_S``.  The loop uses only the standard library,
so a change to the package cannot move it; a change that makes the package
faster or slower moves the scaled times in proportion to wall time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.010
INTERVAL_S = 0.1
WINDOW_S = 0.25


def calibration_seconds() -> float:
    """Wall time of one fixed loop of Fraction and float arithmetic."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        q = Fraction(0)
        for k in range(1, 1500):
            q += Fraction(k % 17 - 8, 16) * Fraction(k % 13 + 1, 16)
        x = 0.0
        for k in range(1, 30000):
            x += (k % 17 - 8) / 16 * ((k % 13 + 1) / 16)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate() -> float:
    """Mean of two back-to-back calibrations."""
    return statistics.fmean((calibration_seconds(), calibration_seconds()))


class SpeedTrack:
    """Calibration samples taken between the operations of one run."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        took = calibration_seconds()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def maybe_sample(self) -> None:
        """Calibrate when the last sample is older than ``INTERVAL_S``."""
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, t: float) -> float:
        """Scale factor at time ``t``: from the median of the calibrations
        within ``WINDOW_S`` of it, and at least the ones just before and
        just after it."""
        i = bisect.bisect_left(self.at, t)
        lo = min(bisect.bisect_left(self.at, t - WINDOW_S), max(i - 1, 0))
        hi = max(bisect.bisect_right(self.at, t + WINDOW_S), i + 1)
        return NOMINAL_S / statistics.median(self.took[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.took)
