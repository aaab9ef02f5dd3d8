"""Machine-speed calibration for the benchmark's timings.

On a shared 2-core machine the same query, repeated in one process, drifts by
up to 2x over a few minutes as other tenants load the host.  Quartile spreads
of run medians then exceed any usable regression bound.  So a fixed piece of
work that touches no tedk code is timed between the measured calls, for
SHARE of their time.  Each reported time is the wall time scaled by
REFERENCE_S / (median calibration time of the run): seconds at the speed the
machine had when the calibration took REFERENCE_S.  A change to tedk cannot
move the calibration, so it moves the scaled times exactly as it moves wall
time at a fixed machine speed.  Raw wall times are printed next to them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# calibration time on an unloaded 2-core x86-64 VM (Python 3.11, numpy 2.4)
REFERENCE_S = 0.03
SHARE = 0.05
MIN_SAMPLES = 9

_KEYS = np.random.default_rng(0).integers(0, 1 << 40, size=100_000)


def calibration_s() -> float:
    """Wall time of a fixed mix of the engine's two kinds of work: a numpy
    sort over a cache-sized array and a Python loop over a tuple-keyed dict,
    like the exact DP's memo."""
    t0 = time.perf_counter()
    np.argsort(_KEYS, kind="stable")
    memo: dict = {}
    for i in range(40_000):
        memo[(i, i >> 1, i & 7)] = memo.get((i - 1, (i - 1) >> 1, (i - 1) & 7), 0) + 1
    return time.perf_counter() - t0


class Calibrator:
    """Calibration samples of one process over one run, taken between the
    measured calls for `share` of their time, so that the samples spread
    over the run as the measured time does."""

    def __init__(self, share: float = SHARE) -> None:
        for _ in range(2):  # the first calls pay for page faults and allocation
            calibration_s()
        self.samples: list[float] = []
        self.share = share
        self._owed = 0.0

    def after(self, measured_s: float) -> None:
        """Account for a call that just took measured_s; calibrate if due."""
        self._owed += self.share * measured_s
        while self._owed > 0:
            self.samples.append(calibration_s())
            self._owed -= self.samples[-1]

    def factor(self) -> float:
        """Multiply a wall time of this run by this to get reference seconds."""
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(calibration_s())
        return REFERENCE_S / statistics.median(self.samples)
