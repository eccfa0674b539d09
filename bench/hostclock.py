"""Time normalised to a fixed host speed.

The benchmark shares its machine with other work, and the speed at which this
process runs Python changes by up to a factor of two within seconds, on the
wall and CPU clocks alike.  A fixed piece of exact-rational arithmetic, timed
between the segments the benchmark measures, gives the speed of the moment.
A segment timed between two calibrations is scaled to what it would take at
the reference speed, at which the calibration takes ``REF_S`` seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, List

# Calibration time on a 2-core x86_64 host in its fast state: the 5th to
# 20th percentiles of 6,000 calibrations lay between 0.96 and 1.01 ms.
REF_S = 0.001


def calibrate(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds a fixed run of Fraction arithmetic takes now.

    The run is five equal chunks; the median chunk counts, so that a
    preemption inside one chunk does not pass for a slow host.
    """
    chunks = []
    for _ in range(5):
        t0 = clock()
        acc = Fraction(0)
        for i in range(1, 41):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
        chunks.append(clock() - t0)
    return 5 * sorted(chunks)[2]


class HostClock:
    """Scales each timed segment by the host speed calibrated at both ends.

    Construction calibrates once.  ``scale`` calibrates again after the
    segment it is given, and uses the mean of that calibration and the one
    before the segment.
    """

    def __init__(self, calibrate: Callable[[], float] = calibrate,
                 clock: Callable[[], float] = time.perf_counter):
        self._calibrate, self._clock = calibrate, clock
        self._last = calibrate()
        self._mark = clock()
        self.factors: List[float] = []  # reference time / host time, per segment

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, converted to the reference speed."""
        cal = self._calibrate()
        factor = 2 * REF_S / (self._last + cal)
        self._last = cal
        self.factors.append(factor)
        self._mark = self._clock()
        return seconds * factor

    def lap(self) -> float:
        """Time since the previous calibration, at the reference speed."""
        return self.scale(self._clock() - self._mark)
