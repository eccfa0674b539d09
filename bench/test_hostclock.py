"""Self-test of the host-speed normalisation.

Run from the repository root:  python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostclock  # noqa: E402
from hostclock import REF_S, HostClock  # noqa: E402


class TestHostClock(unittest.TestCase):
    def test_scale_uses_the_calibrations_on_both_sides(self):
        cals = iter([REF_S, 3 * REF_S, 2 * REF_S])
        clock = HostClock(calibrate=lambda: next(cals), clock=lambda: 0.0)
        self.assertAlmostEqual(clock.scale(1.0), 0.5)   # host at half speed
        self.assertAlmostEqual(clock.scale(1.0), 0.4)
        self.assertEqual(len(clock.factors), 2)

    def test_lap_times_from_the_end_of_the_last_calibration(self):
        now = [0.0]
        clock = HostClock(calibrate=lambda: REF_S, clock=lambda: now[0])
        now[0] = 2.5
        self.assertAlmostEqual(clock.lap(), 2.5)
        now[0] = 3.0
        self.assertAlmostEqual(clock.lap(), 0.5)

    def test_calibration_takes_about_a_millisecond(self):
        cal = min(hostclock.calibrate() for _ in range(5))
        self.assertGreater(cal, 0.0)
        self.assertLess(cal, 0.1)


if __name__ == "__main__":
    unittest.main()
