"""Operation times scaled to a reference speed of the machine.

A shared machine does not run at one speed.  On the reference machine, a
shared virtual machine with 2 vCPUs, the same pure-Python loop takes about 1.7
times longer in its slow phases than in its fast ones, and the phases last
from a second to minutes.  Raw times of the same code then differ by up to a
third between two sets of runs.  So a short, fixed
calibration loop of the same kind of work (dicts, tuples, Fractions) runs
between the operations, never during one, and every operation's time is
scaled by REFERENCE_S over the mean calibration time around it:

    scaled = seconds * REFERENCE_S / mean(calibrations near the operation)

"Near" is within max(WINDOW_S, the operation's own duration) of either end,
so an operation longer than a speed phase is scaled by the speed over a span
as long as itself rather than by the phase its two neighbours happened to
catch.  The calibration loop is the benchmark's code, so a change to the
program moves the scaled times and a change in the machine's speed mostly
does not.
Raw times are kept beside the scaled ones.
"""

import bisect
import time
from fractions import Fraction

# The calibration loop's time in the reference machine's fast phase (2 vCPUs, Python 3.11.7).
REFERENCE_S = 0.0090
# Longest stretch of operations between two calibrations.
GAP_S = 0.2
# Calibrations this close to an operation, or as close as it is long, scale it.
WINDOW_S = 1.0


def calibration_loop():
    """Seconds taken by a fixed mix of dict, tuple and Fraction operations."""
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 7, 3)
        sorted((i % 5, i % 3, i % 11))
    return time.perf_counter() - start


class ScaledClock:
    """Interleaves calibrations with timed operations and scales their times."""

    def __init__(self):
        self.ends = []     # end time of each calibration
        self.starts = []   # start time of each calibration
        self.loops = []    # its duration

    def tick(self, force=False):
        """Calibrate now if GAP_S has passed since the last calibration."""
        now = time.perf_counter()
        if force or not self.ends or now - self.ends[-1] >= GAP_S:
            seconds = calibration_loop()
            self.starts.append(now)
            self.ends.append(now + seconds)
            self.loops.append(seconds)

    def factor(self, start, end):
        """REFERENCE_S over the mean calibration near [start, end]."""
        reach = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.ends, start - reach)
        hi = bisect.bisect_right(self.starts, end + reach)
        near = self.loops[lo:hi]
        if not near:  # no calibration close by: the nearest one on each side
            before = bisect.bisect_right(self.ends, start) - 1
            near = [self.loops[k] for k in (before, before + 1) if 0 <= k < len(self.loops)]
        return REFERENCE_S / (sum(near) / len(near))
