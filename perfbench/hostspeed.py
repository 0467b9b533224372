"""The host's speed of the moment, measured by a fixed calibration loop.

On a shared host the CPU a process is given can run at very different
speeds from one second to the next (see "Noise" in README.md), so raw
wall times of the same work differ by up to 2x between runs.  The
harness runs `calibrate()` between passes and scales each pass by the
loop's time around it:

    scaled seconds = wall seconds * REFERENCE_S / calibration seconds

which gives the pass's time at the speed at which the loop takes
REFERENCE_S.  The loop is fixed code of the benchmark's own and calls no
memloc code, so any change to memloc shows in full in the scaled time.
It is the kind of work memloc's simulators spend their time on: a
set-associative LRU cache kept as Python lists, fed by an integer
pseudo-random address stream.
"""

from __future__ import annotations

import gc
import time

LINES = 150_000  # addresses per calibration
# The loop's time on a 2.0 GHz Xeon vCPU (Python 3.11) in its faster
# state, so scaled seconds read close to that host's fast wall times.
REFERENCE_S = 0.060


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    sets = [[] for _ in range(64)]
    x, misses = 12345, 0
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(LINES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 8) & 1023
        ways = sets[line & 63]
        if line in ways:
            ways.remove(line)
            ways.append(line)
        else:
            misses += 1
            if len(ways) >= 8:
                ways.pop(0)
            ways.append(line)
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


class Scaler:
    """Factors that scale work done between two calibrations."""

    def __init__(self):
        self.samples = [calibrate()]

    def factor(self) -> float:
        """The factor for the work that ended just now: REFERENCE_S over
        the mean of the calibration before it and one taken now."""
        self.samples.append(calibrate())
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)
