"""Reference-speed timing for a shared machine whose speed drifts.

On a shared virtual machine the same pure-Python work can take half again
as long in one minute as in the next: the process is not descheduled (its
CPU time grows just as its wall-clock does), the core simply runs it
slower.  A benchmark that reports raw wall-clock then measures the
neighbours, not the program.

So the benchmark runs a fixed reference loop, which touches none of the
program, between its units of work (at most every ``INTERVAL`` seconds,
and before and after every unit), and reports each unit's time at
*reference speed*: its wall-clock scaled by ``REFERENCE_S`` over the
reference loop's time around it.  A unit run while the machine is slow is
scaled down by as much as the loop was slowed.  A change to the program
moves the unit's time and not the loop's, so it shows in full.  The raw
wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List

clock = time.perf_counter

#: the reference loop's time at reference speed; a scaled figure reads as
#: the figure on a machine where the loop takes exactly this long
REFERENCE_S = 0.002
#: runs of the reference loop per sample
REPEATS = 3
#: seconds of work between two reference samples
INTERVAL = 0.25
#: a unit is scaled by the samples up to this many seconds either side of
#: it: the machine's speed swings over seconds, and a short unit's nearest
#: two samples alone are a noisy estimate of it
WINDOW = 0.5


def reference_loop(rounds: int = 20000) -> int:
    """Interpreter-bound work of a fixed size: integer arithmetic and dict
    updates.  Of the loops tried, its slowdowns on a shared machine tracked
    the program's own most closely (see the README)."""
    total = 0
    for index in range(rounds):
        total += index * index % 7
    counts: dict = {}
    for index in range(rounds // 8):
        key = index % 977
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


class Pace:
    """Reference samples taken between units of work, and the scaling."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.samples: List[float] = []
        self.last = -1e9

    def sample(self) -> float:
        """Time the reference loop; the fastest of ``REPEATS`` runs, with the
        collector off, so one interrupt or collection does not count.
        Returns the seconds the sample took."""
        enabled = gc.isenabled()
        gc.disable()
        began = clock()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                started = clock()
                reference_loop()
                best = min(best, clock() - started)
        finally:
            if enabled:
                gc.enable()
        self.last = clock()
        self.stamps.append(self.last)
        self.samples.append(best)
        return self.last - began

    def tick(self) -> None:
        """Sample if the last sample is older than ``INTERVAL``."""
        if clock() - self.last >= INTERVAL:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed during ``[start, end]``:
        the median of the samples within ``WINDOW`` of it and the nearest
        one on each side beyond."""
        stamps = self.stamps
        if not stamps:
            return 1.0
        low = max(0, bisect.bisect_left(stamps, start - WINDOW) - 1)
        high = min(len(stamps), bisect.bisect_right(stamps, end + WINDOW) + 1)
        return REFERENCE_S / statistics.median(self.samples[low:high])

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at reference speed."""
        return (end - start) * self.factor(start, end)
