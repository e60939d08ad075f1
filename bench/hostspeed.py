"""The host's speed, sampled between operations, for scaling times.

The benchmark's shared host runs pure-Python code at a speed that drifts
by tens of percent in phases of a second to minutes, and process CPU time
drifts with it, so neither clock is steady across runs on its own.  A
`Meter` runs a fixed reference loop between operations, for a set share
of the time the operations took, and `scale` turns a time measured in
that run into reference seconds: the time it would have taken on a host
where the reference loop takes `REF_LOOP_S`, judged by the loops run
within about half a second of it.  A slow phase stretches the operation
and the loops around it alike, and the ratio cancels it.

The loop uses no tapelang code, and the garbage collector is off while
it runs, so nothing the program does to its own heap changes the loop's
time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# Median time of one reference loop on the reference host (Python 3.11,
# Intel Xeon at 2.1 GHz, two shared cores).  It only fixes the unit:
# reference seconds are close to that host's typical seconds.
REF_LOOP_S = 0.010
# The loops take this share of the time the operations took.
SHARE = 0.15
# A time is scaled by the median of the loops whose midpoints lie within
# WINDOW_S / 2 of its own, or of the MIN_LOOPS nearest ones if fewer do.
WINDOW_S = 1.0
MIN_LOOPS = 5


def reference_loop() -> int:
    """About 10 ms of interpreter work in the mix the library does:
    calls, tuple building, dict lookups and small-int arithmetic."""
    table: dict = {}
    acc = 0

    def cell(t, n):
        return cell((t, n & 3), n - 1) if n else t

    for i in range(2300):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + (i * i) % 7
        acc += len(cell((), 24))
    return acc + sum(table.values())


class Meter:
    """Reference-loop samples, kept at SHARE of the time spent in the
    operations reported to `after`."""

    def __init__(self):
        self.due = 0.0
        self.spent = 0.0
        self.mids: list[float] = []  # perf_counter() at each loop's midpoint
        self.loops: list[float] = []  # each loop's seconds

    def after(self, op_seconds: float) -> None:
        """Called between operations: run loops until their time has
        caught up with SHARE of the operations' time."""
        self.due += SHARE * op_seconds
        if self.spent >= self.due:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            while self.spent < self.due:
                t0 = perf_counter()
                reference_loop()
                dt = perf_counter() - t0
                self.mids.append(t0 + dt / 2)
                self.loops.append(dt)
                self.spent += dt
        finally:
            if enabled:
                gc.enable()

    def scale(self, mid: float, seconds: float) -> float:
        """`seconds`, measured around perf_counter() value `mid`, in
        reference seconds."""
        lo = bisect.bisect_left(self.mids, mid - WINDOW_S / 2)
        hi = bisect.bisect_right(self.mids, mid + WINDOW_S / 2)
        while hi - lo < min(MIN_LOOPS, len(self.mids)):
            lo, hi = max(0, lo - 1), min(len(self.mids), hi + 1)
        return seconds * REF_LOOP_S / statistics.median(self.loops[lo:hi])
