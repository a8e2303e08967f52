"""Times scaled to a reference speed.

The benchmark was written on a shared 2-vCPU Xeon whose speed changes under
the program: a fixed pure-Python loop takes anywhere from 1x to 2x its
fastest time, in phases that last from a fraction of a second to minutes.
CPU time moves with wall time and the kernel reports no steal time, so no
counter the process can read tells the phases apart. Raw wall times from two sets of runs of the same code therefore
differ by more than any bound a gate could use.

So every timed piece of work is bracketed by a probe: a fixed loop of the
kind of work the solver does (small slotted objects, tuple keys, a set, a
heap) that uses no code of the program. A time is reported in seconds at
the reference speed, the speed at which the probe takes ``NOMINAL_PROBE_S``:

    scaled = wall * NOMINAL_PROBE_S / mean(probe before, probe after)

The probe depends on nothing a change to the program can touch, so a faster
program still shows as a smaller scaled time.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, TypeVar

T = TypeVar("T")

PROBE_STEPS = 2500
# The probe's time in the fast phase of the machine above (CPython 3.11).
NOMINAL_PROBE_S = 0.004


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        self.a, self.b, self.c = a, b, c


def _combine(p: _Cell, q: _Cell) -> _Cell:
    return _Cell(p.a + q.b, max(p.b, q.c), p.c ^ q.a)


def probe() -> float:
    """Wall time of one run of the fixed reference loop."""
    started = time.perf_counter()
    heap: list = []
    seen: set = set()
    x = _Cell(1, 2, 3)
    for i in range(PROBE_STEPS):
        y = _combine(x, _Cell(i, i & 7, i % 11))
        key = (y.a & 1023, y.b, y.c & 63)
        if key not in seen:
            seen.add(key)
            heapq.heappush(heap, (y.b, i, y))
        if len(heap) > 200:
            heapq.heappop(heap)
        if i % 3:
            x = y
    return time.perf_counter() - started


class ReferenceClock:
    """Times work between probes; each probe closes one bracket and opens
    the next, so back-to-back pieces of work share their probes."""

    def __init__(self) -> None:
        self.last_probe = probe()
        self.probes = [self.last_probe]

    def timed(self, work: Callable[[], T]) -> tuple[T, float, float]:
        """``work()``'s result, wall time and scaled time."""
        started = time.perf_counter()
        result = work()
        wall = time.perf_counter() - started
        before, self.last_probe = self.last_probe, probe()
        self.probes.append(self.last_probe)
        return result, wall, wall * NOMINAL_PROBE_S / ((before + self.last_probe) / 2)
