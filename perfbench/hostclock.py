"""Host time scaled to a reference host speed.

The benchmark's host is shared: for stretches of seconds to minutes the same
work can take half again as long.  A :class:`Clock` therefore times the
measured work in stretches and, between stretches, times a fixed probe (pure
Python heap and dict work that lives in this file, so no change to the
simulator moves it).  Each stretch is scaled by ``PROBE_REF`` over the probe
time around it, so a slow spell of the host slows the probe as well and
cancels out, while a faster simulator is still faster.
"""

from __future__ import annotations

import contextlib
import heapq
from statistics import median
from time import perf_counter
from typing import Callable, List, Optional

#: Probe seconds per unit on a quiet host of the kind the benchmark runs on
#: (2 vCPUs, x86_64, CPython 3.11).  A constant: it only sets the scale.
PROBE_REF = 0.0025
#: Probe units per probe; the probe time is their median.
PROBE_UNITS = 5


def _probe_unit() -> int:
    heap: list = []
    counts: dict = {}
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1000, i, (i, i + 1)))
        counts[i % 97] = counts.get(i % 97, 0) + 1
    while heap:
        heapq.heappop(heap)
    return len(counts)


def probe() -> float:
    """Median seconds of one probe unit, now."""
    times = []
    for _ in range(PROBE_UNITS):
        start = perf_counter()
        _probe_unit()
        times.append(perf_counter() - start)
    return median(times)


class Clock:
    """Raw and reference-speed host seconds of the stretches between laps."""

    def __init__(self, span: Optional[Callable] = None) -> None:
        #: Span factory of a traced pass: probes then show as their own span,
        #: so they are not charged to the layer that was running.
        self._span = span or (lambda name: contextlib.nullcontext())
        self.raw = 0.0
        #: Reference-speed seconds of each stretch, in order.
        self.stretches: List[float] = []
        self._speed = 0.0
        self._mark = 0.0

    def _probe(self) -> float:
        with self._span("bench.probe"):
            return probe()

    def start(self) -> None:
        self._speed = self._probe()
        self._mark = perf_counter()

    def lap(self) -> None:
        """Close the running stretch, probe the host, open the next stretch."""
        stretch = perf_counter() - self._mark
        speed = self._probe()
        self.raw += stretch
        self.stretches.append(stretch * PROBE_REF / ((self._speed + speed) / 2.0))
        self._speed = speed
        self._mark = perf_counter()

    @property
    def scaled(self) -> float:
        return sum(self.stretches)

    def scale(self, seconds: float) -> float:
        """Reference-speed seconds of a short span timed after the last lap."""
        return seconds * PROBE_REF / self._speed
