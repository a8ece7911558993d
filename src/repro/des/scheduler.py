"""Pluggable event schedulers for the DES kernel.

The :class:`~repro.des.core.Environment` stores pending events as
``(time, priority, eid, event)`` tuples.  Ordering is total: ties on time
break on priority (URGENT before NORMAL), then on the monotonically
increasing event id — FIFO among equals.  Any scheduler that pops entries
in exactly this tuple order is observably identical to the binary heap,
so every seed-for-seed parity golden doubles as a scheduler oracle.

Two implementations ship:

* :class:`HeapScheduler` — the classic ``heapq`` binary heap.  The
  environment recognises it and keeps operating on the raw ``items``
  list with inline ``heappush``/``heappop`` (the PR 5 fast path), so
  choosing it costs nothing over the pre-pluggable kernel.
* :class:`CalendarQueue` — Brown's calendar queue (CACM 1988) with
  dynamic bucket resizing.  O(1) expected enqueue/dequeue independent of
  the pending-event population, which overtakes the heap's O(log n) once
  simulations hold tens of thousands of concurrent events (the 10-library
  scale-out regime).  Each bucket is itself a small heap, so intra-bucket
  order — including the event-id FIFO tie-break — is exact, not
  approximate.

Select via ``Environment(scheduler="calendar")`` or the
``REPRO_SCHEDULER`` environment variable (consulted when ``scheduler``
is ``None``).
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Any, List, Optional, Tuple, Union

__all__ = [
    "EventScheduler",
    "HeapScheduler",
    "CalendarQueue",
    "SCHEDULERS",
    "resolve_scheduler",
]

#: One pending entry: (time, priority, eid, event).
Entry = Tuple[float, int, int, Any]

Infinity = float("inf")

#: Quotients ``time / width`` at or above this are clamped to one shared
#: far-future bucket number.  The cap is below 2**53 so ``int()`` of it is
#: exact, and clamping preserves order: every clamped entry's time exceeds
#: every unclamped entry's, and clamped entries share a bucket where the
#: per-bucket heap keeps their exact relative order.
_FAR_QUOTIENT = 9.0e15
_FAR_N = 9_007_199_254_740_992  # 2**53


class EventScheduler:
    """Order-preserving priority queue of ``(time, priority, eid, event)``.

    Implementations must pop entries in ascending tuple order and raise
    ``IndexError`` from :meth:`pop` when empty (mirroring ``heappop`` so
    the environment's run loop needs no scheduler-specific handling).
    """

    def push(self, item: Entry) -> None:
        raise NotImplementedError

    def pop(self) -> Entry:
        raise NotImplementedError

    def peek_time(self) -> float:
        """Time of the minimum entry, or ``inf`` when empty."""
        raise NotImplementedError

    def remove(self, event: Any) -> Entry:
        """Remove and return ``event``'s pending entry (``ValueError`` if none)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class HeapScheduler(EventScheduler):
    """Binary-heap scheduler; the default.

    Exposes the raw heap as ``items`` so :class:`~repro.des.core.Environment`
    can bypass the method interface and keep the inline
    ``heappush``/``heappop`` fast path — behaviour and performance are
    byte-identical to the pre-pluggable kernel.
    """

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: List[Entry] = []

    def push(self, item: Entry) -> None:
        heappush(self.items, item)

    def pop(self) -> Entry:
        return heappop(self.items)

    def peek_time(self) -> float:
        return self.items[0][0] if self.items else Infinity

    def remove(self, event: Any) -> Entry:
        items = self.items
        for i, entry in enumerate(items):
            if entry[3] is event:
                last = items.pop()
                if i < len(items):
                    items[i] = last
                    heapify(items)
                return entry
        raise ValueError(f"{event!r} is not scheduled")

    def __len__(self) -> int:
        return len(self.items)


class CalendarQueue(EventScheduler):
    """Calendar queue with per-bucket heaps and dynamic resizing.

    Entries map to an *absolute* bucket number ``n = int(t / width)`` and
    live in bucket ``n % nbuckets``; each bucket is a heap so entries that
    share a bucket keep exact tuple order.  ``pop`` scans at most one
    "year" (``nbuckets`` consecutive bucket numbers) from the current
    position and falls back to a direct search for the global minimum when
    the year is empty (sparse queue), so correctness never depends on the
    width estimate — only performance does.

    The bucket count doubles when the population exceeds twice the bucket
    count and halves below half of it (Brown's thresholds); each resize
    re-estimates the width from a sample of adjacent event spacings.
    """

    __slots__ = ("_buckets", "_nbuckets", "_width", "_cur_n", "_size")

    MIN_BUCKETS = 4

    def __init__(self, nbuckets: int = MIN_BUCKETS, width: float = 1.0) -> None:
        if nbuckets < 1:
            raise ValueError(f"nbuckets must be >= 1, got {nbuckets}")
        if not (width > 0.0) or width == Infinity:
            raise ValueError(f"width must be positive and finite, got {width}")
        self._buckets: List[List[Entry]] = [[] for _ in range(nbuckets)]
        self._nbuckets = nbuckets
        self._width = width
        #: Absolute bucket number the pop scan resumes from.  Invariant:
        #: no pending entry has a bucket number below it.
        self._cur_n = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, item: Entry) -> None:
        t = item[0]
        q = t / self._width
        n = int(q) if q < _FAR_QUOTIENT else _FAR_N
        heappush(self._buckets[n % self._nbuckets], item)
        if not self._size or n < self._cur_n:
            self._cur_n = n
        self._size += 1
        if self._size > (self._nbuckets << 1):
            self._resize(self._nbuckets << 1)

    def pop(self) -> Entry:
        if not self._size:
            raise IndexError("pop from an empty CalendarQueue")
        buckets = self._buckets
        nb = self._nbuckets
        width = self._width
        n = self._cur_n
        for _ in range(nb):
            bucket = buckets[n % nb]
            if bucket:
                t = bucket[0][0]
                q = t / width
                # Same arithmetic as push, so push and pop always agree on
                # an entry's bucket number even at float bucket boundaries.
                if (int(q) if q < _FAR_QUOTIENT else _FAR_N) <= n:
                    item = heappop(bucket)
                    self._cur_n = n
                    break
            n += 1
        else:
            # Sparse queue: the whole year was ineligible.  Direct-search
            # the global minimum head by full tuple comparison (exact).
            best: Optional[List[Entry]] = None
            for bucket in buckets:
                if bucket and (best is None or bucket[0] < best[0]):
                    best = bucket
            assert best is not None  # _size > 0 guarantees a head exists
            item = heappop(best)
            q = item[0] / width
            self._cur_n = int(q) if q < _FAR_QUOTIENT else _FAR_N
        self._size -= 1
        if self._size < (self._nbuckets >> 1) and self._nbuckets > self.MIN_BUCKETS:
            self._resize(self._nbuckets >> 1)
        return item

    def peek_time(self) -> float:
        if not self._size:
            return Infinity
        best = Infinity
        for bucket in self._buckets:
            if bucket and bucket[0][0] < best:
                best = bucket[0][0]
        return best

    def remove(self, event: Any) -> Entry:
        # No size-triggered resize: the caller pushes a replacement entry.
        for bucket in self._buckets:
            for i, entry in enumerate(bucket):
                if entry[3] is event:
                    last = bucket.pop()
                    if i < len(bucket):
                        bucket[i] = last
                        heapify(bucket)
                    self._size -= 1
                    return entry
        raise ValueError(f"{event!r} is not scheduled")

    # -- resizing ----------------------------------------------------------
    def _resize(self, nbuckets: int) -> None:
        items = [item for bucket in self._buckets for item in bucket]
        width = self._estimate_width(items)
        self._nbuckets = nbuckets
        self._width = width
        buckets = self._buckets = [[] for _ in range(nbuckets)]
        cur_n = _FAR_N
        for item in items:
            q = item[0] / width
            n = int(q) if q < _FAR_QUOTIENT else _FAR_N
            heappush(buckets[n % nbuckets], item)
            if n < cur_n:
                cur_n = n
        if items:
            self._cur_n = cur_n

    def _estimate_width(self, items: List[Entry]) -> float:
        """Twice the mean event spacing: ``2 * span / (count - 1)``.

        Brown's rule sizes buckets so each holds O(1) entries; with the
        doubling threshold keeping ``nbuckets`` within 2x of the
        population, a width of twice the mean gap makes one year cover the
        whole live window while occupied buckets average ~2 entries.  The
        mean is taken over the full population's span (min/max, O(n) and
        allocation-free) rather than a small sample — a sample drawn in
        bucket order spans the entire window and would overestimate the
        gap by population/sample.  Falls back to the current width when
        the span is degenerate (all ties or far-future sentinels).
        """
        if len(items) < 2:
            return self._width
        lo = hi = None
        count = 0
        for item in items:
            t = item[0]
            if t == Infinity:
                continue
            count += 1
            if lo is None:
                lo = hi = t
            elif t < lo:
                lo = t
            elif t > hi:
                hi = t
        if count < 2 or hi <= lo:
            return self._width
        width = 2.0 * (hi - lo) / (count - 1)
        if not (width > 0.0) or width == Infinity:
            return self._width
        return width


#: Registry of scheduler names accepted by ``Environment(scheduler=...)``
#: and the ``REPRO_SCHEDULER`` environment variable.
SCHEDULERS = {
    "heapq": HeapScheduler,
    "calendar": CalendarQueue,
}


def resolve_scheduler(
    spec: Union[str, EventScheduler, None] = None,
) -> EventScheduler:
    """Resolve a scheduler spec to a fresh :class:`EventScheduler`.

    ``None`` consults ``REPRO_SCHEDULER`` (default ``heapq``); a string is
    looked up in :data:`SCHEDULERS`; an :class:`EventScheduler` instance is
    used as-is (it must be empty).
    """
    if spec is None:
        spec = os.environ.get("REPRO_SCHEDULER") or "heapq"
    if isinstance(spec, EventScheduler):
        return spec
    try:
        factory = SCHEDULERS[spec]
    except (KeyError, TypeError):
        known = ", ".join(sorted(SCHEDULERS))
        raise ValueError(f"unknown scheduler {spec!r}; known schedulers: {known}") from None
    return factory()
