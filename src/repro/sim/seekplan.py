"""Within-tape retrieval-order optimization.

"The objects retrieving order within a tape is optimized to reduce the data
seek time based on object location information retrieved from the indexing
database" (Sec. 6).  The paper's schedule is a single sweep: read the
requested extents in ascending or descending position order, whichever
costs less from the current head position.  That is a strong heuristic but
not always optimal — reading an extent carries the head forward for free,
so a schedule that turns around at the right points can ride those free
advances (and, under an *affine* locate model with
``TapeSpec.locate_startup_s > 0``, save whole startup latencies by chaining
adjacent extents).  The retrieval order is therefore pluggable: see
:mod:`repro.sim.seekplanner` for the planner registry (this module's
two-sweep heuristic is its ``greedy-sweep`` default).

:func:`locate_cost` is the single shared accumulation of locate time along
a fixed order; every planner and every cost oracle in this package prices
schedules through it, so alternative planners cannot drift from the
simulator's cost model.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Sequence, Tuple

from ..hardware import ObjectExtent, TapeSpec

__all__ = ["locate_cost", "sweep_cost", "plan_retrieval"]

_START_MB = attrgetter("start_mb")


def locate_cost(
    ordered: Sequence[ObjectExtent], head_mb: float, spec: TapeSpec
) -> float:
    """Total locate time of reading ``ordered`` in exactly that order.

    This is *the* cost model: the engine's per-extent ``drive.read_extent``
    charges the same ``spec.locate_time`` hop-by-hop, so a planner whose
    plan costs X under this function takes X seconds of seek in the DES.
    The spec lookups are hoisted and zero-distance moves skipped, keeping
    the float expression (and therefore the result bits) identical to the
    pre-refactor hand-inlined loops and to a ``spec.locate_time`` sum.
    """
    startup = spec.locate_startup_s
    rate = spec.locate_rate_mb_s
    cost = 0.0
    position = head_mb
    for extent in ordered:
        distance = abs(extent.start_mb - position)
        if distance != 0:
            cost += startup + distance / rate
        position = extent.end_mb
    return cost


def sweep_cost(
    extents: Sequence[ObjectExtent], head_mb: float, spec: TapeSpec, ascending: bool
) -> float:
    """Total locate time of reading ``extents`` in one sweep direction."""
    if not extents:
        return 0.0
    ordered = sorted(extents, key=lambda e: e.start_mb, reverse=not ascending)
    return locate_cost(ordered, head_mb, spec)


def plan_retrieval(
    extents: Sequence[ObjectExtent], head_mb: float, spec: TapeSpec
) -> Tuple[List[ObjectExtent], float]:
    """Choose the cheaper sweep; returns (ordered extents, total seek time).

    Planning runs once per tape visit inside the simulation hot loop, so the
    two candidate sweeps are sorted exactly once each and priced through the
    shared :func:`locate_cost` accumulation.
    """
    if not extents:
        return [], 0.0
    asc = sorted(extents, key=_START_MB)
    up = locate_cost(asc, head_mb, spec)
    desc = sorted(extents, key=_START_MB, reverse=True)
    down = locate_cost(desc, head_mb, spec)
    if up <= down:
        return asc, up
    return desc, down
