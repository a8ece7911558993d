"""Host-time spans recorded by the benchmark around the simulator's public calls.

The simulator's own :class:`repro.des.Trace` records *simulated* time.  This
module records *host* time: a span per call into a layer, nested by call
stack, so a layer's self time is its span duration minus the spans of the
layers it called.  Spans are kept in memory and summarized per repetition.

Instrumentation is installed only for a traced pass (:func:`instrumented`)
and removed afterwards, so untraced passes run the program unmodified.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Dict, Iterator, List, Tuple


class SpanRecorder:
    """Nested host-time spans plus event counts, grouped by repetition."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, group]
        self.spans: List[list] = []
        self.counts: Dict[Any, Counter] = defaultdict(Counter)
        self.group: Any = None
        self._stack: List[int] = []
        self._stats: Dict[Any, Tuple[Dict[str, float], Dict[str, List[float]]]] = {}
        self._all_groups: Tuple[int, List[Any]] = (-1, [])

    def _open(self, name: str) -> list:
        stack = self._stack
        entry = [name, 0.0, 0.0, stack[-1] if stack else None, self.group]
        stack.append(len(self.spans))
        self.spans.append(entry)
        entry[1] = perf_counter()
        return entry

    def _close(self, entry: list) -> None:
        entry[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        entry = self._open(name)
        try:
            yield
        finally:
            self._close(entry)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.group][name] += amount

    def wrap(self, fn, name: str):
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = opener(name)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(entry)

        return wrapper

    def _group_stats(self, group: Any) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
        """(self time per name, durations per name) of one group, memoized."""
        cached = self._stats.get(group)
        if cached is not None:
            return cached
        totals: Dict[str, float] = defaultdict(float)
        durations: Dict[str, List[float]] = defaultdict(list)
        spans = self.spans
        for name, start, end, parent, g in spans:
            if g != group:
                continue
            duration = end - start
            totals[name] += duration
            durations[name].append(duration)
            if parent is not None:
                # A layer's self time excludes the spans of layers it called.
                totals[spans[parent][0]] -= duration
        self._stats[group] = (dict(totals), dict(durations))
        return self._stats[group]

    def self_times(self, group: Any) -> Dict[str, float]:
        """Per span name: summed duration minus the durations of child spans."""
        return self._group_stats(group)[0]

    def durations(self, group: Any, name: str) -> List[float]:
        """Every duration of one span name in one group, in call order."""
        return self._group_stats(group)[1].get(name, [])

    def groups(self, kind: str) -> List[Any]:
        """Every repetition group of one kind (``"setup"``/``"serve"``), in order."""
        if self._all_groups[0] != len(self.spans):
            seen = dict.fromkeys(entry[4] for entry in self.spans)
            self._all_groups = (len(self.spans), list(seen))
        seen = dict.fromkeys(self._all_groups[1] + list(self.counts))
        return [g for g in seen if isinstance(g, tuple) and g[0] == kind]


def _events_wrapper(recorder: SpanRecorder, run):
    """Count DES events processed by every ``Environment.run`` call."""

    @functools.wraps(run)
    def wrapper(env, *args, **kwargs):
        before = env.events_processed
        try:
            return run(env, *args, **kwargs)
        finally:
            recorder.count("des.events", env.events_processed - before)

    return wrapper


def _patch_points() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, span name) for every layer boundary the spans cover."""
    import repro.experiments.parallel as sweep_engine
    import repro.placement.parallel_batch as parallel_batch
    from repro.experiments.cache import ResultCache
    from repro.obs import FleetRegistry
    from repro.placement import ParallelBatchPlacement, PlacementResult
    from repro.redundancy.placement import (
        ErasureCodedPlacement,
        RedundantPlacementResult,
        ReplicatedPlacement,
    )
    from repro.sim import OpenSystem, SimulationSession

    points = [
        (parallel_batch, "cluster_objects", "placement.cluster"),
        (parallel_batch, "density_order", "placement.sublists"),
        (parallel_batch, "partition_sublists", "placement.sublists"),
        (parallel_batch, "refine_sublists", "placement.sublists"),
        (parallel_batch, "zigzag_assign", "placement.zigzag"),
        (parallel_batch, "clustered_organ_pipe_extents", "placement.organ_pipe"),
        (parallel_batch, "organ_pipe_extents", "placement.organ_pipe"),
        (ParallelBatchPlacement, "place", "placement.place"),
        (ErasureCodedPlacement, "place", "redundancy.place"),
        (ReplicatedPlacement, "place", "redundancy.place"),
        (PlacementResult, "validate", "catalog.validate"),
        (PlacementResult, "apply_to", "catalog.index"),
        (SimulationSession, "serve", "sim.serve"),
        (OpenSystem, "run", "sim.run"),
        (sweep_engine, "generate_workload", "workload.generate"),
        (sweep_engine, "snapshot_of_result", "obs.snapshot"),
        (FleetRegistry, "fold", "obs.fold"),
        (ResultCache, "get", "cache.get"),
        (ResultCache, "put", "cache.put"),
    ]
    # Subclasses that override a wrapped method get their own wrapper.
    for owner, attr in ((RedundantPlacementResult, "validate"), (RedundantPlacementResult, "apply_to")):
        if attr in vars(owner):
            points.append((owner, attr, "catalog.validate" if attr == "validate" else "catalog.index"))
    return points


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install span wrappers at every layer boundary; restore on exit."""
    from repro.des import Environment

    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attr, name in _patch_points():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        original_run = vars(Environment)["run"]
        saved.append((Environment, "run", original_run))
        Environment.run = _events_wrapper(recorder, original_run)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def median_over(values: List[float], default: float = 0.0) -> float:
    from statistics import median

    return float(median(values)) if values else default


def layer_self_time(recorder: SpanRecorder, kind: str, name: str) -> float:
    """Median over a kind's repetitions of one span's per-repetition self time."""
    return median_over([recorder.self_times(g).get(name, 0.0) for g in recorder.groups(kind)])


def layer_count(recorder: SpanRecorder, kind: str, name: str) -> float:
    """Median over a kind's repetitions of one per-repetition count."""
    return median_over([float(recorder.counts[g].get(name, 0)) for g in recorder.groups(kind)])

