"""Persistent open-system simulation: concurrent in-flight requests.

The paper's simulator (and :func:`repro.sim.engine.simulate_request`)
assumes requests arrive "one by one with long time interval between two
requests".  This module drops that assumption *structurally*: an
:class:`OpenSystem` owns a single long-lived DES
:class:`~repro.des.Environment`; a Poisson arrival process injects
Zipf-sampled requests onto the shared clock; and a pluggable
request-scheduling policy decides how much the in-flight requests may
overlap:

``serial-fcfs``
    Whole requests serialize behind one capacity-1 lock, reproducing the
    closed-loop :func:`~repro.sim.queueing.simulate_fcfs_queue` behaviour
    (same seed ⇒ same sojourn times) — the regression anchor.

``concurrent``
    A per-library dispatcher with per-drive job queues admits tape jobs
    from *multiple* requests simultaneously.  Requests touching disjoint
    libraries — or disjoint drives of one library — overlap fully, while
    the physical serialization points carry over unchanged: the robot arm
    (capacity-1 per library), the disk-stream cap, and the
    one-cartridge-one-drive invariant.  Drive failures interrupt the
    persistent drive worker; leftover extents re-queue and surviving
    drives rescue them, as in the closed-loop engine.

Entry points: ``session.open(policy=...)`` or :func:`simulate_open_system`.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass, field, replace as _dc_replace
from operator import attrgetter
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..catalog import Request
from ..des import Environment, Event, EventScheduler, Interrupt, Resource, ResourceUsageMonitor, Trace
from ..hardware import ObjectExtent, TapeDrive, TapeLibrary, TapeId
from ..obs import MetricsRegistry
from ..redundancy.dispatch import count_fallbacks, select_members
from .engine import RequestExecution, _serve_job, _switch_to
from .faults import FaultEscalation, FaultInjector, FaultSpec, failures_to_specs
from .metrics import DriveServiceRecord, RequestMetrics, WindowStat, sliding_window_stats
from .queueing import QueuedRequestRecord, QueueingResult
from .replacement import replacement_key
from .scheduling import TapeJob, estimate_job_time
from .seekplanner import SeekPlanner, resolve_seek_planner

__all__ = [
    "OpenSystem",
    "OpenSystemResult",
    "simulate_open_system",
    "SCHEDULING_POLICIES",
    "READ_SELECTIONS",
    "available_scheduling_policies",
]

#: (record, metrics) produced by one completed request.
_Outcome = Tuple[QueuedRequestRecord, RequestMetrics]


@dataclass
class OpenSystemResult(QueueingResult):
    """One open-system arrival stream's outcomes.

    Extends :class:`~repro.sim.queueing.QueueingResult` (whose mean/percentile
    and busy-union utilization views apply unchanged to overlapping services)
    with the per-request paper metrics, per-resource occupancy accounting,
    and sliding-window views.

    Note that in an open system a request's ``RequestMetrics.response_s`` is
    its *sojourn* (arrival to last byte), so queueing delay is included.
    """

    policy: str = ""
    metrics: List[RequestMetrics] = field(default_factory=list)
    #: Resource name -> occupancy summary (grants, max_in_use, busy_s,
    #: slot_busy_s, queue stats) from the attached ResourceUsageMonitors.
    resources: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Simulation time when the environment drained.
    horizon_s: float = 0.0
    #: The session's causal span tree (empty Trace when tracing was off).
    trace: Optional[Trace] = None
    #: Live-instrument registry with its snapshot series.
    registry: Optional[MetricsRegistry] = None
    #: Fault-layer summary (availability, degraded time, counters) from the
    #: run's :class:`~repro.sim.faults.FaultInjector`; empty when none armed.
    faults: Dict[str, float] = field(default_factory=dict)
    #: Repair-layer summary (tape losses, rebuilds, objects lost, backlog)
    #: from the run's :class:`~repro.sim.repair.RepairManager`; empty when
    #: no media faults were configured.
    repair: Dict[str, float] = field(default_factory=dict)

    # -- fault/availability views -----------------------------------------
    @property
    def availability(self) -> float:
        """Time-weighted mean fraction of drives up (1.0 without faults)."""
        return float(self.faults.get("availability", 1.0))

    @property
    def degraded_time_s(self) -> float:
        """Total time at least one drive was down."""
        return float(self.faults.get("degraded_time_s", 0.0))

    @property
    def aborted_requests(self) -> int:
        """Requests that completed as aborted (every candidate drive down)."""
        return sum(1 for record in self.records if record.aborted)

    # -- durability views --------------------------------------------------
    @property
    def objects_lost(self) -> int:
        """Objects with a fragment below ``needed`` survivors (unrecoverable)."""
        repair = getattr(self, "repair", None) or {}
        return int(repair.get("objects_lost", 0))

    @property
    def durability(self) -> float:
        """Fraction of cataloged objects still recoverable at the horizon."""
        repair = getattr(self, "repair", None) or {}
        total = repair.get("objects_total", 0)
        if not total:
            return 1.0
        return 1.0 - float(repair.get("objects_lost", 0)) / float(total)

    @property
    def repair_backlog_seconds(self) -> float:
        """Summed loss-detection-to-rebuilt time over all repaired members
        (open repairs are charged up to the horizon)."""
        repair = getattr(self, "repair", None) or {}
        return float(repair.get("backlog_s", 0.0))

    # -- telemetry views -------------------------------------------------
    def spans(self) -> list:
        """Every recorded span (empty when tracing was disabled)."""
        return list(self.trace) if self.trace is not None else []

    def to_chrome_trace(self) -> dict:
        """Chrome/Perfetto ``trace_event`` document of this run's spans."""
        from ..obs import to_chrome_trace

        return to_chrome_trace(self.spans(), label=f"{self.scheme}/{self.policy}")

    def write_trace(self, path) -> dict:
        """Write the Perfetto-loadable trace JSON; returns the document."""
        from ..obs import write_chrome_trace

        return write_chrome_trace(self.spans(), path, label=f"{self.scheme}/{self.policy}")

    def write_metrics(self, path) -> int:
        """Dump the registry's snapshot series as JSONL; lines written."""
        from ..obs import write_metrics_jsonl

        if self.registry is None:
            raise ValueError("this result carries no metrics registry")
        return write_metrics_jsonl(self.registry, path)

    def stage_report(self):
        """Critical-path stage attribution (see :mod:`repro.obs.report`)."""
        from ..obs import attribute_requests

        return attribute_requests(self.spans(), label=f"{self.scheme}/{self.policy}")

    @property
    def peak_in_flight(self) -> int:
        """Largest number of simultaneously in-flight requests."""
        from .metrics import in_flight_profile

        _, counts = in_flight_profile(self.records)
        return int(counts.max()) if len(counts) else 0

    def windowed(self, window_s: float, step_s: Optional[float] = None) -> List[WindowStat]:
        """Sliding-window arrivals/in-flight/sojourn-percentile stats."""
        return sliding_window_stats(self.records, window_s, step_s)

    def resource_utilization(self, name: str, capacity: int = 1) -> float:
        """Mean busy fraction of one monitored resource over the horizon."""
        stats = self.resources[name]
        if self.horizon_s <= 0:
            return 0.0
        return stats["slot_busy_s"] / (self.horizon_s * capacity)


# ---------------------------------------------------------------------------
# Scheduling policies


class SerialFCFSPolicy:
    """Exclusive whole-request service: the closed-loop model on one clock.

    Every request takes a global capacity-1 lock for its entire service, so
    hardware-state evolution (mounted tapes, head positions) and therefore
    every service duration is identical to running
    :func:`~repro.sim.queueing.simulate_fcfs_queue` with the same seed.
    """

    name = "serial-fcfs"
    #: Rejected at :class:`OpenSystem` construction when fault specs (or the
    #: legacy ``failures=`` map) are present: the policy arms no recovery
    #: hooks between requests.
    supports_faults = False

    def bind(self, opensys: "OpenSystem") -> None:
        self.os = opensys
        self.lock = Resource(opensys.env, capacity=1)

    def start_run(self) -> None:
        """Nothing is carried from one run to the next."""

    def end_run(self) -> None:
        """Nothing is carried from one run to the next."""

    def serve(
        self,
        request: Request,
        arrival_s: float,
        parent: Optional[int] = None,
        token: Optional[int] = None,
    ):
        os = self.os
        env = os.env
        trace_key = token if token is not None else request.id
        with self.lock.request() as grant:
            with os.trace.span(
                env, "queue_wait", parent=parent, request=trace_key, policy=self.name
            ):
                yield grant
            start = env.now
            execution = RequestExecution(
                env,
                os.system,
                os.index,
                request,
                os.tape_priority,
                os.trace,
                os.replacement_policy,
                None,
                os.disk,
                parent=parent,
                trace_request=trace_key,
                seek_planner=os.seek_planner,
            )
            yield from execution.wait()
            metrics = execution.finalize()
        # Open-system semantics: response is the sojourn (arrival to last
        # byte), so time queued behind the serial lock is part of T_switch —
        # finalize() measured from the lock grant, re-base onto the arrival.
        metrics = RequestMetrics.from_drive_records(
            request_id=request.id,
            size_mb=metrics.size_mb,
            num_tapes=metrics.num_tapes,
            records=list(execution.records.values()),
            start_s=arrival_s,
        )
        record = QueuedRequestRecord(
            request_id=request.id,
            arrival_s=arrival_s,
            start_s=start,
            finish_s=env.now,
            size_mb=metrics.size_mb,
        )
        return record, metrics

    def check_drained(self) -> None:
        if self.lock.users or self.lock.queue:
            raise RuntimeError("serial-fcfs lock still held after the run drained")

    def close(self) -> None:
        """Drop the back-reference to the open system."""
        self.os = None


#: "Not computed yet" marker for per-call lazily chosen values.
_UNSET = object()
_START_MB = attrgetter("start_mb")
#: One library's share of a fan-out (see :meth:`ConcurrentPolicy._tape_rows`).
_TapeRow = Tuple[int, Tuple[TapeId, ...], Tuple[tuple, ...], Tuple[Optional[tuple], ...]]


class _Join:
    """Countdown shared by the jobs of one submission.

    ``event`` fires once every job has landed, served or aborted: one
    kernel event per submission instead of one per job plus a condition.
    The count is set before the first job is submitted, because a job
    can land inside ``submit`` itself (a lost cartridge fails fast).
    """

    __slots__ = ("event", "remaining")

    def __init__(self, env: Environment, remaining: int) -> None:
        self.event = env.event()
        self.remaining = remaining
        if not remaining:
            self.event.succeed()

    def land(self) -> None:
        """Count one job down; the last one fires the event."""
        self.remaining -= 1
        if not self.remaining:
            self.event.succeed()


@dataclass(eq=False)
class _DispatchedJob:
    """One tape job in flight through a library dispatcher.

    Compared by identity (``eq=False``): ``pending.remove`` then matches
    the job object itself instead of comparing every field of each job
    queued ahead of it.
    """

    job: TapeJob
    #: Span-tree grouping key of the owning arrival (unique per arrival).
    request_id: int
    #: The owning request's per-drive records (shared across its jobs).
    records: Dict[str, DriveServiceRecord]
    #: The submission's countdown, landed once when this job is done.
    join: _Join
    #: When a drive first began working on this job (service start).
    started_at: Optional[float] = None
    #: When the job entered the dispatcher (for queue/span accounting).
    submitted_at: float = 0.0
    #: Reserved ``tape_job`` span id (closed when the job lands) and the
    #: owning request's root span id.
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    #: Set when the job was failed instead of served (no candidate drive
    #: left and no repair pending); the owning request completes aborted.
    aborted: bool = False
    error: str = ""
    #: True for rebuild traffic submitted by the repair manager; repair
    #: jobs share the dispatcher/worker machinery with user restores but
    #: are ordered by the configured repair-priority policy.
    repair: bool = False


class ConcurrentPolicy:
    """Overlap requests across libraries and drives.

    Each request fans its tape jobs out to per-library dispatchers and
    completes when the last job lands; dispatchers run jobs from any number
    of in-flight requests on their drives simultaneously.
    """

    name = "concurrent"
    supports_faults = True

    def bind(self, opensys: "OpenSystem") -> None:
        self.os = opensys
        self.dispatchers = {
            library.id: _LibraryDispatcher(opensys, library)
            for library in opensys.system.libraries
        }
        #: Redundancy instruments, created lazily on the first redundant
        #: serve: non-redundant runs keep their registry content (and its
        #: pinned digest) byte-identical to the pre-redundancy engine.
        self._red_inst: Optional[Dict[str, object]] = None
        #: Fan-out memo: ``id(request)`` -> ``(request, rows, total_mb,
        #: num_tapes)`` (see :meth:`_fanout`), valid for one index
        #: generation of one index; ``None`` while memoizing is off.
        self._fanouts: Optional[Dict[int, tuple]] = None
        self._fanout_index = None
        self._fanout_generation = -1

    def start_run(self) -> None:
        """Drop the fan-out memo and decide whether this run may keep one.

        A request's rows are a pure function of the location index, the
        shard filter and the planner, plus — through the LPT price — the
        ``TapeSpec`` of any drive holding one of its tapes.  When every
        drive uses its library's ``spec.tape`` the price cannot depend on
        mount state, so the rows may be reused; otherwise every arrival is
        priced afresh.
        """
        uniform = all(
            drive.tape_spec is library.spec.tape
            for library in self.os.system.libraries
            for drive in library.drives
        )
        self._fanouts = {} if uniform else None
        self._fanout_index = None

    def end_run(self) -> None:
        """Release the fan-out memo: it is rebuilt by the next run anyway."""
        self._fanouts = None
        self._fanout_index = None

    def _fanout(self, request: Request) -> tuple:
        """``(request, rows, total_mb, num_tapes)`` of a non-redundant request.

        Computed on the first arrival of ``request`` and reused by later
        ones until the index (or its generation) changes.
        """
        os = self.os
        index = os.index
        memo = self._fanouts
        if memo is not None:
            if (
                index is not self._fanout_index
                or index.generation != self._fanout_generation
            ):
                memo.clear()
                self._fanout_index = index
                self._fanout_generation = index.generation
            entry = memo.get(id(request))
            # The entry holds the request, so its id cannot be reused.
            if entry is not None and entry[0] is request:
                return entry
        jobs = index.group_by_tape(request.object_ids)
        total_mb = sum(e.size_mb for extents in jobs.values() for e in extents)
        entry = (request, self._tape_rows(jobs), total_mb, len(jobs))
        if memo is not None:
            memo[id(request)] = entry
        return entry

    def _tape_rows(
        self, tape_extents: Mapping[TapeId, List[ObjectExtent]]
    ) -> List[_TapeRow]:
        """One row ``(library id, tape ids, extents, BOT orders)`` per library.

        Libraries ascend, and a row lists its tapes longest-processing-time
        first, as in the closed-loop planner.  ``extents[i]`` holds tape
        ``i``'s extents as a position-sorted tuple.  ``orders[i]`` is the
        beginning-of-tape order that pricing planned with the run's planner
        and the library's ``spec.tape``: the very tuple ``extents[i]`` when
        the plan kept position order (the usual case from BOT), or ``None``
        when the job was priced against another drive's spec.  Libraries
        another shard owns are left out: their jobs run there, on an
        identical clock fed by the identical arrival stream.
        """
        os = self.os
        planner = os.seek_planner
        by_library: Dict[int, List[TapeJob]] = {}
        for tape_id, extents in tape_extents.items():
            by_library.setdefault(tape_id.library, []).append(
                TapeJob(tape_id, tuple(sorted(extents, key=_START_MB)))
            )
        shard = os.shard_filter
        rows: List[_TapeRow] = []
        for library_id in sorted(by_library):
            if shard is not None and library_id not in shard:
                continue
            library = os.system.libraries[library_id]
            tape_jobs = by_library[library_id]
            tape_jobs.sort(
                key=lambda job: (
                    -estimate_job_time(job, library, planner=planner),
                    job.tape_id,
                )
            )
            orders = []
            for job in tape_jobs:
                _, spec, order = job.bot_plan
                if spec is not library.spec.tape:
                    orders.append(None)
                else:
                    order = tuple(order)
                    orders.append(job.extents if order == job.extents else order)
            rows.append((
                library_id,
                tuple(job.tape_id for job in tape_jobs),
                tuple(job.extents for job in tape_jobs),
                tuple(orders),
            ))
        return rows

    def _submit_tape_jobs(
        self,
        rows: List[_TapeRow],
        trace_key: int,
        parent: Optional[int],
        records: Dict[str, DriveServiceRecord],
        repair: bool = False,
    ) -> Tuple[List[_DispatchedJob], Event]:
        """Submit one fresh job per tape of ``rows`` (see :meth:`_tape_rows`).

        Returns the jobs and the one event that fires when all have landed.
        """
        os = self.os
        env = os.env
        planner = os.seek_planner
        reserve_id = os.trace.reserve_id
        join = _Join(env, sum(len(row[1]) for row in rows))
        djobs: List[_DispatchedJob] = []
        for library_id, tape_ids, extents, orders in rows:
            dispatcher = self.dispatchers[library_id]
            spec = dispatcher.library.spec.tape
            for tape_id, tape_extents, order in zip(tape_ids, extents, orders):
                job = TapeJob(
                    tape_id, tape_extents,
                    bot_plan=None if order is None else (planner, spec, order),
                )
                djob = _DispatchedJob(
                    job=job, request_id=trace_key, records=records,
                    join=join, submitted_at=env.now,
                    span_id=reserve_id(), parent_id=parent, repair=repair,
                )
                djobs.append(djob)
                dispatcher.submit(djob)
        return djobs, join.event

    def serve(
        self,
        request: Request,
        arrival_s: float,
        parent: Optional[int] = None,
        token: Optional[int] = None,
    ):
        os = self.os
        env = os.env
        if os.index.has_redundancy:
            outcome = yield from self._serve_redundant(
                request, arrival_s, parent=parent, token=token
            )
            return outcome
        trace_key = token if token is not None else request.id
        _, rows, total_mb, num_tapes = self._fanout(request)
        records: Dict[str, DriveServiceRecord] = {}
        djobs, landed = self._submit_tape_jobs(rows, trace_key, parent, records)
        yield landed

        aborted = any(dj.aborted for dj in djobs)
        if records:
            metrics = RequestMetrics.from_drive_records(
                request_id=request.id,
                size_mb=total_mb,
                num_tapes=num_tapes,
                records=list(records.values()),
                start_s=arrival_s,
                aborted=aborted,
            )
        else:
            # Aborted before any drive touched it: every candidate drive in
            # some library was already down with no repair pending.
            metrics = RequestMetrics(
                request_id=request.id,
                size_mb=total_mb,
                response_s=env.now - arrival_s,
                seek_s=0.0,
                transfer_s=0.0,
                num_tapes=num_tapes,
                num_switches=0,
                num_drives=0,
                aborted=True,
            )
        starts = [dj.started_at for dj in djobs if dj.started_at is not None]
        started = min(starts) if starts else env.now
        capture = os._shard_capture
        if capture is not None:
            # Shard child: ship the local share of this token to the merge.
            # start/finish are None (not degenerate arrival-time values)
            # when no local library served it, so cross-shard min/max stay
            # honest.
            capture[trace_key] = (
                request.id,
                arrival_s,
                total_mb,
                num_tapes,
                list(records.values()),
                min(starts) if starts else None,
                env.now if djobs else None,
                aborted,
            )
        record = QueuedRequestRecord(
            request_id=request.id,
            arrival_s=arrival_s,
            start_s=started,
            finish_s=env.now,
            size_mb=total_mb,
            aborted=aborted,
        )
        return record, metrics

    # -- choice-of-d replica dispatch ------------------------------------
    def _redundancy_instruments(self) -> Dict[str, object]:
        if self._red_inst is None:
            registry = self.os.registry
            self._red_inst = {
                "requests": registry.counter("redundancy.requests", unit="requests"),
                "fallbacks": registry.counter("redundancy.fallbacks", unit="members"),
                "retries": registry.counter("redundancy.retries", unit="rounds"),
                "unservable": registry.counter("redundancy.unservable", unit="groups"),
                "digest": registry.digest("replica_fallbacks", unit="members"),
            }
        return self._red_inst

    def _dispatcher_live(self, tape_id: TapeId) -> bool:
        """A member is live when its library has a worker or a committed repair."""
        dispatcher = self.dispatchers[tape_id.library]
        if dispatcher.workers:
            return True
        injector = self.os.injector
        return injector is not None and injector.will_recover(dispatcher.library)

    def _dispatcher_load(self, tape_id: TapeId) -> int:
        dispatcher = self.dispatchers[tape_id.library]
        load = (
            len(dispatcher.pending) + len(dispatcher.inbox) + len(dispatcher.busy)
        )
        if not dispatcher.workers:
            # Down-but-recovering: counts as live (jobs wait for the repair)
            # but any member with a working drive should win the choice.
            load += 1_000_000
        return load

    def _member_cost(self, tape_id: TapeId, extent: ObjectExtent):
        """Estimated cost of reading one member (``read_selection=cheapest``).

        Mounted tapes win outright (no robot exchange), then the lowest
        single-extent :func:`~repro.sim.scheduling.estimate_job_time`;
        down-but-recovering libraries are a last resort.
        """
        dispatcher = self.dispatchers[tape_id.library]
        library = dispatcher.library
        if not dispatcher.workers:
            return (2, 0.0)
        mounted = 0 if library.drive_holding(tape_id) is not None else 1
        estimate = estimate_job_time(
            TapeJob(tape_id, [extent]), library, planner=self.os.seek_planner
        )
        return (mounted, estimate)

    def _serve_redundant(
        self,
        request: Request,
        arrival_s: float,
        parent: Optional[int] = None,
        token: Optional[int] = None,
    ):
        """Serve via redundancy groups: route to least-loaded live members.

        Each fragment resolves to a :class:`~repro.catalog.RedundancyGroup`
        of which ``needed`` members must be read.  Selection is
        choice-of-d (:func:`repro.redundancy.dispatch.select_members`);
        jobs that abort on a failed library exclude their tape and the
        shortfall re-dispatches to surviving members, so a request only
        aborts once some group has no members left — at which point the
        bookkeeping (counters, empty-record metrics) matches the
        non-redundant abort path exactly.
        """
        os = self.os
        env = os.env
        trace_key = token if token is not None else request.id
        inst = self._redundancy_instruments()
        inst["requests"].inc()
        groups = os.index.redundancy_groups(request.object_ids)
        total_mb = sum(g.bytes_mb for g in groups)
        records: Dict[str, DriveServiceRecord] = {}
        all_djobs: List[_DispatchedJob] = []
        submitted_tapes: Set[TapeId] = set()
        #: Members still to read per group index.
        remaining = {i: g.needed for i, g in enumerate(groups)}
        #: Tapes already dispatched for a group (in flight or landed).
        used: Dict[int, Set[TapeId]] = {i: set() for i in range(len(groups))}
        #: Tapes that aborted a job of this request (never retried).
        excluded: Set[TapeId] = set()
        fallbacks = 0
        rounds = 0
        unservable = False
        cost_of = self._member_cost if os.read_selection == "cheapest" else None

        while True:
            tape_extents: Dict[TapeId, List[ObjectExtent]] = {}
            tape_groups: Dict[TapeId, List[int]] = {}
            for i, group in enumerate(groups):
                need = remaining[i]
                if need <= 0:
                    continue
                chosen = select_members(
                    _dc_replace(group, needed=need),
                    excluded | used[i],
                    self._dispatcher_live,
                    self._dispatcher_load,
                    cost_of=cost_of,
                )
                if chosen is None:
                    # Every member exhausted: the group — and with it the
                    # request — aborts, exactly as a non-redundant request
                    # whose only tape's library died.
                    unservable = True
                    inst["unservable"].inc()
                    remaining[i] = 0
                    continue
                fallbacks += count_fallbacks(chosen, group.needed)
                for tape_id, extent in chosen:
                    tape_extents.setdefault(tape_id, []).append(extent)
                    tape_groups.setdefault(tape_id, []).append(i)
                    used[i].add(tape_id)
            if not tape_extents:
                break
            if rounds:
                inst["retries"].inc()
            rounds += 1
            djobs, landed = self._submit_tape_jobs(
                self._tape_rows(tape_extents), trace_key, parent, records
            )
            all_djobs.extend(djobs)
            submitted_tapes.update(tape_extents)
            yield landed
            for djob in djobs:
                if djob.aborted:
                    excluded.add(djob.job.tape_id)
                else:
                    for i in tape_groups.get(djob.job.tape_id, ()):
                        remaining[i] -= 1

        inst["fallbacks"].inc(fallbacks)
        inst["digest"].record(float(fallbacks))
        aborted = unservable
        if records:
            metrics = RequestMetrics.from_drive_records(
                request_id=request.id,
                size_mb=total_mb,
                num_tapes=len(submitted_tapes),
                records=list(records.values()),
                start_s=arrival_s,
                aborted=aborted,
            )
        else:
            metrics = RequestMetrics(
                request_id=request.id,
                size_mb=total_mb,
                response_s=env.now - arrival_s,
                seek_s=0.0,
                transfer_s=0.0,
                num_tapes=len(submitted_tapes),
                num_switches=0,
                num_drives=0,
                aborted=True,
            )
        starts = [dj.started_at for dj in all_djobs if dj.started_at is not None]
        started = min(starts) if starts else env.now
        record = QueuedRequestRecord(
            request_id=request.id,
            arrival_s=arrival_s,
            start_s=started,
            finish_s=env.now,
            size_mb=total_mb,
            aborted=aborted,
        )
        return record, metrics

    def check_drained(self) -> None:
        for dispatcher in self.dispatchers.values():
            unserved = len(dispatcher.pending) + len(dispatcher.inbox)
            if unserved:
                raise RuntimeError(
                    f"library {dispatcher.library.id} finished with "
                    f"{unserved} unserved tape jobs (no eligible drive survived?)"
                )

    def close(self) -> None:
        """Close every dispatcher and drop the back-reference to the system."""
        for dispatcher in self.dispatchers.values():
            dispatcher.close()
        self.os = None


class _LibraryDispatcher:
    """Per-library job queue feeding persistent per-drive worker processes.

    Admission rules mirror the closed-loop planner, evaluated dynamically
    against live hardware state instead of once per request:

    * a job whose tape is mounted (or being mounted) waits for *that* drive
      — a cartridge exists once — and serves in place when it frees up;
    * an offline tape takes an idle empty switch drive first, otherwise
      displaces an idle drive's mounted tape in replacement-policy order,
      never displacing a tape that a queued job still needs;
    * pinned drives serve their mounted tape but never switch, unless no
      unpinned drive is left alive (degraded operation);
    * a failing drive's unserved extents re-queue at the front and the
      remaining drives pick them up.
    """

    def __init__(self, opensys: "OpenSystem", library: TapeLibrary) -> None:
        self.opensys = opensys
        self.env = opensys.env
        self.library = library
        self.trace = opensys.trace
        self.disk = opensys.disk
        self.replacement_policy = opensys.replacement_policy
        self.tape_priority = opensys.tape_priority
        self.seek_planner = opensys.seek_planner
        self.pending_gauge = opensys.registry.gauge(
            f"dispatch.L{library.id}.pending", unit="jobs"
        )
        self.pending: Deque[_DispatchedJob] = deque()
        #: Tape -> number of its jobs in ``pending``: a multiset kept in step
        #: by :meth:`_enqueue`, :meth:`_dequeue` and :meth:`_abort_unservable`.
        self.pending_tapes: Dict[TapeId, int] = {}
        #: Drive index -> job handed over but not yet picked up.
        self.inbox: Dict[int, _DispatchedJob] = {}
        #: Drive indices currently assigned/working (inbox or serving).
        self.busy: set = set()
        #: Idle workers parked on these events.
        self.wake: Dict[int, Event] = {}
        #: Tape -> drive index responsible for it right now (assignment
        #: through service; prevents two drives mounting one cartridge).
        self.committed: Dict[TapeId, int] = {}
        #: Drive indices with a failure interrupt in flight (guards against
        #: double interrupts when two fault processes hit one drive at once).
        self._dying: set = set()
        #: Drive index -> live restore-on-repair process (pinned drives).
        self._restores: Dict[int, object] = {}
        #: Parked restore processes, woken at every dispatch round.
        self._restore_waiters: List[Event] = []
        #: Set by :meth:`FaultInjector.arm` when a transient stream targets
        #: one of this library's drives (keeps the no-faults path branch-free
        #: beyond one attribute test).
        self.transients_armed = False
        #: Set by :meth:`FaultInjector.arm` when media faults are configured
        #: (gates the lost-tape admission check) / when a wear process
        #: targets one of this library's tapes (gates cycle accounting).
        #: Both keep the no-media-fault hot path to one attribute test.
        self.media_armed = False
        self.wear_armed = False
        #: Repair-priority policy, configured by the RepairManager when
        #: media faults are armed; ``None`` keeps plain FIFO admission.
        self.repair_policy: Optional[str] = None
        #: Fair-share token bucket (drive-seconds): accrues at
        #: ``share x live drives`` and is spent per admitted repair job.
        self._repair_share = 0.0
        self._repair_burst_s = 0.0
        self._repair_tokens = 0.0
        self._repair_tokens_at = 0.0
        #: Count of repair jobs currently in ``pending``: with zero, the
        #: dispatch loop skips policy ordering entirely, so an armed but
        #: fault-free run pays nothing per round.
        self._repair_pending = 0
        #: Batch-0 home tape of each pinned drive, captured at construction;
        #: repaired pinned drives restore this mount when feasible.
        self.pinned_home: Dict[int, TapeId] = {
            drive.id.index: drive.mounted.id
            for drive in library.drives
            if drive.pinned and drive.mounted is not None
        }
        self.workers = {
            drive.id.index: self.env.process(self._worker(drive))
            for drive in library.drives
            if not drive.failed
        }
        #: ``(live drives, degraded)``, built at the first dispatch round
        #: (after the run's ``session.reset()`` has pinned drives) and
        #: dropped whenever ``workers`` changes.
        self._live: Optional[Tuple[List[TapeDrive], bool]] = None

    def close(self) -> None:
        """Stop the parked workers and drop every tie to the open system.

        Each parked process (worker, or pinned-drive restore) is detached
        from the event it waits on and its generator closed, so neither the
        processes nor this dispatcher are left in a reference cycle.  Only
        for a drained system: nothing may run afterwards.
        """
        for event in list(self.wake.values()) + self._restore_waiters:
            event.callbacks.clear()
        for process in list(self.workers.values()) + list(self._restores.values()):
            process._generator.close()
        self.wake.clear()
        self.inbox.clear()
        self.workers.clear()
        self._restores.clear()
        self._restore_waiters = []
        self._live = None
        self.opensys = None

    # -- admission ------------------------------------------------------
    def submit(self, djob: _DispatchedJob) -> None:
        if self.media_armed and self.library.tapes[djob.job.tape_id].lost:
            # The cartridge is destroyed: fail fast so redundant serves
            # fail over (and non-redundant requests abort) immediately.
            djob.aborted = True
            djob.error = f"tape {djob.job.tape_id} lost (media failure)"
            self._close_job_span(djob, drive_name="", aborted=True)
            djob.join.land()
            return
        self._enqueue(djob)
        self._dispatch()
        if not self.workers:
            # No live drive at submit time: abort now unless a committed
            # repair will resurrect one (the job then waits for it).
            self._abort_unservable()

    def _enqueue(self, djob: _DispatchedJob, front: bool = False) -> None:
        (self.pending.appendleft if front else self.pending.append)(djob)
        tape_id = djob.job.tape_id
        self.pending_tapes[tape_id] = self.pending_tapes.get(tape_id, 0) + 1
        if djob.repair:
            self._repair_pending += 1

    def _dequeue(self, djob: _DispatchedJob) -> None:
        self.pending.remove(djob)
        tape_id = djob.job.tape_id
        left = self.pending_tapes.pop(tape_id) - 1
        if left:
            self.pending_tapes[tape_id] = left
        if djob.repair:
            self._repair_pending -= 1

    def configure_repair(
        self, policy: str, share: float, burst_s: float
    ) -> None:
        """Arm the repair-priority policy (called by the RepairManager)."""
        self.repair_policy = policy
        self._repair_share = share
        self._repair_burst_s = burst_s
        self._repair_tokens = 0.0
        self._repair_tokens_at = self.env.now

    def _repair_order(self) -> List[_DispatchedJob]:
        """Pending queue in policy order (stable within each class)."""
        if self.repair_policy == "user-first":
            return sorted(self.pending, key=lambda dj: dj.repair)
        if self.repair_policy == "repair-first":
            return sorted(self.pending, key=lambda dj: not dj.repair)
        return list(self.pending)  # fair-share keeps FIFO order

    def _accrue_repair_tokens(self) -> bool:
        """Bring the fair-share bucket up to now; False if admission is unmetered.

        Only ``fair-share`` meters admission; the bucket accrues
        ``share x live drives`` drive-seconds per second (capped at the
        burst).  Work-conserving override: with no user job waiting, repair
        runs regardless of tokens — idle drives are never held back, and
        the environment can always drain (a token-starved repair job with
        user work pending always has a future completion event to wake it).
        """
        if self.repair_policy != "fair-share":
            return False
        if not any(not dj.repair for dj in self.pending):
            return False
        now = self.env.now
        if now > self._repair_tokens_at:
            rate = self._repair_share * max(1, len(self.workers))
            self._repair_tokens = min(
                self._repair_burst_s,
                self._repair_tokens + rate * (now - self._repair_tokens_at),
            )
            self._repair_tokens_at = now
        return True

    def _admit_repair(self, djob: _DispatchedJob) -> Optional[float]:
        """Token cost (drive-seconds) to run this repair job now, or ``None``."""
        if not self._accrue_repair_tokens():
            return 0.0
        cost = estimate_job_time(djob.job, self.library, planner=self.seek_planner)
        if self._repair_tokens >= cost:
            return cost
        return None

    def _dispatch(self) -> None:
        if self.pending:
            live, degraded = self._live_pool()
            busy = self.busy
            idle = [d for d in live if d.id.index not in busy]
            pending_tapes = self.pending_tapes
            while idle and self.pending:
                # Precheck: a job is admissible only on an idle drive holding
                # its tape (committed tapes sit in busy drives) or on the
                # offline drive, and repair tokens can only veto more.  With
                # no idle drive's tape in the ``pending_tapes`` multiset and
                # no offline drive, no scan of ``pending`` assigns anything.
                offline = _UNSET
                for d in idle:
                    if d.mounted is not None and d.mounted.id in pending_tapes:
                        break
                else:
                    offline = self._offline_drive(idle, degraded)
                    if offline is None:
                        if self._repair_pending:
                            # The skipped scan would have accrued fair-share
                            # tokens at its first repair job: accrue them now.
                            self._accrue_repair_tokens()
                        break
                if not self._try_assign(idle, degraded, offline):
                    break
        self.pending_gauge.set(len(self.pending), self.env.now)
        if self._restore_waiters:
            waiters, self._restore_waiters = self._restore_waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def _live_pool(self) -> Tuple[List[TapeDrive], bool]:
        """Live drives in drive order and whether no unpinned one is left.

        Cached between pool changes: only a drive failure (worker exit) or
        a repair (new worker) changes it, and both drop the cache.
        """
        pool = self._live
        if pool is None:
            workers = self.workers
            live = [d for d in self.library.drives if d.id.index in workers]
            pool = self._live = (live, not any(not d.pinned for d in live))
        return pool

    def _offline_drive(self, idle: List[TapeDrive], degraded: bool) -> Optional[TapeDrive]:
        """The drive an offline tape would take now, or None.

        An idle empty switch drive first (the lowest index), otherwise the
        replacement-policy minimum among idle drives whose mounted tape is
        not protected: neither the tape of a pending job (``pending_tapes``)
        nor a committed one.  Nothing here depends on which job asks, and
        the protected set is invariant during a round because an assigned
        job's tape moves from the pending side of the union to the
        committed side.
        """
        candidates = [d for d in idle if degraded or not d.pinned]
        for d in candidates:
            if d.mounted is None:
                return d
        pending_tapes = self.pending_tapes
        committed = self.committed
        displaceable = [
            d for d in candidates
            if d.mounted.id not in pending_tapes and d.mounted.id not in committed
        ]
        if not displaceable:
            return None
        return min(
            displaceable,
            key=lambda d: replacement_key(self.replacement_policy, d, self.tape_priority),
        )

    def _try_assign(self, idle: List[TapeDrive], degraded: bool, offline) -> bool:
        """Assign the first admissible pending job; True if one was placed.

        ``idle`` is the round's idle live drives, and the chosen one leaves
        it; ``offline`` is :meth:`_offline_drive` of them, or ``_UNSET``
        until a job needs it.
        """
        busy = self.busy
        tapes = self.library.tapes
        committed = self.committed
        workers = self.workers
        pending = (
            self._repair_order() if self._repair_pending else self.pending
        )
        for djob in pending:
            repair_cost = 0.0
            if djob.repair:
                cost = self._admit_repair(djob)
                if cost is None:
                    continue  # fair-share: not enough drive-second tokens yet
                repair_cost = cost
            tape_id = djob.job.tape_id
            holder_idx = committed.get(tape_id)
            if holder_idx is None:
                holder = tapes[tape_id].holder
                if holder is not None and holder.index in workers:
                    holder_idx = holder.index
            if holder_idx is not None:
                if holder_idx in busy:
                    continue  # the cartridge lives in a busy drive: wait for it
                chosen = self.library.drives[holder_idx]
            else:
                if offline is _UNSET:
                    offline = self._offline_drive(idle, degraded)
                if offline is None:
                    continue
                chosen = offline
            self._dequeue(djob)
            if repair_cost:
                self._repair_tokens -= repair_cost
            idle.remove(chosen)
            self._assign(djob, chosen)
            return True
        return False

    def _assign(self, djob: _DispatchedJob, drive: TapeDrive) -> None:
        idx = drive.id.index
        self.busy.add(idx)
        self.committed[djob.job.tape_id] = idx
        self.inbox[idx] = djob
        wake = self.wake.pop(idx, None)
        if wake is not None:
            wake.succeed()

    # -- failure / repair hooks (driven by the FaultInjector) ------------
    def purge_lost_tape(self, tape_id: TapeId) -> None:
        """Abort queued / handed-over jobs targeting a destroyed cartridge.

        A job a worker is *already serving* completes (bytes were streaming
        before the loss; the loss manifests at the next mount attempt).
        Everything still queued or parked in a drive inbox fails now, so
        redundant requests fail over within the same dispatch round.
        """
        doomed = [dj for dj in self.pending if dj.job.tape_id == tape_id]
        for djob in doomed:
            self._dequeue(djob)
        for idx in [
            i for i, dj in self.inbox.items() if dj.job.tape_id == tape_id
        ]:
            doomed.append(self.inbox.pop(idx))
            self.busy.discard(idx)
        self.committed.pop(tape_id, None)
        for djob in doomed:
            djob.aborted = True
            djob.error = f"tape {tape_id} lost (media failure)"
            self._close_job_span(djob, drive_name="", aborted=True)
            djob.join.land()
        if doomed:
            self._dispatch()

    def fail_drive(self, drive: TapeDrive, cause: str = "drive-failure") -> bool:
        """Interrupt the drive's worker (and any restore in flight).

        Returns False when the drive is already dead or dying, so two fault
        processes hitting one drive at the same instant cannot double-fail
        it (the loser must not later "repair" a failure it never caused).
        """
        idx = drive.id.index
        worker = self.workers.get(idx)
        if worker is None or not worker.is_alive or idx in self._dying:
            return False
        self._dying.add(idx)
        restore = self._restores.get(idx)
        if restore is not None and restore.is_alive:
            restore.interrupt(cause)
        worker.interrupt(cause)
        return True

    def repair_drive(self, drive: TapeDrive) -> bool:
        """Bring a failed drive back: spawn a fresh worker, rejoin the pool.

        Pinned drives additionally start a restore process that remounts
        their batch-0 home tape once the cartridge is back in its cell and
        the drive is idle — ending degraded parallel-batch mode.
        """
        idx = drive.id.index
        if idx in self.workers:
            return False
        drive.failed = False
        self.workers[idx] = self.env.process(self._worker(drive))
        self._live = None
        injector = self.opensys.injector
        if injector is not None:
            injector.note_drive_up(str(drive.id))
        home = self.pinned_home.get(idx)
        if drive.pinned and home is not None and idx not in self._restores:
            self._restores[idx] = self.env.process(
                self._restore_pinned(drive, home)
            )
        self._dispatch()
        return True

    def _restore_pinned(self, drive: TapeDrive, home: TapeId):
        """Remount a repaired pinned drive's home tape when feasible.

        Waits (woken at every dispatch round) until the drive is idle and
        the home cartridge is reachable: either back in its cell, or parked
        in an *idle* switch drive that served it in degraded mode — then
        it is reclaimed (rewind + robot unload back to the cell) before the
        normal switch.  Queued jobs always win ties: the restore only
        claims drives nothing is assigned to.
        """
        env = self.env
        idx = drive.id.index
        try:
            while True:
                if drive.failed or idx not in self.workers:
                    break
                holder = self.library.drive_holding(home)
                if holder is drive:
                    break  # already home (e.g. a queued job remounted it)
                self_idle = (
                    home not in self.committed
                    and idx not in self.busy
                    and idx not in self.inbox
                )
                holder_idx = holder.id.index if holder is not None else None
                can_reclaim = holder is None or (
                    holder_idx in self.workers
                    and holder_idx not in self.busy
                    and holder_idx not in self.inbox
                )
                if self_idle and can_reclaim:
                    self.busy.add(idx)
                    if holder_idx is not None:
                        self.busy.add(holder_idx)
                    self.committed[home] = idx
                    record = DriveServiceRecord(str(drive.id))
                    try:
                        if holder is not None:
                            yield from self._eject(holder, home)
                        yield from _switch_to(
                            env, self.library, drive, home, record, self.trace
                        )
                    finally:
                        self.busy.discard(idx)
                        if holder_idx is not None:
                            self.busy.discard(holder_idx)
                        if self.committed.get(home) == idx:
                            del self.committed[home]
                    break
                event = env.event()
                self._restore_waiters.append(event)
                yield event
        except Interrupt:
            pass  # the drive failed again mid-restore; worker cleans up
        # Not reached when :meth:`close` tears a parked restore down.
        self._restores.pop(idx, None)
        self._dispatch()

    def _eject(self, holder: TapeDrive, tape_id: TapeId):
        """Rewind + robot unload: return a reclaimed cartridge to its cell."""
        env = self.env
        name = str(holder.id)
        robot = self.library.robot
        rewind = holder.rewind_time()
        if rewind > 0:
            with self.trace.span(env, "rewind", drive=name):
                yield env.timeout(rewind)
        requested_at = env.now
        with robot.resource.request() as grant:
            yield grant
            if env.now > requested_at:
                self.trace.record(
                    "robot_wait", requested_at, env.now, drive=name
                )
            if holder.mounted is None or holder.mounted.id != tape_id:
                return  # the holder failed (and ejected) while we waited
            with self.trace.span(env, "unload", drive=name):
                yield env.timeout(holder.unload_time)
            with self.trace.span(env, "robot_exchange", drive=name):
                yield env.timeout(robot.move_time)
            # The holder may have failed mid-eject: its worker already
            # pulled the cartridge back to the cell, which is what we want.
            if holder.mounted is not None and holder.mounted.id == tape_id:
                holder.unmount()

    def _abort_unservable(self) -> None:
        """Fail every queued job when no drive can ever serve it.

        Called when the last live drive leaves the pool (and at submit into
        a dead library).  Jobs survive only if the fault injector has a
        *committed* repair for one of this library's drives — a future
        stochastic failure/repair cycle cannot resurrect a drive that died
        for another reason, so waiting on one would hang the environment.
        """
        if self.workers:
            return
        injector = self.opensys.injector
        if injector is not None and injector.will_recover(self.library):
            return
        doomed = list(self.inbox.values()) + list(self.pending)
        self.inbox.clear()
        self.pending.clear()
        self.pending_tapes.clear()
        self._repair_pending = 0
        for djob in doomed:
            self.committed.pop(djob.job.tape_id, None)
            djob.aborted = True
            djob.error = (
                f"library {self.library.id}: all drives failed, none pending "
                "repair"
            )
            self._close_job_span(djob, drive_name="", aborted=True)
            djob.join.land()
        self.pending_gauge.set(0, self.env.now)

    # -- the drive worker ------------------------------------------------
    def _worker(self, drive: TapeDrive):
        """Persistent drive process: serve dispatched jobs until failure.

        Lives for the whole session (re-used across requests); parks on a
        wake event while idle, so a drained environment simply leaves it
        suspended.
        """
        env = self.env
        trace = self.trace
        tracing = trace.enabled
        idx = drive.id.index
        drive_name = str(drive.id)
        djob: Optional[_DispatchedJob] = None
        try:
            while True:
                while idx not in self.inbox:
                    event = env.event()
                    self.wake[idx] = event
                    yield event
                djob = self.inbox.pop(idx)
                job = djob.job
                records = djob.records
                record = records.get(drive_name)
                if record is None:
                    record = records[drive_name] = DriveServiceRecord(drive_name)
                now = env._now
                if djob.started_at is None:
                    djob.started_at = now
                if tracing and now > djob.submitted_at:
                    trace.record(
                        "dispatch_wait", djob.submitted_at, now,
                        parent=djob.span_id, request=djob.request_id,
                        drive=drive_name,
                    )
                injector = self.opensys.injector
                mounted_cycle = 0.0
                if drive.mounted is None or drive.mounted.id != job.tape_id:
                    mounted_cycle = 1.0
                    if self.transients_armed:
                        yield from injector.transient_gate(
                            drive_name, "mount",
                            parent=djob.span_id, request=djob.request_id,
                        )
                    yield from _switch_to(
                        env, self.library, drive, job.tape_id, record, trace,
                        parent=djob.span_id, request=djob.request_id,
                    )
                if self.transients_armed:
                    yield from injector.transient_gate(
                        drive_name, "read",
                        parent=djob.span_id, request=djob.request_id,
                    )
                yield from _serve_job(
                    env, drive, job, record, trace, self.disk,
                    parent=djob.span_id, request=djob.request_id,
                    planner=self.seek_planner,
                )
                record.completion_s = env._now
                self.committed.pop(job.tape_id, None)
                self.busy.discard(idx)
                finished, djob = djob, None
                if finished.span_id is not None:
                    self._close_job_span(finished, drive_name)
                finished.join.land()
                if self.wear_armed:
                    # Media wear is charged at job boundaries: one cycle per
                    # mount plus one per extent seek.  A wear death here
                    # purges queued jobs and wakes the repair manager before
                    # the next dispatch round.
                    injector.note_tape_cycles(
                        job.tape_id, mounted_cycle + float(len(job.extents))
                    )
                self._dispatch()
        except (Interrupt, FaultEscalation) as cause:
            drive.failed = True
            trace.record(
                "drive_failure", env.now, env.now,
                parent=djob.span_id if djob is not None else None,
                request=djob.request_id if djob is not None else None,
                drive=drive_name, cause=str(cause),
            )
            if drive.mounted is not None:
                drive.unmount()  # cartridge pulled back to its cell
            self.workers.pop(idx, None)
            self._live = None
            self.wake.pop(idx, None)
            self.busy.discard(idx)
            self._dying.discard(idx)
            injector = self.opensys.injector
            if injector is not None:
                injector.note_drive_down(drive_name)
            orphan = self.inbox.pop(idx, None) or djob
            if orphan is not None:
                self.committed.pop(orphan.job.tape_id, None)
                record = orphan.records.get(drive_name)
                if record is not None:
                    record.completion_s = env.now
                if orphan.job.is_done:
                    self._close_job_span(orphan, drive_name)
                    orphan.join.land()
                else:
                    # The in-flight extent restarts from scratch elsewhere;
                    # the job keeps its reserved span id, so the rescuing
                    # drive's stages stay in the same causal subtree and the
                    # span still closes exactly once — when the job lands.
                    orphan.job = orphan.job.split_remaining()
                    self._enqueue(orphan, front=True)
            self._dispatch()
            # If this was the library's last drive and no repair is
            # committed, the queue can never drain: fail it now.
            self._abort_unservable()

    def _close_job_span(
        self, djob: _DispatchedJob, drive_name: str, aborted: bool = False
    ) -> None:
        """Close the job's reserved ``tape_job`` span (exactly once)."""
        if djob.span_id is None:
            return  # tracing off: no span was reserved
        attrs = {"tape": str(djob.job.tape_id), "drive": drive_name}
        if aborted:
            attrs["aborted"] = True
            attrs["error"] = djob.error
        self.trace.record_reserved(
            djob.span_id,
            "tape_job",
            djob.submitted_at,
            self.env.now,
            parent=djob.parent_id,
            request=djob.request_id,
            **attrs,
        )


#: Registered request-scheduling policies (name -> zero-arg factory).
SCHEDULING_POLICIES: Dict[str, Callable[[], object]] = {
    SerialFCFSPolicy.name: SerialFCFSPolicy,
    ConcurrentPolicy.name: ConcurrentPolicy,
}

#: Degraded-read member-selection strategies (``read_selection=``).
READ_SELECTIONS = ("least-loaded", "cheapest")


def available_scheduling_policies() -> Tuple[str, ...]:
    return tuple(sorted(SCHEDULING_POLICIES))


# ---------------------------------------------------------------------------
# The open system itself


class OpenSystem:
    """A placed tape system serving an open arrival stream on one clock.

    Created via :meth:`repro.sim.session.SimulationSession.open` (or
    directly).  The environment, robot bindings, disk-stream cap, resource
    monitors, and policy state persist across :meth:`run` calls, so several
    arrival batches can share one warmed-up system.

    Parameters
    ----------
    session:
        The placed :class:`~repro.sim.session.SimulationSession`.
    policy:
        A name from :data:`SCHEDULING_POLICIES` (default ``"concurrent"``).
    failures:
        Optional drive name -> absolute failure time map — legacy sugar for
        one-shot permanent :class:`~repro.sim.faults.DriveFailure` specs
        (``concurrent`` policy only).
    faults:
        Optional iterable of :class:`~repro.sim.faults.FaultSpec`s, armed
        at each :meth:`run` (``concurrent`` policy only).  Both fault specs
        and the legacy map are validated here, before any simulation runs.
    fault_seed:
        Root seed for the fault processes' random substreams (independent
        of the arrival-stream seed passed to :meth:`run`).
    seek_planner:
        Within-tape retrieval-order strategy — a registered name, a
        :class:`~repro.sim.seekplanner.SeekPlanner` instance, or ``None``
        to inherit the session's planner (itself defaulting to
        ``greedy-sweep``).
    repair_policy:
        How rebuild traffic competes with user restores when media faults
        are armed — a name from
        :data:`repro.sim.repair.REPAIR_POLICIES` (default ``user-first``).
        Validated even without media faults; only armed with them.
    read_selection:
        How degraded reads pick their ``needed`` members: ``least-loaded``
        (the PR 8 default, bit-identical) or ``cheapest`` (mounted tape
        first, then lowest estimated job time).
    scheduler:
        Event-scheduler selection for the environment — a name from
        :data:`repro.des.scheduler.SCHEDULERS` (``"heapq"``,
        ``"calendar"``) or ``None`` to consult ``REPRO_SCHEDULER``.
        Purely a throughput knob: every scheduler pops in the same total
        order, so results are bit-identical.
    shard_workers:
        Run one DES environment per round-robin library shard in this
        many forked workers (``concurrent`` policy, no faults, no
        redundancy, no disk cap — see :mod:`repro.sim.sharding`; other
        configurations warn and fall back).  ``1`` (the default) is
        today's single-environment path, seed-for-seed.
    shard_filter:
        Internal — library ids this instance submits jobs for (shard
        children only).  All other libraries' jobs are skipped while the
        arrival stream and request bookkeeping stay identical.
    """

    def __init__(
        self,
        session,
        policy: str = "concurrent",
        failures: Optional[Dict[str, float]] = None,
        faults: Optional[Tuple[FaultSpec, ...]] = None,
        fault_seed: int = 0,
        seek_planner: Union[None, str, SeekPlanner] = None,
        repair_policy: Optional[str] = None,
        read_selection: str = "least-loaded",
        scheduler: Union[None, str, EventScheduler] = None,
        shard_workers: int = 1,
        shard_filter: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.session = session
        self.system = session.system
        if seek_planner is None:
            seek_planner = getattr(session, "seek_planner", None)
        self.seek_planner = resolve_seek_planner(seek_planner)
        # Share the session's trace when it enabled one (closed-loop spans
        # and open-system spans then interleave with distinct ids); otherwise
        # trace this system by default — REPRO_TRACE=0 still disables it.
        self.trace = session.trace if session.trace.enabled else Trace()
        self.replacement_policy = session.replacement_policy
        self.tape_priority = session.placement.tape_priority
        self.failures = dict(failures or {})

        try:
            factory = SCHEDULING_POLICIES[policy]
        except KeyError:
            known = ", ".join(available_scheduling_policies())
            raise ValueError(
                f"unknown scheduling policy {policy!r}; known: {known}"
            ) from None
        self.fault_specs: Tuple[FaultSpec, ...] = tuple(faults or ()) + (
            failures_to_specs(self.failures)
        )
        for spec in self.fault_specs:
            spec.validate(self.system)
        if self.fault_specs and not getattr(factory, "supports_faults", False):
            raise ValueError(
                f"fault injection requires the 'concurrent' policy, not "
                f"{policy!r} (it arms no recovery hooks between requests)"
            )

        if int(shard_workers) != shard_workers or shard_workers < 1:
            raise ValueError(f"shard_workers must be an integer >= 1, got {shard_workers}")
        self.shard_workers = int(shard_workers)
        #: Library ids this instance owns (shard children only; None = all).
        self.shard_filter: Optional[frozenset] = (
            frozenset(shard_filter) if shard_filter is not None else None
        )
        #: Shard children publish per-token payloads here for the merge
        #: (:mod:`repro.sim.sharding`); None costs one check per request.
        self._shard_capture: Optional[Dict[int, tuple]] = None
        self.scheduler_spec = scheduler
        self.env = Environment(scheduler=scheduler)
        self._ran = False
        self._closed = False
        self._expected = 0

        # Registry first: policy binding and monitor attachment publish
        # instruments into it.
        self.registry = MetricsRegistry()
        self._arrival_seq = 0
        self._in_flight = self.registry.gauge("requests.in_flight", unit="requests")
        self._arrived = self.registry.counter("requests.arrived", unit="requests")
        self._completed = self.registry.counter("requests.completed", unit="requests")
        self._aborted = self.registry.counter("requests.aborted", unit="requests")
        self._switches = self.registry.counter("tape.switches", unit="switches")
        # Per-request latency digests: mergeable sketches whose fleet-level
        # p50/p95/p99 compose exactly across sweep workers (see
        # :mod:`repro.obs.digest`).  One log + one dict increment per stage
        # per completed request.
        self._d_sojourn = self.registry.digest("latency.sojourn_s", unit="s")
        self._d_seek = self.registry.digest("latency.seek_s", unit="s")
        self._d_switch = self.registry.digest("latency.switch_s", unit="s")
        self._d_transfer = self.registry.digest("latency.transfer_s", unit="s")
        #: Optional per-completion hook ``hook(opensys, (record, metrics))``,
        #: fired after a request's instruments settle.  The sweep engine
        #: wires a throttled fleet-feed emitter here so long points stream
        #: progress mid-run; when unset the cost is one None check.
        self.on_complete: Optional[Callable[["OpenSystem", _Outcome], None]] = None

        streams = self.system.spec.disk_streams
        self.disk = Resource(self.env, streams) if streams is not None else None
        self.monitors: Dict[str, ResourceUsageMonitor] = {}
        for library in self.system.libraries:
            library.robot.bind(self.env)
            name = f"L{library.id}.robot"
            self.monitors[name] = ResourceUsageMonitor(
                name, registry=self.registry
            ).attach(library.robot.resource)
        if self.disk is not None:
            self.monitors["disk"] = ResourceUsageMonitor(
                "disk", registry=self.registry
            ).attach(self.disk)

        if read_selection not in READ_SELECTIONS:
            raise ValueError(
                f"unknown read selection {read_selection!r}; known: "
                + ", ".join(READ_SELECTIONS)
            )
        self.read_selection = read_selection

        self.policy_name = policy
        self.injector: Optional[FaultInjector] = None
        self.policy = factory()
        self.policy.bind(self)
        if self.fault_specs:
            self.injector = FaultInjector(self.fault_specs, seed=fault_seed).bind(self)

        # The repair manager exists only when media can actually be lost:
        # its repair.* instruments and groups_at_risk gauge then never
        # appear in drive-fault-only or fault-free runs (registry parity).
        from .repair import REPAIR_POLICIES, RepairManager

        if repair_policy is not None and repair_policy not in REPAIR_POLICIES:
            raise ValueError(
                f"unknown repair policy {repair_policy!r}; known: "
                + ", ".join(REPAIR_POLICIES)
            )
        self.repair: Optional[RepairManager] = None
        if self.injector is not None and self.injector.has_media_faults:
            self.repair = RepairManager(self, policy=repair_policy or "user-first")

    @property
    def index(self):
        """The session's live location index (tracks ``session.reset()``)."""
        return self.session.index

    def run(
        self,
        arrival_rate_per_hour: float,
        num_arrivals: int = 100,
        seed: int = 0,
        reset: bool = True,
        sample_period_s: Optional[float] = None,
    ) -> OpenSystemResult:
        """Inject a Poisson stream of Zipf-sampled requests; drain; report.

        Arrival sampling matches
        :func:`~repro.sim.queueing.simulate_fcfs_queue` draw-for-draw, so
        the same seed produces the same arrival times and request sequence.
        Subsequent calls continue on the same clock (pass ``reset=False``).
        ``sample_period_s`` installs a periodic registry snapshot sampler
        on the shared clock (it stops re-arming once the system drains).
        """
        if arrival_rate_per_hour <= 0:
            raise ValueError(
                f"arrival rate must be positive, got {arrival_rate_per_hour}"
            )
        if num_arrivals <= 0:
            raise ValueError(f"num_arrivals must be positive, got {num_arrivals}")
        if self._closed:
            raise ValueError("this OpenSystem is closed; open a new one to run again")
        if self.shard_workers > 1 and self.shard_filter is None:
            from .sharding import maybe_run_sharded

            result = maybe_run_sharded(
                self, arrival_rate_per_hour, num_arrivals, seed,
                reset=reset, sample_period_s=sample_period_s,
            )
            if result is not None:
                return result
            # Unshardable configuration: warned, continue single-environment.
        # Pause automatic cyclic GC for the whole stream, not just the
        # inner ``env.run()`` loop (which pauses on its own and leaves a
        # pre-disabled GC alone): ``session.reset()`` and the setup /
        # finalization around the event loop allocate enough to trigger
        # full-heap collections that rescan the persistent workload graph —
        # inside any wall/CPU measurement a caller wraps around this call.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if reset:
                if self._ran:
                    raise ValueError(
                        "reset=True is only valid for the first run on this "
                        "OpenSystem (the clock and hardware state have advanced); "
                        "pass reset=False to continue the stream"
                    )
                self.session.reset()
            self._ran = True
            self._expected = num_arrivals
            self.policy.start_run()

            rng = np.random.default_rng(seed)
            inter = rng.exponential(3600.0 / arrival_rate_per_hour, size=num_arrivals)
            arrivals = np.cumsum(inter) + self.env.now
            sampled = self.session.workload.requests.sample(rng, num_arrivals)

            outcomes: List[_Outcome] = []

            def arrival_process():
                for arrival, request in zip(arrivals, sampled):
                    delay = float(arrival) - self.env.now
                    if delay > 0:
                        yield self.env.timeout(delay)
                    self.env.process(
                        self._request_runner(request, float(arrival), outcomes)
                    )

            self.env.process(arrival_process())
            if self.injector is not None:
                self.injector.arm()
            if sample_period_s is not None:
                self.registry.install_sampler(self.env, sample_period_s)
            self.env.run()
            self.policy.check_drained()
            if self.injector is not None:
                self.injector.finalize()
            self.registry.snapshot(self.env.now)
        finally:
            self.policy.end_run()
            if gc_was_enabled:
                gc.enable()
        if len(outcomes) != num_arrivals:
            raise RuntimeError(
                f"{num_arrivals - len(outcomes)} requests never completed "
                "(environment drained early)"
            )

        num_drives = sum(len(library.drives) for library in self.system.libraries)
        outcomes.sort(key=lambda pair: pair[0].arrival_s)
        result = OpenSystemResult(
            scheme=self.session.scheme_name,
            arrival_rate_per_hour=arrival_rate_per_hour,
            records=[record for record, _ in outcomes],
            policy=self.policy_name,
            metrics=[metrics for _, metrics in outcomes],
            resources={name: mon.summary() for name, mon in self.monitors.items()},
            horizon_s=self.env.now,
            trace=self.trace,
            registry=self.registry,
            faults=(
                self.injector.summary(self.env.now, num_drives=num_drives)
                if self.injector is not None
                else {}
            ),
            repair=(
                self.repair.summary(self.env.now)
                if self.repair is not None
                else {}
            ),
        )
        # Publish availability in its horizon-weighted mergeable form so a
        # registry export (metrics JSONL) alone can reconstruct fleet
        # availability.  Set-to-current (not +=) keeps continued streams
        # (reset=False) and snapshot_of_result's overwrite consistent.
        horizon_c = self.registry.counter("fleet.horizon_s", unit="s")
        horizon_c.inc(result.horizon_s - horizon_c.value)
        avail_c = self.registry.counter("fleet.availability_weighted_s", unit="s")
        avail_c.inc(result.horizon_s * result.availability - avail_c.value)
        return result

    def close(self) -> None:
        """Tear the system down once its last run has drained.

        Closes the parked drive workers and clears the dispatchers' wake
        events and inboxes and the policy's, fault injector's and repair
        manager's references back to this system, which would otherwise
        keep every finished system alive until a cyclic garbage
        collection.  Results already returned stay valid; the system can
        run no further stream (``reset=False`` continuation works only
        until ``close()``).  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.policy.close()
        if self.injector is not None:
            self.injector.os = None
        if self.repair is not None:
            self.repair.os = None
        self.on_complete = None

    def _request_runner(self, request: Request, arrival_s: float, sink: List[_Outcome]):
        # Catalog requests can be sampled repeatedly, so the span tree is
        # keyed by a unique per-arrival token; the catalog id rides along as
        # a root-span attribute.
        token = self._arrival_seq
        self._arrival_seq += 1
        self._arrived.inc()
        self._in_flight.add(1, self.env.now)
        with self.trace.span(
            self.env, "request", request=token,
            catalog_id=request.id, policy=self.policy_name,
        ) as ctx:
            outcome = yield from self.policy.serve(
                request, arrival_s, parent=ctx.id, token=token
            )
        self._in_flight.add(-1, self.env.now)
        self._completed.inc()
        if outcome[0].aborted:
            self._aborted.inc()
        metrics = outcome[1]
        self._switches.inc(metrics.num_switches)
        # switch_s is derived (response - seek - transfer) and can round a
        # hair below zero; digests are non-negative by contract.
        self._d_sojourn.record(max(0.0, metrics.response_s))
        self._d_seek.record(max(0.0, metrics.seek_s))
        self._d_switch.record(max(0.0, metrics.switch_s))
        self._d_transfer.record(max(0.0, metrics.transfer_s))
        sink.append(outcome)
        if self.on_complete is not None:
            self.on_complete(self, outcome)
        if self.injector is not None and len(sink) >= self._expected:
            # Last planned arrival landed: stop recurring fault processes so
            # the environment drains instead of ticking MTBF clocks forever.
            self.injector.stand_down()

    def __repr__(self) -> str:
        return (
            f"<OpenSystem {self.policy_name} on {self.session.scheme_name}, "
            f"t={self.env.now:.1f}s>"
        )


def simulate_open_system(
    session,
    arrival_rate_per_hour: float,
    num_arrivals: int = 100,
    seed: int = 0,
    policy: str = "concurrent",
    failures: Optional[Dict[str, float]] = None,
    faults: Optional[Tuple[FaultSpec, ...]] = None,
    fault_seed: int = 0,
    sample_period_s: Optional[float] = None,
    seek_planner: Union[None, str, SeekPlanner] = None,
    repair_policy: Optional[str] = None,
    read_selection: str = "least-loaded",
    scheduler: Union[None, str, EventScheduler] = None,
    shard_workers: int = 1,
) -> OpenSystemResult:
    """One-shot convenience: build an :class:`OpenSystem`, run one stream."""
    opensys = OpenSystem(
        session, policy=policy, failures=failures, faults=faults,
        fault_seed=fault_seed, seek_planner=seek_planner,
        repair_policy=repair_policy, read_selection=read_selection,
        scheduler=scheduler, shard_workers=shard_workers,
    )
    result = opensys.run(
        arrival_rate_per_hour,
        num_arrivals=num_arrivals,
        seed=seed,
        sample_period_s=sample_period_s,
    )
    opensys.close()
    return result
