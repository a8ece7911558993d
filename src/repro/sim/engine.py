"""The request-service engine: Sec. 6's simulator, on the DES kernel.

One call to :func:`simulate_request` serves one request to completion:

* the location index resolves the request to per-tape jobs;
* tapes already mounted serve in place (drives run in parallel);
* mounted switchable tapes without requested objects switch immediately;
  offline tapes queue LPT-first and free switch drives pull greedily;
* every mount/unmount competes for the library's single robot arm
  (capacity-1 resource) — robots of different libraries are independent;
* within a tape, extents are read in the order chosen by the configured
  seek planner (default: the paper's cheaper single sweep; see
  :mod:`repro.sim.seekplanner`).

Hardware state (mounted tapes, head positions) is mutated and *persists*
across calls, exactly like the paper's simulator where requests arrive one
at a time with long gaps: a switching tape left mounted stays mounted, and
its rewind is paid by whichever later request displaces it (T_switch
explicitly includes rewind time, Sec. 4).

The machinery is factored as :class:`RequestExecution` so the same
planning / drive-process / failure-rescue logic can run either on a
throwaway :class:`~repro.des.Environment` (this module's closed-loop
:func:`simulate_request`) or as one of many concurrent request processes
on a session's long-lived shared environment
(:mod:`repro.sim.opensystem`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, Mapping, Optional, Union

from ..catalog import LocationIndex, Request
from ..des import Environment, Interrupt, Resource, Trace
from ..hardware import TapeDrive, TapeLibrary, TapeId, TapeSystem
from .metrics import DriveServiceRecord, RequestMetrics
from .scheduling import TapeJob, build_library_plan
from .seekplanner import SeekPlanner, resolve_seek_planner

__all__ = ["simulate_request", "RequestExecution"]

_NULL_TRACE = Trace(enabled=False)


class RequestExecution:
    """One request admitted onto an environment (exclusive or shared).

    Construction plans every library's work against the *current* hardware
    state and spawns the drive processes; the caller then either drains the
    environment (:func:`simulate_request`) or, on a shared clock, yields
    from :meth:`wait` inside its own process.  :meth:`finalize` validates
    that every queued tape job was served and builds the request's metrics,
    measuring response time from ``env.now`` at admission — so on a shared
    environment the numbers are identical to a private zero-based clock.

    When tracing is enabled, every stage lands in a causal span tree.  A
    shared-clock caller passes ``parent`` (its own open ``request`` span);
    the closed-loop wrapper leaves it None and the execution reserves its
    own ``request`` root span, closed in :meth:`finalize`.
    """

    def __init__(
        self,
        env: Environment,
        system: TapeSystem,
        index: LocationIndex,
        request: Request,
        tape_priority: Optional[Mapping[TapeId, float]] = None,
        trace: Optional[Trace] = None,
        replacement_policy: str = "least_popular",
        failures: Optional[Mapping[str, float]] = None,
        disk: Optional[Resource] = None,
        parent: Optional[int] = None,
        trace_request: Optional[int] = None,
        seek_planner: Union[None, str, SeekPlanner] = None,
    ) -> None:
        self.env = env
        self.system = system
        self.request = request
        self.started_at = env.now
        # Resolve once at admission; every per-tape plan and LPT estimate in
        # this execution uses the same planner instance.
        planner = resolve_seek_planner(seek_planner)
        self.seek_planner = planner
        trace = trace if trace is not None else _NULL_TRACE
        self.trace = trace
        # The span-tree grouping key.  Open-system callers pass a unique
        # per-arrival token (the same catalog request can arrive repeatedly);
        # closed-loop executions default to the catalog id.
        self._trace_request = trace_request if trace_request is not None else request.id
        self._root_id: Optional[int] = None
        if parent is None:
            # Closed loop: this execution owns the request root span.
            self._root_id = trace.reserve_id()
            parent = self._root_id

        jobs = index.group_by_tape(request.object_ids)
        self.num_tapes = len(jobs)
        self.total_mb = sum(
            extent.size_mb for extents in jobs.values() for extent in extents
        )
        self.records: Dict[str, DriveServiceRecord] = {}
        self.queues: Dict[int, Deque[TapeJob]] = {}
        self.runtimes: list[_LibraryRuntime] = []

        tape_priority = tape_priority or {}
        failures = dict(failures or {})

        for library in system.libraries:
            plan = build_library_plan(
                library, jobs, tape_priority, replacement_policy, planner=planner
            )
            if plan.is_empty:
                continue
            if plan.offline and not plan.switch_order:
                raise RuntimeError(
                    f"library {library.id} has {len(plan.offline)} offline tapes to serve "
                    "but no switchable drive (all pinned?)"
                )
            if library.robot.env is not env:
                library.robot.bind(env)
            queue: Deque[TapeJob] = deque(plan.offline)
            self.queues[library.id] = queue
            runtime = _LibraryRuntime(
                env, library, queue, self.records, trace, disk, failures,
                request_id=self._trace_request, parent_id=parent, planner=planner,
            )
            self.runtimes.append(runtime)
            serving_indices = {idx for idx, _ in plan.serving}
            # Spawn order defines who pulls queued tapes first at t=0: idle
            # switch drives in replacement-policy order, then serving drives
            # (which join the pool only after finishing their in-place work).
            for idx in plan.switch_order:
                if idx in serving_indices:
                    continue
                runtime.spawn(library.drives[idx], None, switchable=True)
            for idx, job in plan.serving:
                runtime.spawn(library.drives[idx], job, switchable=idx in plan.switch_order)

    def wait(self):
        """Yield until every drive process (including rescuers) finishes."""
        while True:
            alive = [
                proc
                for runtime in self.runtimes
                for proc in runtime.processes
                if proc.is_alive
            ]
            if not alive:
                return
            yield self.env.all_of(alive)

    def finalize(self) -> RequestMetrics:
        """Check all work was served and aggregate the drive records."""
        for lib_id, queue in self.queues.items():
            if queue:
                library = self.system.libraries[lib_id]
                survivors = [
                    d for d in library.drives if not d.pinned and not d.failed
                ]
                if not survivors:
                    raise RuntimeError(
                        f"library {lib_id} has {len(queue)} unserved tape jobs "
                        "and no surviving switchable drive"
                    )
                raise RuntimeError(
                    f"library {lib_id} finished with {len(queue)} unserved tape jobs"
                )
        metrics = RequestMetrics.from_drive_records(
            request_id=self.request.id,
            size_mb=self.total_mb,
            num_tapes=self.num_tapes,
            records=list(self.records.values()),
            start_s=self.started_at,
        )
        if self._root_id is not None:
            self.trace.record_reserved(
                self._root_id,
                "request",
                self.started_at,
                self.started_at + metrics.response_s,
                request=self._trace_request,
                catalog_id=self.request.id,
                size_mb=self.total_mb,
                num_tapes=self.num_tapes,
            )
        return metrics


def simulate_request(
    system: TapeSystem,
    index: LocationIndex,
    request: Request,
    tape_priority: Optional[Mapping[TapeId, float]] = None,
    trace: Optional[Trace] = None,
    replacement_policy: str = "least_popular",
    failures: Optional[Mapping[str, float]] = None,
    seek_planner: Union[None, str, SeekPlanner] = None,
    scheduler=None,
) -> RequestMetrics:
    """Serve ``request`` on ``system``; returns its metrics.

    This is the closed-loop wrapper: the request runs to completion on an
    exclusive, throwaway environment, reproducing the paper's "one request
    at a time with long gaps" assumption.  For overlapping in-flight
    requests on one shared clock, see :mod:`repro.sim.opensystem`.

    ``tape_priority`` and ``replacement_policy`` control which mounted tapes
    are displaced first (default: the paper's least-popular policy);
    ``trace`` (if enabled) receives one span per
    rewind/unload/robot/load/seek/transfer.  ``seek_planner`` picks the
    within-tape retrieval-order strategy — a registered name, a
    :class:`~repro.sim.seekplanner.SeekPlanner` instance, or ``None`` for
    the default ``greedy-sweep``.

    ``failures`` injects permanent drive failures for this request: a map
    from drive name (e.g. ``"L0.D3"``) to the simulated time at which the
    drive dies.  A failing drive abandons its unfinished extents (the
    in-flight extent restarts from scratch), its cartridge is pulled, and
    the leftover work re-queues for the library's surviving switch drives
    — the response time grows accordingly.  All requested bytes are still
    delivered unless a library has *no* surviving switchable drive.

    ``scheduler`` selects the kernel's event scheduler (see
    :mod:`repro.des.scheduler`); closed-loop environments hold few pending
    events, so the default heap is effectively always right — the knob
    exists so ``REPRO_SCHEDULER`` governs every environment uniformly.
    """
    env = Environment(scheduler=scheduler)
    # Optional disk-stage admission control (spec.disk_bandwidth_mb_s):
    # at most `disk_streams` drives may stream to the staging disks at once.
    streams = system.spec.disk_streams
    disk = Resource(env, streams) if streams is not None else None
    execution = RequestExecution(
        env,
        system,
        index,
        request,
        tape_priority,
        trace,
        replacement_policy,
        failures,
        disk,
        seek_planner=seek_planner,
    )
    env.run()
    return execution.finalize()


class _LibraryRuntime:
    """Per-library execution state for one request simulation.

    Owns the offline-tape queue and the set of currently running drive
    processes, so a failing drive can immediately recruit idle surviving
    drives for its re-queued work (inside the event loop, not after it).
    """

    def __init__(
        self,
        env: Environment,
        library: TapeLibrary,
        queue: Deque[TapeJob],
        records: Dict[str, DriveServiceRecord],
        trace: Trace,
        disk: Optional[Resource],
        failures: Mapping[str, float],
        request_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        planner: Optional[SeekPlanner] = None,
    ) -> None:
        self.env = env
        self.library = library
        self.queue = queue
        self.records = records
        self.trace = trace
        self.disk = disk
        self.failures = failures
        self.request_id = request_id
        self.parent_id = parent_id
        self.planner = resolve_seek_planner(planner)
        self.active: set = set()
        #: Every drive process spawned for this request (watchdogs excluded),
        #: so a shared-environment caller can wait for their completion.
        self.processes: list = []

    def spawn(self, drive: TapeDrive, first_job: Optional[TapeJob], switchable: bool) -> None:
        """Start a drive process, arming its failure watchdog if scheduled."""
        if drive.failed or drive.id.index in self.active:
            return
        self.active.add(drive.id.index)
        process = self.env.process(self._drive_process(drive, first_job, switchable))
        self.processes.append(process)
        fail_at = self.failures.get(str(drive.id))
        if fail_at is not None and fail_at >= self.env.now:

            def watchdog(delay=fail_at - self.env.now, proc=process):
                yield self.env.timeout(delay)
                if proc.is_alive:
                    proc.interrupt("drive-failure")

            self.env.process(watchdog())

    def rescue(self) -> None:
        """Recruit every idle, surviving switchable drive onto the queue.

        Pinned drives join only when no unpinned drive survives (degraded
        operation): pinning is policy, not physics.
        """
        if not self.queue:
            return
        survivors = [d for d in self.library.drives if not d.failed and not d.pinned]
        if not survivors:
            survivors = [d for d in self.library.drives if not d.failed]
        for drive in survivors:
            self.spawn(drive, None, switchable=True)

    def _drive_process(self, drive: TapeDrive, first_job: Optional[TapeJob], switchable: bool):
        """One drive's behaviour for one request: serve, then drain the queue.

        An injected drive failure arrives as an :class:`Interrupt`: the
        drive is marked failed, its cartridge is pulled (so a rescuer can
        remount it), every unfinished extent — including the one in flight,
        which restarts from scratch — re-queues, and idle surviving drives
        are recruited immediately.
        """
        env, library, queue = self.env, self.library, self.queue
        records, trace, disk = self.records, self.trace, self.disk
        request_id, parent_id = self.request_id, self.parent_id
        planner = self.planner
        record = None
        current: Optional[TapeJob] = first_job
        try:
            if first_job is not None:
                record = records.setdefault(str(drive.id), DriveServiceRecord(str(drive.id)))
                with trace.span(
                    env, "tape_job", parent=parent_id, request=request_id,
                    drive=str(drive.id), tape=str(first_job.tape_id), mounted=True,
                ) as job_ctx:
                    yield from _serve_job(
                        env, drive, first_job, record, trace, disk,
                        parent=job_ctx.id, request=request_id, planner=planner,
                    )
                record.completion_s = env.now
            current = None
            if not switchable:
                return
            while queue:
                job = queue.popleft()
                current = job
                if record is None:
                    record = records.setdefault(str(drive.id), DriveServiceRecord(str(drive.id)))
                with trace.span(
                    env, "tape_job", parent=parent_id, request=request_id,
                    drive=str(drive.id), tape=str(job.tape_id),
                ) as job_ctx:
                    yield from _switch_to(
                        env, library, drive, job.tape_id, record, trace,
                        parent=job_ctx.id, request=request_id,
                    )
                    yield from _serve_job(
                        env, drive, job, record, trace, disk,
                        parent=job_ctx.id, request=request_id, planner=planner,
                    )
                current = None
                record.completion_s = env.now
        except Interrupt:
            drive.failed = True
            trace.record(
                "drive_failure", env.now, env.now,
                parent=parent_id, request=request_id, drive=str(drive.id),
            )
            if drive.mounted is not None:
                drive.unmount()  # cartridge pulled for the rescuer
            if record is not None:
                record.completion_s = env.now
            if current is not None and not current.is_done:
                queue.append(current.split_remaining())
            self.active.discard(drive.id.index)
            self.rescue()
        else:
            self.active.discard(drive.id.index)


def _serve_job(
    env,
    drive: TapeDrive,
    job: TapeJob,
    record: DriveServiceRecord,
    trace: Trace,
    disk: Optional[Resource] = None,
    parent: Optional[int] = None,
    request: Optional[int] = None,
    planner: Optional[SeekPlanner] = None,
):
    """Read all of a job's extents in the planner's chosen order.

    The order is the job's ``bot_plan`` when that plan still applies: the
    job is untouched, the head is at 0 and the drive uses the planner and
    the ``TapeSpec`` it was priced with (see
    :class:`~repro.sim.scheduling.TapeJob`); otherwise the planner plans
    the remaining extents from the current head position.

    Without a disk-stage cap a job's timeline is fixed once it is planned
    on the mounted tape, so the whole job is one kernel event: a timeout
    at its absolute end, summed with the same left-to-right float
    additions a chain of per-extent seek/transfer timeouts would make
    (every ``env.now`` is bit-identical).  Each seek and transfer is
    computed inline with the expressions of ``TapeSpec.locate_time`` and
    ``DriveSpec.transfer_time``, and the head is moved to the last
    extent's end once.  The drive record is folded in
    plan order and ``job.completed`` set when the job lands.  With a disk
    cap, admission happens per extent, so :func:`_read_disk_capped` runs
    the per-extent loop (``drive.read_extent``) instead.

    An :class:`Interrupt` (drive failure) at ``now`` bisects the prefix
    end times: an extent counts as read only if it ended strictly before
    ``now``, and the in-flight extent's seek only if that seek ended
    strictly before ``now``; the in-flight extent restarts from scratch
    elsewhere, and of its time only a finished seek is folded into
    ``record``, as the per-extent path folds it.  This strict
    rule is what the per-extent path does for every failure scheduled
    before the extent began, whose event then precedes the extent's
    equal-time timeout.  The abandoned end-of-job timeout is moved back
    to where the in-flight stage would have ended, as the per-extent
    path's abandoned stage timeout does, so the clock drains identically.

    With tracing on, the per-extent ``seek``/``transfer`` spans are
    synthesized from the plan when the job lands or is interrupted: same
    names, start/end times, parent, request and attributes, with the
    in-flight stage tagged ``aborted``.  Their span ids are claimed then,
    in plan order.
    """
    tape = drive.mounted
    assert tape is not None and tape.id == job.tape_id, "job routed to wrong drive"
    if planner is None:
        planner = resolve_seek_planner(None)
    tape_spec = drive.tape_spec
    head = tape.head_mb
    bot_plan = job.bot_plan
    if (
        bot_plan is not None
        and head == 0.0
        and job.completed == 0
        and bot_plan[0] is planner
        and bot_plan[1] is tape_spec
    ):
        ordered = bot_plan[2]
    else:
        ordered, _ = planner.plan(job.remaining_extents, head, tape_spec)
    job.begin(ordered)
    if disk is not None:
        yield from _read_disk_capped(env, drive, job, record, trace, disk, parent, request)
        return
    if not ordered:
        return
    startup = tape_spec.locate_startup_s
    locate_rate = tape_spec.locate_rate_mb_s
    transfer_rate = drive.spec.transfer_rate_mb_s
    seeks: list = []
    transfers: list = []
    seek_ends: list = []
    ends: list = []
    started = t = env._now
    for extent in ordered:
        distance = abs(extent.start_mb - head)
        if distance == 0:
            seek = 0.0
        else:
            seek = startup + distance / locate_rate
            t += seek
        seeks.append(seek)
        seek_ends.append(t)
        transfer = extent.size_mb / transfer_rate
        t += transfer
        transfers.append(transfer)
        ends.append(t)
        head = extent.end_mb
    tape.head_mb = head
    end_event = env.timeout_at(t)
    try:
        yield end_event
    except BaseException:
        now = env._now
        done = bisect_left(ends, now)
        in_seek = seeks[done] > 0 and seek_ends[done] >= now
        _fold_extents(record, ordered, seeks, transfers, done)
        if not in_seek:
            record.seek_s += seeks[done]
        job.completed = done
        env.reschedule(end_event, seek_ends[done] if in_seek else ends[done])
        if trace.enabled:
            _trace_extents(
                trace, ordered, seeks, seek_ends, ends, started, done,
                str(drive.id), parent, request, aborted_at=now, in_seek=in_seek,
            )
        raise
    _fold_extents(record, ordered, seeks, transfers, len(ordered))
    job.completed = len(ordered)
    if trace.enabled:
        _trace_extents(
            trace, ordered, seeks, seek_ends, ends, started, len(ordered),
            str(drive.id), parent, request,
        )


def _fold_extents(record, ordered, seeks, transfers, count: int) -> None:
    """Fold the first ``count`` extents into ``record``, in plan order.

    Explicit left-to-right additions (not ``sum``, which compensates on
    newer Pythons) reproduce the per-extent path's running totals exactly.
    """
    seek_s, transfer_s, bytes_mb = record.seek_s, record.transfer_s, record.bytes_mb
    for k in range(count):
        seek_s += seeks[k]
        transfer_s += transfers[k]
        bytes_mb += ordered[k].size_mb
    record.seek_s, record.transfer_s, record.bytes_mb = seek_s, transfer_s, bytes_mb


def _trace_extents(
    trace: Trace,
    ordered,
    seeks,
    seek_ends,
    ends,
    started: float,
    count: int,
    drive_name: str,
    parent: Optional[int],
    request: Optional[int],
    aborted_at: Optional[float] = None,
    in_seek: bool = False,
) -> None:
    """Append the seek/transfer spans of a job's first ``count`` extents.

    With ``aborted_at`` the next extent was in flight when the job was
    interrupted: its finished seek (unless ``in_seek``) is closed normally
    and the stage in flight ends at ``aborted_at``, tagged ``aborted``.
    Raw span tuples, as the per-stage fast lanes append them.
    """
    append = trace._spans.append
    sid = trace._next_id
    begin = started
    for k in range(count):
        attrs = ("drive", drive_name, "object", ordered[k].object_id)
        seek_end = seek_ends[k]
        if seeks[k] > 0:
            append(("seek", begin, seek_end, attrs, sid, parent, request))
            sid += 1
        begin = ends[k]
        append(("transfer", seek_end, begin, attrs, sid, parent, request))
        sid += 1
    if aborted_at is not None:
        object_id = ordered[count].object_id
        aborted = {"drive": drive_name, "object": object_id, "aborted": True}
        if in_seek:
            append(("seek", begin, aborted_at, aborted, sid, parent, request))
        else:
            seek_end = seek_ends[count]
            if seeks[count] > 0:
                attrs = ("drive", drive_name, "object", object_id)
                append(("seek", begin, seek_end, attrs, sid, parent, request))
                sid += 1
            append(("transfer", seek_end, aborted_at, aborted, sid, parent, request))
        sid += 1
    trace._next_id = sid


def _read_disk_capped(env, drive, job, record, trace, disk, parent, request):
    """The per-extent loop: each transfer first takes a disk-stream slot.

    The job's completion index advances as extents finish, so an
    interrupting failure knows what is left to re-queue.  A failure
    interrupt arriving mid-stage closes the in-flight span with
    ``aborted=True``; the stage's time is *not* folded into ``record``.
    With tracing on, the seek/transfer spans bypass the ``SpanContext``
    machinery: the span id is claimed and the raw span tuple appended
    inline, reproducing the context manager's id order, timestamps and
    aborted tagging.
    """
    drive_name = str(drive.id)
    tracing = trace.enabled
    if tracing:
        span_append = trace._spans.append
    for extent in job.extents:
        seek, transfer = drive.read_extent(extent)
        if seek > 0:
            if tracing:
                sid = trace._next_id
                trace._next_id = sid + 1
                started = env._now
                try:
                    yield env.timeout(seek)
                except BaseException:
                    span_append((
                        "seek", started, env._now,
                        {"drive": drive_name, "object": extent.object_id, "aborted": True},
                        sid, parent, request,
                    ))
                    raise
                span_append((
                    "seek", started, env._now,
                    ("drive", drive_name, "object", extent.object_id),
                    sid, parent, request,
                ))
            else:
                yield env.timeout(seek)
        record.seek_s += seek
        requested_at = env.now
        with disk.request() as slot:
            yield slot
            if env.now > requested_at:
                trace.record(
                    "disk_wait", requested_at, env.now,
                    parent=parent, request=request, drive=drive_name,
                )
            if tracing:
                sid = trace._next_id
                trace._next_id = sid + 1
                started = env._now
                try:
                    yield env.timeout(transfer)
                except BaseException:
                    span_append((
                        "transfer", started, env._now,
                        {"drive": drive_name, "object": extent.object_id, "aborted": True},
                        sid, parent, request,
                    ))
                    raise
                span_append((
                    "transfer", started, env._now,
                    ("drive", drive_name, "object", extent.object_id),
                    sid, parent, request,
                ))
            else:
                yield env.timeout(transfer)
        record.transfer_s += transfer
        record.bytes_mb += extent.size_mb
        job.advance()


def _traced_stage(env, trace: Trace, name: str, delay: float, attrs: tuple, parent, request):
    """One switch stage on the traced path: its own timeout and span.

    The span id is claimed when the stage starts and the raw span tuple is
    appended when it ends (``attrs`` is the flat key/value tuple); a stage
    cut short by an interrupt closes at the interrupt, tagged ``aborted``.
    """
    sid = trace._next_id
    trace._next_id = sid + 1
    started = env._now
    try:
        yield env.timeout(delay)
    except BaseException:
        aborted = dict(zip(attrs[::2], attrs[1::2]))
        aborted["aborted"] = True
        trace._spans.append((name, started, env._now, aborted, sid, parent, request))
        raise
    trace._spans.append((name, started, env._now, attrs, sid, parent, request))


def _switch_to(
    env,
    library: TapeLibrary,
    drive: TapeDrive,
    tape_id: TapeId,
    record: DriveServiceRecord,
    trace: Trace,
    parent: Optional[int] = None,
    request: Optional[int] = None,
):
    """Full tape switch: rewind, unload, robot exchange, load-and-thread.

    The robot arm is held from the unload (for an empty drive, the fetch)
    through the load.  Traced, every stage is its own timeout and span, as
    is the arm's grant: each stage claims its span id when it starts.

    Untraced, two events go.  A free arm with nobody queued for it is
    taken without a grant event (:meth:`~repro.des.Resource.try_acquire`),
    and the unload and the robot exchange are one timeout at the exchange
    end, where the drive unmounts the old tape and mounts the new one, so
    the dispatcher sees ``Tape.holder`` change at the same instant as with
    a timeout per stage.  The load cannot fuse: at its start the tapes
    change drives, which dispatch rounds observe.  An :class:`Interrupt`
    moves the abandoned timeout to where the per-stage path's would fire:

    * at or before the unload end, to the unload end: the unload counts as
      finished only for an interrupt strictly after it ended (the strict
      rule of :func:`_serve_job`);
    * at the very instant the arm was taken without an event, to that
      instant: the interrupt's cause was scheduled before the grant event
      the per-stage path would have waited for, so that path had not
      started a stage yet.

    So every ``env.now`` and the instant the clock drains are the same
    with and without tracing.
    """
    new_tape = library.tape(tape_id)
    drive_name = str(drive.id)
    robot = library.robot
    arm = robot.resource
    tracing = trace.enabled
    if tracing:
        swid = trace._next_id
        trace._next_id = swid + 1
        sw_started = env._now
        drive_attrs = ("drive", drive_name)
    else:
        swid = None
    exchange = drive.mounted is not None
    try:
        if exchange:
            rewind = drive.rewind_time()
            if rewind > 0:
                if tracing:
                    yield from _traced_stage(
                        env, trace, "rewind", rewind, drive_attrs, swid, request
                    )
                else:
                    yield env.timeout(rewind)
        requested_at = env._now
        # Untraced, a free arm nobody queues for is taken without a grant
        # event, at ``taken_at``.
        grant = None if tracing else arm.try_acquire()
        taken_at = None if grant is None else requested_at
        if grant is None:
            grant = arm.request()
        with grant:
            if taken_at is None:
                yield grant
                wait = env._now - requested_at
                if wait > 0:
                    trace.record(
                        "robot_wait", requested_at, env._now,
                        parent=swid, request=request, drive=drive_name,
                    )
                record.robot_wait_s += wait
            # The paper "models robotic arm mount/unmount operations as
            # constant time values": the arm is held for the whole
            # unload + return-to-cell + fetch + mount sequence.
            if tracing:
                if exchange:
                    yield from _traced_stage(
                        env, trace, "unload", drive.unload_time, drive_attrs,
                        swid, request,
                    )
                    yield from _traced_stage(
                        env, trace, "robot_exchange", robot.exchange_time,
                        drive_attrs, swid, request,
                    )
                    drive.unmount()
                else:
                    # Fetch only: the drive was empty.
                    yield from _traced_stage(
                        env, trace, "robot_fetch", robot.move_time, drive_attrs,
                        swid, request,
                    )
            else:
                if exchange:
                    unload_end = env._now + drive.unload_time
                    held = env.timeout_at(unload_end + robot.exchange_time)
                else:
                    held = env.timeout(robot.move_time)
                try:
                    yield held
                except BaseException:
                    now = env._now
                    if now == taken_at:
                        # The per-stage path still waited for its grant.
                        env.reschedule(held, now)
                    elif exchange and now <= unload_end:
                        env.reschedule(held, unload_end)
                    raise
                if exchange:
                    drive.unmount()
            drive.mount(new_tape)
            if tracing:
                yield from _traced_stage(
                    env, trace, "load", drive.load_time,
                    ("drive", drive_name, "tape", str(tape_id)), swid, request,
                )
            else:
                yield env.timeout(drive.load_time)
    except BaseException:
        if tracing:
            trace._spans.append((
                "switch", sw_started, env._now,
                {"drive": drive_name, "tape": str(tape_id), "aborted": True},
                swid, parent, request,
            ))
        raise
    if tracing:
        trace._spans.append((
            "switch", sw_started, env._now,
            ("drive", drive_name, "tape", str(tape_id)),
            swid, parent, request,
        ))

    record.num_switches += 1
