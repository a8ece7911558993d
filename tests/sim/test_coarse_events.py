"""Coarse kernel events against the per-stage and per-job event paths.

Three cuts remove kernel events and must leave every simulated output as
it was:

* one join per submission: a request waits on one countdown event instead
  of a condition over one ``done`` event per tape job;
* untraced, a switch's unload and robot exchange are one timeout;
* a free robot arm with nobody queued is taken without a grant event.

Traced runs keep one timeout per switch stage (every stage claims its span
id when it starts), so a traced run of the same configuration is a
differential oracle with no knob for the fused switch.  For interrupts
around the fused timeout, the oracle is a verbatim copy of the per-stage
``_switch_to`` (:func:`_per_stage_switch_to` below).
"""

import collections
from typing import Optional

import pytest

import repro.sim.engine as engine
import repro.sim.opensystem as opensystem
from repro.des import Environment, Interrupt, ResourceUsageMonitor, Trace
from repro.hardware import (
    DriveSpec,
    LibrarySpec,
    SystemSpec,
    TapeDrive,
    TapeId,
    TapeLibrary,
    TapeSpec,
    TapeSystem,
)
from repro.obs import export_registry
from repro.placement import ObjectProbabilityPlacement, ParallelBatchPlacement
from repro.redundancy import wrap_scheme
from repro.sim import DriveFailure, DriveFaultProcess, SimulationSession, TapeFailure
from repro.sim.metrics import DriveServiceRecord
from repro.workload import generate_workload

DRIVES = 2
LIBRARIES = 2


def _library_spec():
    """Drive-starved: small tapes and two drives per library force switches."""
    return LibrarySpec(
        num_drives=DRIVES,
        num_tapes=40,
        cell_to_drive_s=2.0,
        drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
        tape=TapeSpec(capacity_mb=2_000.0, max_rewind_s=10.0),
    )


def _spec(disk_bandwidth_mb_s=None):
    return SystemSpec(
        num_libraries=LIBRARIES,
        disk_bandwidth_mb_s=disk_bandwidth_mb_s,
        library=_library_spec(),
    )


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        num_objects=300,
        num_requests=20,
        request_size_bounds=(4, 10),
        object_size_bounds_mb=(10.0, 400.0),
        mean_object_size_mb=100.0,
        seed=21,
    )


@pytest.fixture(scope="module")
def big_requests():
    return generate_workload(
        num_objects=300,
        num_requests=20,
        request_size_bounds=(30, 60),
        object_size_bounds_mb=(10.0, 400.0),
        mean_object_size_mb=100.0,
        seed=21,
    )


def _session(workload, disk=None, redundancy=None, scheme=None):
    scheme = scheme or ObjectProbabilityPlacement()
    if redundancy:
        scheme = wrap_scheme(scheme, redundancy)
    return SimulationSession(workload, _spec(disk), scheme=scheme)


def _busiest(workload, redundancy=None, scheme=None):
    probe = _session(workload, redundancy=redundancy, scheme=scheme)
    return str(max(probe.system.all_tapes(), key=lambda t: (t.used_mb, t.id)).id)


def _open_run(monkeypatch, workload, traced, disk=None, redundancy=None, scheme=None,
              policy="concurrent", arrivals=40, **kwargs):
    monkeypatch.setenv("REPRO_TRACE", "1" if traced else "0")
    opensys = _session(workload, disk, redundancy, scheme).open(policy=policy, **kwargs)
    return opensys, opensys.run(30.0, num_arrivals=arrivals, seed=5)


def _every_drive_fails(at_s):
    return tuple(
        DriveFailure(f"L{lib}.D{i}", at_s=at_s) for lib in range(LIBRARIES) for i in range(DRIVES)
    )


def _outputs(result):
    return (
        result.records,
        result.metrics,
        result.horizon_s,
        result.faults,
        result.repair,
        result.resources,
        export_registry(result.registry),
    )


def _span_multiset(result):
    """Spans keyed by content, a parent named by its own content."""
    spans = result.spans()
    by_id = {s.span_id: s for s in spans}

    def content(span):
        return (span.name, span.start, span.end, span.request_id, sorted(span.attrs.items()))

    return collections.Counter(
        repr(content(s) + (content(by_id[s.parent_id]) if s.parent_id in by_id else s.parent_id,))
        for s in spans
    )




# ---------------------------------------------------------------------------
# Untraced (fused switch) against traced (one timeout per stage)


def _configs(workload):
    lost = _busiest(workload, redundancy="r=2")
    configs = {
        "concurrent": {},
        "serial-fcfs": dict(policy="serial-fcfs"),
        "drive-faults": dict(
            faults=(DriveFaultProcess(mtbf_s=600.0, mttr_s=120.0),), fault_seed=3
        ),
        "pinned-drive-faults": dict(
            scheme=ParallelBatchPlacement(m=1),
            faults=(DriveFaultProcess(mtbf_s=600.0, mttr_s=120.0),), fault_seed=3,
        ),
        "erasure": dict(
            redundancy="k=2,n=3",
            faults=(DriveFaultProcess(mtbf_s=900.0, mttr_s=120.0),), fault_seed=4,
        ),
        "disk-cap": dict(disk=20.0),
    }
    for policy in ("user-first", "repair-first", "fair-share"):
        configs[f"lost-tape-{policy}"] = dict(
            redundancy="r=2",
            faults=(
                DriveFaultProcess(mtbf_s=900.0, mttr_s=120.0),
                TapeFailure(lost, at_s=200.0),
            ),
            fault_seed=4,
            repair_policy=policy,
        )
    return configs


CONFIG_NAMES = [
    "concurrent", "serial-fcfs", "drive-faults", "pinned-drive-faults", "erasure",
    "disk-cap", "lost-tape-user-first", "lost-tape-repair-first", "lost-tape-fair-share",
]


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_untraced_run_equals_traced_run(workload, monkeypatch, name):
    kwargs = _configs(workload)[name]
    plain_sys, plain = _open_run(monkeypatch, workload, traced=False, **kwargs)
    traced_sys, traced = _open_run(monkeypatch, workload, traced=True, **kwargs)
    assert traced.spans() and not plain.spans()
    assert _outputs(plain) == _outputs(traced)
    # The untraced run fused at least one unload + exchange.
    assert sum(1 for s in traced.spans() if s.name == "unload") > 0
    assert plain_sys.env.events_processed < traced_sys.env.events_processed
    if "faults" in kwargs:
        assert plain.faults["drive_failures"] > 0
    if "lost-tape" in name:
        assert plain.repair["members_rebuilt"] > 0


# ---------------------------------------------------------------------------
# Interrupts around the fused timeout, against the per-stage copy


def _lone_library():
    return TapeSystem(SystemSpec(num_libraries=1, library=_library_spec())).libraries[0]


def _switch_once(switch, fail_at, traced, mounted=True, blocked_s=0.0):
    """One switch on drive 0, a failure interrupt pinned at ``fail_at``.

    The failure's timeout is created before the switch starts, like an
    armed fault's.  ``blocked_s`` > 0 has drive 1 hold the robot from 0 s,
    so the switch queues for the arm.  Returns every observable.
    """
    library = _lone_library()
    env = Environment()
    library.robot.bind(env)
    monitor = ResourceUsageMonitor("robot").attach(library.robot.resource)
    drive = library.drives[0]
    tape_ids = sorted(library.tapes)
    if mounted:
        drive.mount(library.tapes[tape_ids[0]])
        drive.mounted.head_mb = 7_300.0
    record = DriveServiceRecord(str(drive.id))
    trace = Trace(enabled=traced)
    outcome = []
    worker = []

    def failure():
        if fail_at is None:
            return
        yield env.timeout(fail_at)
        if worker[0].is_alive:
            worker[0].interrupt("drive-failure")

    def blocker():
        with library.robot.resource.request() as grant:
            yield grant
            yield env.timeout(blocked_s)

    def switch_process():
        try:
            yield from switch(env, library, drive, tape_ids[1], record, trace)
            outcome.append(("switched", env.now))
        except Interrupt:
            outcome.append(("failed", env.now))

    env.process(failure())
    if blocked_s:
        env.process(blocker())
    worker.append(env.process(switch_process()))
    env.run()
    spans = sorted(
        (s.name, s.start, s.end, s.span_id, s.parent_id, sorted(s.attrs.items()))
        for s in trace
    )
    return dict(
        outcome=outcome,
        clock=env.now,
        record=(record.robot_wait_s, record.num_switches),
        mounted=None if drive.mounted is None else drive.mounted.id,
        holders=[library.tapes[t].holder for t in tape_ids[:2]],
        robot=monitor.summary(),
        users=len(library.robot.resource.users),
        spans=spans,
    )


def _stage_pins(monkeypatch, mounted, blocked_s):
    """Every start, midpoint and end of the per-stage switch's stages."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    healthy = _switch_once(
        _per_stage_switch_to, None, traced=True, mounted=mounted, blocked_s=blocked_s
    )
    pins = set()
    for name, start, end, *_ in healthy["spans"]:
        if name != "switch":
            pins.update((start, (start + end) / 2.0, end))
    return sorted(pins)


SWITCH_SHAPES = {
    "exchange": dict(mounted=True, blocked_s=0.0),
    "exchange-queued": dict(mounted=True, blocked_s=30.0),
    "fetch": dict(mounted=False, blocked_s=0.0),
    "fetch-queued": dict(mounted=False, blocked_s=3.0),
}


@pytest.mark.parametrize("shape", sorted(SWITCH_SHAPES))
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_interrupt_pins_match_per_stage_switch(monkeypatch, shape, traced):
    kwargs = SWITCH_SHAPES[shape]
    pins = _stage_pins(monkeypatch, **kwargs)
    assert len(pins) >= 5
    monkeypatch.setenv("REPRO_TRACE", "1" if traced else "0")
    for fail_at in pins + [None]:
        fused = _switch_once(engine._switch_to, fail_at, traced, **kwargs)
        per_stage = _switch_once(_per_stage_switch_to, fail_at, traced, **kwargs)
        assert fused == per_stage, fail_at


def test_abandoned_unload_drains_at_the_unload_end(monkeypatch):
    """A failure strictly inside the unload, or exactly at its end, leaves
    the clock at the unload end; one inside the exchange at its end."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    healthy = _switch_once(_per_stage_switch_to, None, traced=True)
    stages = {name: (start, end) for name, start, end, *_ in healthy["spans"]}
    unload, exchange = stages["unload"], stages["robot_exchange"]
    assert unload[1] == exchange[0]
    monkeypatch.setenv("REPRO_TRACE", "0")
    cases = [
        ((unload[0] + unload[1]) / 2.0, unload[1]),
        (unload[1], unload[1]),
        ((exchange[0] + exchange[1]) / 2.0, exchange[1]),
    ]
    for fail_at, clock in cases:
        fused = _switch_once(engine._switch_to, fail_at, traced=False)
        assert fused["outcome"] == [("failed", fail_at)]
        assert fused["clock"] == clock
        assert fused["mounted"] is not None  # the old tape never left
        assert fused["users"] == 0


def _exchange_pins(spans):
    """The drive of the first unload, and failure times strictly inside
    that unload, at its end (the exchange start) and inside the exchange."""
    unloads = [s for s in spans if s.name == "unload"]
    assert unloads, "no mounted tape was displaced"
    unload = min(unloads, key=lambda s: (s.start, s.span_id))
    drive = unload.attrs["drive"]
    exchange = next(
        s for s in spans
        if s.name == "robot_exchange" and s.attrs["drive"] == drive and s.start == unload.end
    )
    return drive, [
        (unload.start + unload.end) / 2.0,
        unload.end,
        (exchange.start + exchange.end) / 2.0,
    ]


def test_open_system_failure_pins_match_per_stage_switch(monkeypatch, big_requests):
    _, healthy = _open_run(monkeypatch, big_requests, traced=True, arrivals=1)
    _, pins = _exchange_pins(healthy.spans())
    for at_s in pins:
        # Every drive dies at once: the run ends with the abandoned stage
        # timeouts, and the final clock tells where they drained.
        faults = _every_drive_fails(at_s)
        _, fused = _open_run(monkeypatch, big_requests, traced=False, arrivals=1, faults=faults)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_switch_to", _per_stage_switch_to)
            patch.setattr(opensystem, "_switch_to", _per_stage_switch_to)
            _, per_stage = _open_run(
                monkeypatch, big_requests, traced=False, arrivals=1, faults=faults
            )
        assert _outputs(fused) == _outputs(per_stage), at_s
        assert fused.faults["drive_failures"] == DRIVES * LIBRARIES


def test_closed_loop_failure_pins_match_per_stage_switch(monkeypatch, big_requests):
    request = big_requests.requests[0]
    monkeypatch.setenv("REPRO_TRACE", "1")
    probe = SimulationSession(
        big_requests, _spec(), scheme=ObjectProbabilityPlacement(), trace=True
    )
    probe.serve(request)
    drive, pins = _exchange_pins(list(probe.trace))
    monkeypatch.setenv("REPRO_TRACE", "0")

    def serve(switch, at_s):
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_switch_to", switch)
            try:
                return _session(big_requests).serve(request, failures={drive: at_s})
            except RuntimeError as error:  # both paths must fail alike
                return str(error)

    for at_s in pins:
        assert serve(engine._switch_to, at_s) == serve(_per_stage_switch_to, at_s)


# ---------------------------------------------------------------------------
# The join: one countdown per submission


def _assert_lands_with_last_job(result):
    """A request completes exactly when its last tape job lands."""
    landed = collections.defaultdict(list)
    for span in result.spans():
        if span.name == "tape_job" and span.request_id >= 0:
            landed[span.request_id].append(span.end)
    tokens = sorted(landed)
    assert len(tokens) == len(result.records)
    by_arrival = sorted(result.records, key=lambda r: r.arrival_s)
    for token, record in zip(tokens, by_arrival):
        assert record.finish_s == max(landed[token])


def _count_early_landings(monkeypatch):
    """Jobs that land inside ``submit`` while siblings are still out."""
    early = []
    submit = opensystem._LibraryDispatcher.submit

    def counting_submit(self, djob):
        submit(self, djob)
        if djob.aborted and djob.join.remaining > 0:
            early.append(djob)

    monkeypatch.setattr(opensystem._LibraryDispatcher, "submit", counting_submit)
    return early


def test_join_survives_a_synchronous_first_landing(workload, monkeypatch):
    """A lost cartridge fails its job inside ``submit``; the request must
    still wait for the jobs submitted after it."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    probe = _session(workload).open(policy="concurrent")
    firsts = collections.Counter()
    for request in workload.requests:
        rows = probe.policy._fanout(request)[1]
        if sum(len(row[1]) for row in rows) > 1:
            firsts[rows[0][1][0]] += 1
    lost = str(firsts.most_common(1)[0][0])
    kwargs = dict(faults=(TapeFailure(lost, at_s=1.0),), fault_seed=1)
    early = _count_early_landings(monkeypatch)
    _, traced = _open_run(monkeypatch, workload, traced=True, **kwargs)
    assert early, "no request lost its first-submitted job at submit"
    assert traced.aborted_requests > 0
    _assert_lands_with_last_job(traced)
    _, plain = _open_run(monkeypatch, workload, traced=False, **kwargs)
    assert _outputs(plain) == _outputs(traced)


def test_request_with_every_job_aborted(workload, monkeypatch):
    """Every drive dies with no repair: later requests abort inside
    ``submit``, complete at their arrival and carry no drive record."""
    at_s = 300.0
    faults = _every_drive_fails(at_s)
    _, traced = _open_run(monkeypatch, workload, traced=True, faults=faults)
    late = [
        (r, m) for r, m in zip(traced.records, traced.metrics) if r.arrival_s > at_s
    ]
    assert late
    for record, metrics in late:
        assert record.aborted and record.finish_s == record.arrival_s
        assert metrics.num_drives == 0
    _assert_lands_with_last_job(traced)
    _, plain = _open_run(monkeypatch, workload, traced=False, faults=faults)
    assert _outputs(plain) == _outputs(traced)


def test_redundant_retry_rounds(workload, monkeypatch):
    """A dead library aborts the first round's members there; the retry
    round re-reads them elsewhere and the request waits for both."""
    _, healthy = _open_run(monkeypatch, workload, traced=True, redundancy="r=2")
    busy = next(
        s for s in healthy.spans() if s.name == "transfer" and s.attrs["drive"].startswith("L0.")
    )
    at_s = (busy.start + busy.end) / 2.0
    faults = tuple(DriveFailure(f"L0.D{i}", at_s=at_s) for i in range(DRIVES))
    kwargs = dict(redundancy="r=2", faults=faults)
    _, traced = _open_run(monkeypatch, workload, traced=True, **kwargs)
    assert traced.registry.counters["redundancy.retries"].value > 0
    assert traced.aborted_requests == 0
    _assert_lands_with_last_job(traced)
    _, plain = _open_run(monkeypatch, workload, traced=False, **kwargs)
    assert _outputs(plain) == _outputs(traced)


# ---------------------------------------------------------------------------
# The per-stage switch, verbatim: the oracle for the fused one.


def _per_stage_switch_to(
    env,
    library: TapeLibrary,
    drive: TapeDrive,
    tape_id: TapeId,
    record: DriveServiceRecord,
    trace: Trace,
    parent: Optional[int] = None,
    request: Optional[int] = None,
):
    """Full tape switch: rewind, unload, robot exchange, load-and-thread."""
    new_tape = library.tape(tape_id)
    drive_name = str(drive.id)
    robot = library.robot

    # Same guarded fast lane as ``_serve_job``: a full switch emits one
    # parent span plus 3–4 leaf spans, all with fixed attributes, so each
    # site claims its id inline and appends the raw field tuple directly
    # (ids in the same order, timestamps and aborted-tagging identical to
    # the ``SpanContext`` path it replaces).
    tracing = trace.enabled
    if tracing:
        span_append = trace._spans.append
        swid = trace._next_id
        trace._next_id = swid + 1
        sw_started = env._now
    else:
        swid = None
    try:
        if drive.mounted is not None:
            rewind = drive.rewind_time()
            if rewind > 0:
                if tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(rewind)
                    except BaseException:
                        span_append((
                            "rewind", started, env._now,
                            {"drive": drive_name, "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "rewind", started, env._now, ("drive", drive_name),
                        sid, swid, request,
                    ))
                else:
                    yield env.timeout(rewind)

            requested_at = env.now
            with robot.resource.request() as grant:
                yield grant
                wait = env.now - requested_at
                if wait > 0:
                    trace.record(
                        "robot_wait", requested_at, env.now,
                        parent=swid, request=request, drive=drive_name,
                    )
                record.robot_wait_s += wait
                # The paper "models robotic arm mount/unmount operations as
                # constant time values": the arm is held for the whole
                # unload + return-to-cell + fetch + mount sequence.
                if tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(drive.unload_time)
                    except BaseException:
                        span_append((
                            "unload", started, env._now,
                            {"drive": drive_name, "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "unload", started, env._now, ("drive", drive_name),
                        sid, swid, request,
                    ))
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(robot.exchange_time)
                    except BaseException:
                        span_append((
                            "robot_exchange", started, env._now,
                            {"drive": drive_name, "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "robot_exchange", started, env._now, ("drive", drive_name),
                        sid, swid, request,
                    ))
                else:
                    yield env.timeout(drive.unload_time)
                    yield env.timeout(robot.exchange_time)
                drive.unmount()
                drive.mount(new_tape)
                if tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(drive.load_time)
                    except BaseException:
                        span_append((
                            "load", started, env._now,
                            {"drive": drive_name, "tape": str(tape_id), "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "load", started, env._now,
                        ("drive", drive_name, "tape", str(tape_id)),
                        sid, swid, request,
                    ))
                else:
                    yield env.timeout(drive.load_time)
        else:
            requested_at = env.now
            with robot.resource.request() as grant:
                yield grant
                wait = env.now - requested_at
                if wait > 0:
                    trace.record(
                        "robot_wait", requested_at, env.now,
                        parent=swid, request=request, drive=drive_name,
                    )
                record.robot_wait_s += wait
                if tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(robot.move_time)  # fetch only: drive was empty
                    except BaseException:
                        span_append((
                            "robot_fetch", started, env._now,
                            {"drive": drive_name, "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "robot_fetch", started, env._now, ("drive", drive_name),
                        sid, swid, request,
                    ))
                else:
                    yield env.timeout(robot.move_time)
                drive.mount(new_tape)
                if tracing:
                    sid = trace._next_id
                    trace._next_id = sid + 1
                    started = env._now
                    try:
                        yield env.timeout(drive.load_time)
                    except BaseException:
                        span_append((
                            "load", started, env._now,
                            {"drive": drive_name, "tape": str(tape_id), "aborted": True},
                            sid, swid, request,
                        ))
                        raise
                    span_append((
                        "load", started, env._now,
                        ("drive", drive_name, "tape", str(tape_id)),
                        sid, swid, request,
                    ))
                else:
                    yield env.timeout(drive.load_time)
    except BaseException:
        if tracing:
            span_append((
                "switch", sw_started, env._now,
                {"drive": drive_name, "tape": str(tape_id), "aborted": True},
                swid, parent, request,
            ))
        raise
    if tracing:
        span_append((
            "switch", sw_started, env._now,
            ("drive", drive_name, "tape", str(tape_id)),
            swid, parent, request,
        ))

    record.num_switches += 1
