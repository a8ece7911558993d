"""The memoized request fan-out against one rebuilt on every arrival.

``ConcurrentPolicy`` resolves a non-redundant request to its per-library
rows of tape jobs once and reuses them for later arrivals of the same
request, for as long as the location index keeps its generation.  None of
that may change a simulated bit.  The reference runs below clear the memo
before every arrival, so each arrival groups, sorts and prices its jobs
afresh; every configuration must give the same records, metrics, spans,
registry export and kernel event count both ways.
"""

import collections
import json

import pytest

from repro.catalog import Request
from repro.hardware import DriveSpec, LibrarySpec, ObjectExtent, SystemSpec, TapeSpec
from repro.obs import snapshot_of_result
from repro.placement import ObjectProbabilityPlacement, ParallelBatchPlacement
from repro.sim import DriveFailure, DriveFaultProcess, SimulationSession, TapeFailure
from repro.sim.opensystem import ConcurrentPolicy
from repro.sim.seekplanner import available_seek_planners
from repro.workload import generate_workload

RATE_MB_S = 10.0
DRIVES = 4
LIBRARIES = 2


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        num_objects=240,
        num_requests=12,
        request_size_bounds=(3, 9),
        object_size_bounds_mb=(10.0, 300.0),
        mean_object_size_mb=90.0,
        seed=33,
    )


def _spec(disk_bandwidth_mb_s=None):
    return SystemSpec(
        num_libraries=LIBRARIES,
        disk_bandwidth_mb_s=disk_bandwidth_mb_s,
        library=LibrarySpec(
            num_drives=DRIVES,
            num_tapes=12,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=RATE_MB_S, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=40_000.0, max_rewind_s=10.0),
        ),
    )


def _faults(kind, session):
    if kind == "drive-failures":
        return (DriveFailure("L0.D3", at_s=150.0), DriveFailure("L1.D1", at_s=400.0))
    if kind == "fault-process":
        return (DriveFaultProcess(mtbf_s=500.0, mttr_s=150.0),)
    if kind == "tape-loss":
        busiest = max(session.system.all_tapes(), key=lambda t: (t.used_mb, t.id))
        return (TapeFailure(str(busiest.id), at_s=120.0),)
    return ()


def _observe(opensys, result):
    spans = [
        (s.span_id, s.parent_id, s.name, s.start, s.end, s.request_id, sorted(s.attrs.items()))
        for s in result.spans()
    ]
    return {
        "records": result.records,
        "metrics": result.metrics,
        "horizon_s": result.horizon_s,
        "faults": result.faults,
        "repair": result.repair,
        "resources": result.resources,
        "spans": spans,
        "span_multiset": collections.Counter(
            (name, start, end, request, tuple(attrs))
            for _, _, name, start, end, request, attrs in spans
        ),
        "events": opensys.env.events_processed,
        "registry": json.dumps(snapshot_of_result(result), sort_keys=True, default=repr),
    }


def _run(workload, config, memo, monkeypatch, mutate=None):
    """One (or two successive) concurrent streams; everything they output.

    With ``memo=False`` the fan-out memo is emptied before every arrival.
    Returns ``(outputs, every fan-out entry served, the open system)``;
    the open system's ``memoized`` list says, per arrival, whether the
    memo was on.
    """
    computed = []
    memoized = []
    original = ConcurrentPolicy._fanout

    def fanout(self, request):
        if not memo and self._fanouts is not None:
            self._fanouts.clear()
        entry = original(self, request)
        computed.append(entry)
        memoized.append(self._fanouts is not None)
        return entry

    with monkeypatch.context() as patch:
        patch.setenv("REPRO_TRACE", "1")
        patch.setattr(ConcurrentPolicy, "_fanout", fanout)
        if config["scheme"] == "parallel_batch":
            scheme = ParallelBatchPlacement(m=2)
        else:
            scheme = ObjectProbabilityPlacement()
        session = SimulationSession(
            workload, _spec(config["disk"]), scheme=scheme,
            seek_planner=config["planner"],
        )
        if config["swap_spec"]:
            # One drive positions faster than its library's default: the
            # LPT price of a job then depends on where its tape is mounted.
            drive = session.system.libraries[0].drives[1]
            drive.tape_spec = TapeSpec(capacity_mb=40_000.0, max_rewind_s=4.0)
        opensys = session.open(
            policy="concurrent", faults=_faults(config["faults"], session),
            fault_seed=config["seed"],
        )
        if mutate is not None:
            opensys.on_complete = mutate
        outputs = [opensys.run(config["rate"], num_arrivals=50, seed=config["seed"])]
        if config["second_run"]:
            outputs.append(
                opensys.run(config["rate"], num_arrivals=30, seed=config["seed"] + 1, reset=False)
            )
    opensys.memoized = memoized
    return [_observe(opensys, r) for r in outputs], computed, opensys


def _assert_oracle(workload, config, monkeypatch, mutate=None):
    current, fanouts, opensys = _run(workload, config, True, monkeypatch, mutate)
    reference, rebuilt, _ = _run(workload, config, False, monkeypatch, mutate)
    assert len(current) == len(reference)
    for got, want in zip(current, reference):
        for key in want:
            assert got[key] == want[key], key
    distinct = len({id(entry) for entry in fanouts})
    if config["swap_spec"]:
        assert not any(opensys.memoized)
        assert distinct == len(fanouts)
    else:
        # Later arrivals of a request reused its first fan-out.
        assert all(opensys.memoized)
        assert distinct < len(fanouts)
    assert len({id(entry) for entry in rebuilt}) == len(rebuilt)
    return current


_BASE = dict(
    scheme="probability", planner="greedy-sweep", faults="none", disk=None,
    swap_spec=False, second_run=False, seed=1, rate=400.0,
)

#: One named case per path the memo must leave unchanged.
_CASES = {
    "plain": {},
    "parallel-batch": dict(scheme="parallel_batch"),
    "two-runs": dict(second_run=True),
    "drive-failures": dict(faults="drive-failures"),
    "fault-process": dict(faults="fault-process", scheme="parallel_batch"),
    "tape-loss": dict(faults="tape-loss"),
    "swapped-tape-spec": dict(swap_spec=True, second_run=True),
    "disk-capped": dict(disk=2 * RATE_MB_S),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_memoized_fanout_matches_per_arrival_fanout(workload, case, monkeypatch):
    outputs = _assert_oracle(workload, {**_BASE, **_CASES[case]}, monkeypatch)
    if case == "tape-loss":
        assert any(r.aborted for r in outputs[0]["records"]), "no job hit the lost tape"


@pytest.mark.parametrize("planner", available_seek_planners())
def test_every_seek_planner(workload, planner, monkeypatch):
    config = dict(_BASE, planner=planner, scheme="parallel_batch", faults="fault-process")
    _assert_oracle(workload, config, monkeypatch)


def _mover(session, workload):
    """An ``on_complete`` hook that moves one object to another tape once.

    The moved object belongs to the most requested catalog entry; it is
    appended to a tape no part of that request lives on, exactly as the
    repair manager rebuilds a member: layout first, then the index.
    """
    request = max(workload.requests, key=lambda r: r.probability)
    object_id = request.object_ids[0]
    old_tape, extent = session.index.locate(object_id)
    used = set(session.index.group_by_tape(request.object_ids))
    target = next(
        t for t in session.system.all_tapes()
        if t.id not in used and t.free_mb > extent.size_mb
    )
    state = {"moved": False}

    def move(opensys, _outcome):
        if state["moved"]:
            return
        state["moved"] = True
        index = opensys.index
        index.remove_member(object_id, old_tape, 0, 0)
        moved = ObjectExtent(object_id, target.used_mb, extent.size_mb)
        target.append_extent(moved)
        index.add(object_id, target.id, moved)

    return request, target, move


def test_index_generation_counts_every_mutation(workload):
    session = SimulationSession(workload, _spec(), scheme=ObjectProbabilityPlacement())
    index = session.index
    before = index.generation
    object_id = workload.requests[0].object_ids[0]
    tape_id, extent = index.locate(object_id)
    assert index.remove_member(object_id, tape_id, 0, 0) is extent
    assert index.generation == before + 1
    index.add(object_id, tape_id, extent)
    assert index.generation == before + 2
    with pytest.raises(ValueError):
        index.add(object_id, tape_id, extent)  # a rejected add changes nothing
    assert index.generation == before + 2


def test_fanout_follows_an_index_mutation_mid_run(workload, monkeypatch):
    """Arrivals after the move fan out from the new location, not the memo."""
    config = dict(_BASE, rate=60.0)

    def mutate_factory():
        # Each run places its own session, so each gets its own mover; the
        # mover is built lazily from the run's first completion.
        holder = {}

        def hook(opensys, outcome):
            if "move" not in holder:
                holder["request"], holder["target"], holder["move"] = _mover(
                    opensys.session, workload
                )
            holder["move"](opensys, outcome)

        return hook, holder

    hook, holder = mutate_factory()
    current, _, opensys = _run(workload, config, True, monkeypatch, hook)
    ref_hook, _ = mutate_factory()
    reference, _, _ = _run(workload, config, False, monkeypatch, ref_hook)
    for key in reference[0]:
        assert current[0][key] == reference[0][key], key
    target = str(holder["target"].id)
    served = [
        s for s in opensys.trace
        if s.name == "tape_job" and s.attrs.get("tape") == target
    ]
    assert served, "no arrival after the move read the object's new tape"
    # The run released its memo; a fan-out now comes from the new location.
    assert opensys.policy._fanouts is None
    _, rows, _, _ = opensys.policy._fanout(holder["request"])
    assert holder["target"].id in {tape for _, tape_ids, _, _ in rows for tape in tape_ids}


def test_memo_entry_is_dropped_when_the_index_changes(workload):
    session = SimulationSession(workload, _spec(), scheme=ObjectProbabilityPlacement())
    opensys = session.open(policy="concurrent")
    opensys.run(60.0, num_arrivals=10, seed=2)
    policy = opensys.policy
    policy.start_run()  # as the next run would
    request = workload.requests[0]
    first = policy._fanout(request)
    assert policy._fanout(request) is first
    # An equal request that is another object is not served from the memo.
    twin = Request(request.id, request.object_ids, request.probability)
    assert policy._fanout(twin) is not first
    object_id = request.object_ids[0]
    tape_id, extent = session.index.locate(object_id)
    session.index.remove_member(object_id, tape_id, 0, 0)
    session.index.add(object_id, tape_id, extent)
    assert policy._fanout(request) is not first
