"""The library dispatcher against a verbatim copy of its scanning predecessor.

The dispatcher skips a round's scan of the pending queue when no idle drive
holds a pending job's tape and no offline drive exists, finds a cartridge's
drive through the tape's ``holder`` back-reference, and counts pending jobs
per tape instead of building a protected set each round.  None of that may
change a simulated bit.  ``_ScanningDispatcher`` below keeps the previous
``_dispatch`` / ``_try_assign`` / ``_offline_drive`` / ``_admit_repair``
verbatim, and the scanning ``TapeLibrary.drive_holding`` is patched in for
its runs; every configuration must produce the same assignment log (time,
drive, tape, request, fair-share bucket), records, metrics, spans, kernel
event count and registry contents on both.
"""

import json

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.hardware import DriveSpec, LibrarySpec, SystemSpec, TapeLibrary, TapeSpec
from repro.obs import snapshot_of_result
from repro.placement import ObjectProbabilityPlacement, ParallelBatchPlacement
from repro.redundancy import wrap_scheme
from repro.sim import (
    REPAIR_POLICIES,
    DriveFailure,
    DriveFaultProcess,
    SimulationSession,
    TapeFailure,
    opensystem,
)
from repro.sim.replacement import available_policies, replacement_key
from repro.sim.scheduling import estimate_job_time
from repro.sim.seekplanner import available_seek_planners
from repro.workload import generate_workload

_UNSET = opensystem._UNSET
_CURRENT = opensystem._LibraryDispatcher


def _scanning_drive_holding(self, tape_id):
    for drive in self.drives:
        if drive.mounted is not None and drive.mounted.id == tape_id:
            return drive
    return None


class _ScanningDispatcher(_CURRENT):
    """The dispatcher's round logic before the precheck, copied verbatim."""

    def _admit_repair(self, djob):
        if self.repair_policy != "fair-share":
            return 0.0
        if not any(not dj.repair for dj in self.pending):
            return 0.0
        now = self.env.now
        if now > self._repair_tokens_at:
            rate = self._repair_share * max(1, len(self.workers))
            self._repair_tokens = min(
                self._repair_burst_s,
                self._repair_tokens + rate * (now - self._repair_tokens_at),
            )
            self._repair_tokens_at = now
        cost = estimate_job_time(djob.job, self.library, planner=self.seek_planner)
        if self._repair_tokens >= cost:
            return cost
        return None

    def _dispatch(self) -> None:
        if self.pending:
            live, degraded = self._live_pool()
            busy = self.busy
            if any(d.id.index not in busy for d in live):
                mounted = {}
                for d in self.library.drives:
                    tape = d.mounted
                    if tape is not None:
                        mounted.setdefault(tape.id, d)
                self._protected = None
                while self.pending and self._try_assign(live, degraded, mounted):
                    pass
        self.pending_gauge.set(len(self.pending), self.env.now)
        if self._restore_waiters:
            waiters, self._restore_waiters = self._restore_waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def _offline_drive(self, idle, degraded):
        candidates = [d for d in idle if degraded or not d.pinned]
        for d in candidates:
            if d.mounted is None:
                return d
        protected = self._protected
        if protected is None:
            protected = {dj.job.tape_id for dj in self.pending}
            protected.update(self.committed)
            self._protected = protected
        displaceable = [d for d in candidates if d.mounted.id not in protected]
        if not displaceable:
            return None
        return min(
            displaceable,
            key=lambda d: replacement_key(self.replacement_policy, d, self.tape_priority),
        )

    def _try_assign(self, live, degraded, mounted) -> bool:
        busy = self.busy
        idle = [d for d in live if d.id.index not in busy]
        if not idle:
            return False
        committed = self.committed
        workers = self.workers
        pending = (
            self._repair_order() if self._repair_pending else self.pending
        )
        offline = _UNSET
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
                holder = mounted.get(tape_id)
                if holder is not None and holder.id.index in workers:
                    holder_idx = holder.id.index
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
            self.pending.remove(djob)
            if djob.repair:
                self._repair_pending -= 1
            if repair_cost:
                self._repair_tokens -= repair_cost
            self._assign(djob, chosen)
            return True
        return False


def _logging(base, log):
    class Logged(base):
        def _assign(self, djob, drive):
            # The fair-share bucket rides along: its accruals must land at
            # the same instants, not only admit the same jobs.
            log.append((
                self.env.now, str(drive.id), djob.job.tape_id, djob.request_id,
                self._repair_tokens, self._repair_tokens_at,
            ))
            super()._assign(djob, drive)

    return Logged


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        num_objects=240,
        num_requests=16,
        request_size_bounds=(3, 9),
        object_size_bounds_mb=(10.0, 300.0),
        mean_object_size_mb=90.0,
        seed=33,
    )


def _spec():
    return SystemSpec(
        num_libraries=2,
        library=LibrarySpec(
            num_drives=4,
            num_tapes=12,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
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
        return (
            DriveFaultProcess(mtbf_s=900.0, mttr_s=120.0),
            TapeFailure(str(busiest.id), at_s=120.0),
        )
    return ()


def _run(workload, config, reference, monkeypatch):
    """One open-system stream; returns everything a dispatcher can move."""
    log = []
    base = _ScanningDispatcher if reference else _CURRENT
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_TRACE", "1" if config["traced"] else "0")
        patch.setattr(opensystem, "_LibraryDispatcher", _logging(base, log))
        if reference:
            patch.setattr(TapeLibrary, "drive_holding", _scanning_drive_holding)
        if config["scheme"] == "parallel_batch":
            scheme = ParallelBatchPlacement(m=config["m"])
        else:
            scheme = ObjectProbabilityPlacement()
        if config["redundancy"]:
            scheme = wrap_scheme(scheme, config["redundancy"])
        session = SimulationSession(
            workload, _spec(), scheme=scheme,
            replacement_policy=config["replacement"],
            seek_planner=config["planner"],
        )
        if config["degraded"]:
            # Every switch drive of L0 down: its pinned drives must switch.
            session.fail_drives(
                [str(d.id) for d in session.system.libraries[0].drives if not d.pinned]
            )
        opensys = session.open(
            policy="concurrent",
            faults=_faults(config["faults"], session),
            fault_seed=config["seed"],
            repair_policy=config["repair_policy"],
        )
        result = opensys.run(config["rate"], num_arrivals=60, seed=config["seed"])
    spans = [
        (s.span_id, s.parent_id, s.name, s.start, s.end, s.request_id, sorted(s.attrs.items()))
        for s in result.spans()
    ]
    return {
        "log": log,
        "records": result.records,
        "metrics": result.metrics,
        "horizon_s": result.horizon_s,
        "faults": result.faults,
        "repair": result.repair,
        "resources": result.resources,
        "spans": spans,
        "events": opensys.env.events_processed,
        "registry": json.dumps(snapshot_of_result(result), sort_keys=True, default=repr),
        "snapshots": json.dumps(result.registry.snapshots, sort_keys=True, default=repr),
    }


def _assert_oracle(workload, config, monkeypatch):
    current = _run(workload, config, False, monkeypatch)
    reference = _run(workload, config, True, monkeypatch)
    assert current["log"], "nothing was dispatched"
    for key in reference:
        assert current[key] == reference[key], key
    return current


_BASE = dict(
    scheme="probability", m=2, redundancy=None, replacement="least_popular",
    planner="greedy-sweep", faults="none", repair_policy=None, degraded=False,
    seed=1, rate=400.0, traced=True,
)

#: One named case per behaviour the oracle must cover.
_CASES = {
    "plain": {},
    "drive-failures": dict(faults="drive-failures"),
    "fault-process": dict(faults="fault-process", scheme="parallel_batch"),
    "user-first": dict(faults="tape-loss", redundancy="r=2", repair_policy="user-first"),
    "repair-first": dict(faults="tape-loss", redundancy="r=2", repair_policy="repair-first"),
    "fair-share": dict(faults="tape-loss", redundancy="r=2", repair_policy="fair-share"),
    # Pinned idle drives and a busy switch drive: rounds skip their scan
    # while metered repair jobs wait, so the skip must accrue tokens.
    "fair-share-pinned": dict(
        scheme="parallel_batch", faults="tape-loss", redundancy="r=2",
        repair_policy="fair-share",
    ),
    "fair-share-erasure": dict(
        faults="tape-loss", redundancy="k=2,n=3", repair_policy="fair-share"
    ),
    "erasure": dict(redundancy="k=2,n=3", faults="fault-process"),
    "degraded-pinned": dict(scheme="parallel_batch", m=3, degraded=True),
    "degraded-pinned-faults": dict(
        scheme="parallel_batch", m=3, degraded=True, faults="fault-process"
    ),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_named_case_matches_scanning_dispatcher(workload, case, monkeypatch):
    _assert_oracle(workload, {**_BASE, **_CASES[case]}, monkeypatch)


def test_every_replacement_policy_and_planner(workload, monkeypatch):
    for i, replacement in enumerate(available_policies()):
        for planner in available_seek_planners():
            config = dict(
                _BASE, replacement=replacement, planner=planner,
                scheme="parallel_batch", faults="fault-process", seed=i, traced=False,
            )
            _assert_oracle(workload, config, monkeypatch)


@given(
    scheme=st.sampled_from(["probability", "parallel_batch"]),
    m=st.integers(min_value=1, max_value=3),
    redundancy=st.sampled_from([None, "r=2", "k=2,n=3"]),
    replacement=st.sampled_from(available_policies()),
    planner=st.sampled_from(available_seek_planners()),
    faults=st.sampled_from(["none", "drive-failures", "fault-process", "tape-loss"]),
    repair_policy=st.sampled_from((None,) + tuple(REPAIR_POLICIES)),
    degraded=st.booleans(),
    seed=st.integers(min_value=0, max_value=5),
    rate=st.sampled_from([10.0, 40.0, 120.0]),
)
@hyp_settings(max_examples=40, deadline=None)
def test_random_configuration_matches_scanning_dispatcher(workload, **config):
    if config["degraded"] and config["scheme"] != "parallel_batch":
        config["degraded"] = False  # only parallel batch pins drives
    config["traced"] = True
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_oracle(workload, config, monkeypatch)
