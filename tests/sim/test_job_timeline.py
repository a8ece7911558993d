"""The one-event tape-job timeline against the per-extent path.

Without a disk-stage cap the engine serves a planned tape job as one
kernel timeout at its absolute end; with a cap it reads extent by extent,
because each transfer first takes a disk-stream slot.  A cap that never
binds (``disk_streams`` >= every drive in the system) therefore runs the
per-extent path on an otherwise identical system, and that makes a
differential oracle with no knob: both runs must agree bit for bit on
every simulated output, with and without drive failures, tape loss,
repair traffic and tracing.
"""

import collections

import pytest

from repro.hardware import DriveSpec, LibrarySpec, SystemSpec, TapeSpec
from repro.placement import ObjectProbabilityPlacement
from repro.redundancy import wrap_scheme
from repro.sim import DriveFailure, DriveFaultProcess, SimulationSession, TapeFailure
from repro.workload import generate_workload

RATE_MB_S = 10.0
DRIVES = 3
LIBRARIES = 2
#: Every drive of the system streams at once: the cap admits all of them.
NEVER_BINDS_MB_S = RATE_MB_S * DRIVES * LIBRARIES


def _spec(disk_bandwidth_mb_s=None):
    return SystemSpec(
        num_libraries=LIBRARIES,
        disk_bandwidth_mb_s=disk_bandwidth_mb_s,
        library=LibrarySpec(
            num_drives=DRIVES,
            num_tapes=10,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=RATE_MB_S, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=20_000.0, max_rewind_s=10.0),
        ),
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


def _session(workload, disk, redundancy=None):
    scheme = ObjectProbabilityPlacement()
    if redundancy:
        scheme = wrap_scheme(scheme, redundancy)
    return SimulationSession(workload, _spec(disk), scheme=scheme)


def _open_run(workload, disk, policy="concurrent", redundancy=None, arrivals=40, **kwargs):
    session = _session(workload, disk, redundancy)
    assert session.system.spec.disk_streams in (None, DRIVES * LIBRARIES)
    return session.open(policy=policy, **kwargs).run(30.0, num_arrivals=arrivals, seed=5)


def _assert_same(coarse, per_extent):
    assert coarse.records == per_extent.records
    assert coarse.metrics == per_extent.metrics
    assert coarse.horizon_s == per_extent.horizon_s
    assert coarse.faults == per_extent.faults
    assert coarse.repair == per_extent.repair


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


@pytest.fixture
def untraced(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "0")


@pytest.mark.usefixtures("untraced")
class TestUntracedOracle:
    @pytest.mark.parametrize("policy", ["concurrent", "serial-fcfs"])
    def test_open_system(self, workload, policy):
        coarse = _open_run(workload, None, policy=policy)
        per_extent = _open_run(workload, NEVER_BINDS_MB_S, policy=policy)
        _assert_same(coarse, per_extent)

    def test_closed_loop_session_serve(self, workload):
        sessions = [_session(workload, disk) for disk in (None, NEVER_BINDS_MB_S)]
        for request in workload.requests:
            coarse, per_extent = (s.serve(request) for s in sessions)
            assert coarse == per_extent

    def test_closed_loop_with_failures(self, workload):
        sessions = [_session(workload, disk) for disk in (None, NEVER_BINDS_MB_S)]
        failures = {"L0.D2": 12.5, "L1.D2": 20.0}

        def outcome(session, request):
            try:
                return session.serve(request, failures=failures)
            except RuntimeError as error:  # both paths must fail alike
                return str(error)
            finally:
                session.reset()

        served = 0
        for request in workload.requests:
            coarse, per_extent = (outcome(s, request) for s in sessions)
            assert coarse == per_extent
            served += not isinstance(coarse, str)
        assert served >= 15

    def test_drive_fault_process(self, workload):
        faults = (DriveFaultProcess(mtbf_s=600.0, mttr_s=120.0),)
        coarse = _open_run(workload, None, faults=faults, fault_seed=3)
        per_extent = _open_run(workload, NEVER_BINDS_MB_S, faults=faults, fault_seed=3)
        assert coarse.faults["drive_failures"] >= 10
        _assert_same(coarse, per_extent)

    def test_tape_loss_with_fair_share_repair(self, workload):
        probe = _session(workload, None, redundancy="r=2")
        busiest = max(probe.system.all_tapes(), key=lambda t: (t.used_mb, t.id))
        faults = (
            DriveFaultProcess(mtbf_s=900.0, mttr_s=120.0),
            TapeFailure(str(busiest.id), at_s=200.0),
        )
        kwargs = dict(redundancy="r=2", faults=faults, fault_seed=4, repair_policy="fair-share")
        coarse = _open_run(workload, None, **kwargs)
        per_extent = _open_run(workload, NEVER_BINDS_MB_S, **kwargs)
        assert coarse.repair["members_rebuilt"] > 0
        _assert_same(coarse, per_extent)

    def test_library_losing_every_drive(self, big_requests):
        # One large request; every drive of L1 dies at 245 s, early in
        # long multi-extent jobs, with no repair: the jobs abort, and the
        # abandoned job timeouts must drain where the per-extent path's
        # stage timeouts would, long before the jobs would have ended.
        workload = big_requests
        faults = tuple(DriveFailure(f"L1.D{i}", at_s=245.0) for i in range(DRIVES))
        healthy = _open_run(workload, None, arrivals=1)
        coarse = _open_run(workload, None, arrivals=1, faults=faults)
        per_extent = _open_run(workload, NEVER_BINDS_MB_S, arrivals=1, faults=faults)
        assert coarse.aborted_requests == 1
        assert coarse.horizon_s < healthy.horizon_s - 30.0
        _assert_same(coarse, per_extent)


def _span_multiset(result):
    """Spans keyed by content; a parent is named by its own content.

    Span ids are unique and deterministic on both paths, but the one-event
    path claims a job's seek/transfer ids when the job closes, so raw ids
    (and the parent ids that point at them) are not comparable.
    """
    spans = result.spans()
    ids = [s.span_id for s in spans]
    assert len(set(ids)) == len(ids)
    by_id = {s.span_id: s for s in spans}

    def content(span):
        return (span.name, span.start, span.end, span.request_id, sorted(span.attrs.items()))

    return collections.Counter(
        repr(content(s) + (content(by_id[s.parent_id]) if s.parent_id in by_id else s.parent_id,))
        for s in spans
    )


class TestTracedOracle:
    def test_spans_match_under_drive_faults(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        faults = (DriveFaultProcess(mtbf_s=600.0, mttr_s=120.0),)
        coarse = _open_run(workload, None, faults=faults, fault_seed=3)
        per_extent = _open_run(workload, NEVER_BINDS_MB_S, faults=faults, fault_seed=3)
        _assert_same(coarse, per_extent)
        aborted = [s for s in coarse.spans() if s.name in ("seek", "transfer") and s.aborted]
        assert aborted, "no fault landed mid-job"
        # The per-extent path also records disk_wait spans (never here: the
        # cap never binds) and a disk monitor; everything else is equal.
        assert not [s for s in per_extent.spans() if s.name == "disk_wait"]
        assert _span_multiset(coarse) == _span_multiset(per_extent)


class TestTieRule:
    """A failure at exactly a stage's end finds that stage unfinished."""

    DRIVE = "L1.D0"

    def _stages(self, workload):
        healthy = _open_run(workload, None, arrivals=1)
        spans = sorted(
            (s for s in healthy.spans()
             if s.name in ("seek", "transfer") and s.attrs["drive"] == self.DRIVE),
            key=lambda s: (s.start, s.name != "seek"),
        )
        assert len([s for s in spans if s.name == "transfer"]) >= 3
        return spans

    def _failed_at(self, workload, at_s):
        faults = (DriveFailure(self.DRIVE, at_s=at_s),)
        coarse = _open_run(workload, None, arrivals=1, faults=faults)
        per_extent = _open_run(workload, NEVER_BINDS_MB_S, arrivals=1, faults=faults)
        _assert_same(coarse, per_extent)
        assert _span_multiset(coarse) == _span_multiset(per_extent)
        return coarse

    def test_failure_at_extent_end_rereads_it(self, big_requests, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        first = next(s for s in self._stages(big_requests) if s.name == "transfer")
        result = self._failed_at(big_requests, first.end)
        obj = first.attrs["object"]
        reads = [s for s in result.spans() if s.name == "transfer" and s.attrs["object"] == obj]
        aborted = [s for s in reads if s.aborted]
        assert [(s.attrs["drive"], s.start, s.end) for s in aborted] == [
            (self.DRIVE, first.start, first.end)
        ]
        rescued = [s for s in reads if not s.aborted]
        assert len(rescued) == 1 and rescued[0].attrs["drive"] != self.DRIVE
        assert result.aborted_requests == 0

    def test_failure_at_seek_end_discards_the_seek(self, big_requests, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        seeks = [s for s in self._stages(big_requests) if s.name == "seek"]
        seek = seeks[1]
        result = self._failed_at(big_requests, seek.end)
        mine = [
            s for s in result.spans()
            if s.attrs.get("drive") == self.DRIVE and s.attrs.get("object") == seek.attrs["object"]
        ]
        assert [(s.name, s.start, s.end, s.aborted) for s in mine] == [
            ("seek", seek.start, seek.end, True)
        ]
