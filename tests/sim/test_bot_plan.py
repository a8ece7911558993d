"""The beginning-of-tape plan a priced job carries to its serve.

``estimate_job_time`` records the plan it made from head 0 on the job;
``_serve_job`` serves in that order instead of planning again, but only
while the plan still describes the serve: head at 0, the very planner and
``TapeSpec`` it was made with, and an untouched job.  Every other serve
plans afresh.
"""

import dataclasses

import pytest

from repro.des import Environment, Trace
from repro.hardware import LibrarySpec, ObjectExtent, SystemSpec, TapeId, TapeSystem
from repro.sim.engine import _serve_job
from repro.sim.metrics import DriveServiceRecord
from repro.sim.scheduling import TapeJob, estimate_job_time
from repro.sim.seekplanner import GreedySweepPlanner, available_seek_planners, make_seek_planner


class CountingPlanner(GreedySweepPlanner):
    def __init__(self):
        self.calls = []

    def plan(self, extents, head_mb, spec):
        self.calls.append((tuple(extents), head_mb, spec))
        return super().plan(extents, head_mb, spec)


@pytest.fixture
def library():
    return TapeSystem(
        SystemSpec(num_libraries=1, library=LibrarySpec(num_drives=2, num_tapes=4))
    ).library(0)


TAPE = TapeId(0, 0)


def _job():
    return TapeJob(
        TAPE,
        [
            ObjectExtent(1, 1_000.0, 50.0),
            ObjectExtent(2, 90_000.0, 20.0),
            ObjectExtent(3, 250_000.0, 80.0),
        ],
    )


def _serve(library, job, planner, head_mb=0.0):
    """Serve ``job`` on drive 0 with the head at ``head_mb``; returns the record."""
    drive = library.drives[0]
    if drive.mounted is None:
        drive.mount(library.tape(TAPE))
    drive.mounted.head_mb = head_mb
    env = Environment()
    record = DriveServiceRecord(str(drive.id))
    env.process(_serve_job(env, drive, job, record, Trace(enabled=False), planner=planner))
    env.run()
    return record


def test_untouched_job_at_bot_reuses_the_recorded_plan(library):
    planner = CountingPlanner()
    job = _job()
    estimate_job_time(job, library, planner=planner)
    _, spec, order = job.bot_plan
    assert spec is library.spec.tape
    assert len(planner.calls) == 1
    record = _serve(library, job, planner)
    assert len(planner.calls) == 1
    assert job.extents is order
    assert job.is_done
    assert record.bytes_mb == 150.0


def test_head_off_bot_replans(library):
    planner = CountingPlanner()
    job = _job()
    estimate_job_time(job, library, planner=planner)
    _serve(library, job, planner, head_mb=200_000.0)
    assert len(planner.calls) == 2
    assert planner.calls[1][1] == 200_000.0


def test_drive_with_another_tape_spec_replans(library):
    planner = CountingPlanner()
    job = _job()
    estimate_job_time(job, library, planner=planner)
    drive = library.drives[0]
    drive.tape_spec = dataclasses.replace(library.spec.tape)  # equal, not the same
    _serve(library, job, planner)
    assert len(planner.calls) == 2
    assert planner.calls[1][2] is drive.tape_spec


def test_another_planner_replans(library):
    pricing, serving = CountingPlanner(), CountingPlanner()
    job = _job()
    estimate_job_time(job, library, planner=pricing)
    _serve(library, job, serving)
    assert len(serving.calls) == 1


def test_split_remainder_replans(library):
    planner = CountingPlanner()
    job = _job()
    estimate_job_time(job, library, planner=planner)
    job.advance()
    remainder = job.split_remaining()
    assert remainder.bot_plan is None
    _serve(library, remainder, planner)
    assert len(planner.calls) == 2
    assert len(planner.calls[1][0]) == 2


def test_touched_job_replans(library):
    planner = CountingPlanner()
    job = _job()
    estimate_job_time(job, library, planner=planner)
    job.advance()
    _serve(library, job, planner)
    assert len(planner.calls) == 2


def test_reused_plan_serves_bit_identically(library):
    """A served-from-the-recorded-plan job equals one planned at serve time."""
    planner = make_seek_planner("greedy-sweep")
    priced = _job()
    estimate_job_time(priced, library, planner=planner)
    reused = _serve(library, priced, planner)
    library.drives[0].unmount()
    fresh = _serve(library, _job(), planner)
    assert dataclasses.asdict(reused) == dataclasses.asdict(fresh)


@pytest.mark.parametrize("name", available_seek_planners())
@pytest.mark.parametrize("head_mb", [0.0, 120_000.0])
def test_estimate_is_unchanged_and_records_only_at_bot(library, name, head_mb):
    planner = make_seek_planner(name)
    job = _job()
    _, seek = planner.plan(job.extents, head_mb, library.spec.tape)
    expected = seek + library.spec.drive.transfer_time(job.bytes_mb)
    assert estimate_job_time(job, library, head_mb=head_mb, planner=planner) == expected
    if head_mb == 0.0:
        recorded_planner, spec, order = job.bot_plan
        assert recorded_planner is planner and spec is library.spec.tape
        assert order == planner.plan(job.extents, 0.0, spec)[0]
    else:
        assert job.bot_plan is None


def test_estimate_records_the_holding_drives_spec(library):
    drive = library.drives[1]
    drive.tape_spec = dataclasses.replace(library.spec.tape, max_rewind_s=40.0)
    drive.mount(library.tape(TAPE))
    job = _job()
    estimate_job_time(job, library)
    assert job.bot_plan[1] is drive.tape_spec


@pytest.mark.parametrize("head_mb", [0.0, 1_000.0, 120_000.0])
def test_inline_serve_matches_read_extent(head_mb):
    """The no-cap serve times each extent exactly as ``read_extent`` does.

    The affine locate model (a non-zero startup) and a head sitting on the
    first extent's start (a free seek) are both in play.
    """
    spec = SystemSpec(
        num_libraries=1,
        library=LibrarySpec(
            num_drives=1, num_tapes=2,
            tape=dataclasses.replace(LibrarySpec().tape, locate_startup_s=1.5),
        ),
    )
    library = TapeSystem(spec).library(0)
    drive = library.drives[0]
    drive.mount(library.tape(TAPE))
    drive.mounted.head_mb = head_mb
    job = _job()
    env = Environment()
    record = DriveServiceRecord(str(drive.id))
    planner = make_seek_planner("greedy-sweep")
    env.process(_serve_job(env, drive, job, record, Trace(enabled=False), planner=planner))
    env.run()
    assert drive.mounted.head_mb == job.extents[-1].end_mb
    drive.mounted.head_mb = head_mb
    seek_s = transfer_s = end_s = 0.0
    for extent in job.extents:
        seek, transfer = drive.read_extent(extent)
        seek_s += seek
        transfer_s += transfer
        if seek > 0:
            end_s += seek
        end_s += transfer
    assert (record.seek_s, record.transfer_s) == (seek_s, transfer_s)
    assert env.now == end_s
