"""A cartridge sits in at most one drive, and its ``holder`` says which.

``TapeDrive.mount``/``unmount`` keep ``Tape.holder``, the id of the drive
holding the cartridge, and ``TapeLibrary.drive_holding`` reads it instead
of scanning the drives.  After every kind of state change the simulator
makes, the back-reference must agree with the drives' ``mounted`` fields,
and the lookup with the scan it replaced.
"""

import pytest

from repro.hardware import DriveSpec, LibrarySpec, SystemSpec, TapeSpec
from repro.placement import ParallelBatchPlacement
from repro.sim import DriveFailure, SimulationSession
from repro.workload import generate_workload


def _scan(library, tape_id):
    for drive in library.drives:
        if drive.mounted is not None and drive.mounted.id == tape_id:
            return drive
    return None


def _assert_consistent(system):
    held = {}
    for library in system.libraries:
        for drive in library.drives:
            if drive.mounted is not None:
                assert drive.mounted.holder is drive.id
                assert drive.mounted.id not in held, "cartridge in two drives"
                held[drive.mounted.id] = drive
    for library in system.libraries:
        for tape in library:
            holder = held.get(tape.id)
            assert tape.holder is (None if holder is None else holder.id)
        # Every tape id of the system, this library's and the others'.
        for other in system.libraries:
            for tape_id in other.tapes:
                assert library.drive_holding(tape_id) is _scan(library, tape_id)


def _spec():
    return SystemSpec(
        num_libraries=2,
        library=LibrarySpec(
            num_drives=3,
            num_tapes=8,
            cell_to_drive_s=2.0,
            drive=DriveSpec(transfer_rate_mb_s=10.0, load_s=5.0, unload_s=5.0),
            tape=TapeSpec(capacity_mb=20_000.0, max_rewind_s=10.0),
        ),
    )


@pytest.fixture
def session():
    workload = generate_workload(
        num_objects=150,
        num_requests=12,
        request_size_bounds=(3, 8),
        object_size_bounds_mb=(10.0, 300.0),
        mean_object_size_mb=90.0,
        seed=8,
    )
    return SimulationSession(workload, _spec(), scheme=ParallelBatchPlacement(m=2))


class TestHolder:
    def test_mount_and_unmount(self, session):
        library = session.system.libraries[0]
        drive = next(d for d in library.drives if d.mounted is None)
        tape = next(t for t in library if t.holder is None)
        drive.mount(tape)
        assert tape.holder is drive.id
        _assert_consistent(session.system)
        assert drive.unmount() is tape
        assert tape.holder is None
        _assert_consistent(session.system)

    def test_a_held_cartridge_cannot_be_mounted_twice(self, session):
        library = session.system.libraries[0]
        pinned = next(d for d in library.drives if d.mounted is not None)
        empty = next(d for d in library.drives if d.mounted is None)
        with pytest.raises(RuntimeError, match="already in drive"):
            empty.mount(pinned.mounted)
        assert empty.mounted is None
        _assert_consistent(session.system)

    def test_unmount_all_and_reset_runtime_state(self, session):
        _assert_consistent(session.system)  # the placement's initial mounts
        session.system.libraries[1].unmount_all()
        _assert_consistent(session.system)
        session.system.reset_runtime_state()
        assert all(t.holder is None for t in session.system.all_tapes())
        _assert_consistent(session.system)
        session.reset()
        _assert_consistent(session.system)

    def test_failed_drive_releases_its_cartridge(self, session):
        pinned = next(d for d in session.system.libraries[0].drives if d.pinned)
        tape = pinned.mounted
        session.fail_drives([str(pinned.id)])
        assert tape.holder is None
        _assert_consistent(session.system)

    def test_open_system_with_failure_and_pinned_restore(self, session):
        # A pinned drive dies mid-run and is repaired: its worker pulls the
        # cartridge, switch drives serve it degraded, and the restore process
        # reclaims it from whichever idle drive parked it.
        pinned = next(d for d in session.system.libraries[0].drives if d.pinned)
        home = session.placement.initial_mounts[pinned.id]
        opensys = session.open(
            faults=(DriveFailure(str(pinned.id), at_s=60.0, repair_after_s=300.0),),
        )
        checked = []

        def check(opensys, outcome):
            _assert_consistent(session.system)
            checked.append(pinned.mounted is not None and pinned.mounted.id == home)

        opensys.on_complete = check
        result = opensys.run(60.0, num_arrivals=30, seed=2)
        assert result.faults["drive_failures"] == 1
        assert len(checked) == 30 and not all(checked)
        _assert_consistent(session.system)
        assert pinned.mounted is not None and pinned.mounted.id == home
