"""One robotic tape library: drives, tape slots, and the robot arm."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .drive import DriveId, TapeDrive
from .robot import Robot
from .specs import LibrarySpec
from .tape import Tape, TapeId

__all__ = ["TapeLibrary"]


class TapeLibrary:
    """A library of ``num_tapes`` cartridges served by ``num_drives`` drives."""

    def __init__(self, library_id: int, spec: LibrarySpec) -> None:
        self.id = library_id
        self.spec = spec
        self.drives: List[TapeDrive] = [
            TapeDrive(DriveId(library_id, i), spec.drive, spec.tape)
            for i in range(spec.num_drives)
        ]
        self.tapes: Dict[TapeId, Tape] = {}
        for slot in range(spec.num_tapes):
            tape_id = TapeId(library_id, slot)
            self.tapes[tape_id] = Tape(tape_id, spec.tape)
        self.robot = Robot(library_id, spec)

    # -- queries ----------------------------------------------------------
    def tape(self, tape_id: TapeId) -> Tape:
        try:
            return self.tapes[tape_id]
        except KeyError:
            raise KeyError(f"tape {tape_id} is not in library {self.id}") from None

    def drive(self, index: int) -> TapeDrive:
        return self.drives[index]

    def mounted_tapes(self) -> Dict[TapeId, TapeDrive]:
        """Tape-id -> drive for every currently mounted tape."""
        return {d.mounted.id: d for d in self.drives if d.mounted is not None}

    def drive_holding(self, tape_id: TapeId) -> Optional[TapeDrive]:
        """The drive holding this library's tape ``tape_id`` now, or None."""
        tape = self.tapes.get(tape_id)
        holder = None if tape is None else tape.holder
        return None if holder is None else self.drives[holder.index]

    def empty_drives(self) -> List[TapeDrive]:
        return [d for d in self.drives if d.is_empty]

    def switchable_drives(self) -> List[TapeDrive]:
        """Drives eligible for tape switches (not pinned, not failed)."""
        return [d for d in self.drives if not d.pinned and not d.failed]

    def unmount_all(self) -> None:
        for drive in self.drives:
            if drive.mounted is not None:
                drive.unmount()
            drive.pinned = False
            drive.failed = False

    def __iter__(self) -> Iterator[Tape]:
        return iter(self.tapes.values())

    def __repr__(self) -> str:
        mounted = sum(1 for d in self.drives if d.mounted is not None)
        return (
            f"<TapeLibrary {self.id}: {len(self.drives)} drives "
            f"({mounted} mounted), {len(self.tapes)} tapes>"
        )
