"""Tape drive model: mount state plus the timing math of Sec. 6.

The drive performs: load/thread, head positioning (linear model), streaming
transfer, rewind, unload.  It holds no DES processes itself — the simulation
engine (:mod:`repro.sim.engine`) sequences these primitives; keeping the
timing math here lets the analytic engine and property tests reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Optional

from .specs import DriveSpec, TapeSpec
from .tape import ObjectExtent, Tape

__all__ = ["DriveId", "TapeDrive"]


@dataclass(frozen=True, order=True)
class DriveId:
    """Globally unique drive address: (library index, drive index).

    The rendered form is cached at construction: drive names label every
    span and service record, so ``str(drive.id)`` runs tens of thousands of
    times per simulation.
    """

    library: int
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_str", f"L{self.library}.D{self.index}")

    def __str__(self) -> str:
        return self._str  # type: ignore[attr-defined]


#: Monotonic mount counter shared by all drives: lets replacement policies
#: order mounted tapes by mount recency without wall-clock timestamps.
_MOUNT_SERIAL = count()


class TapeDrive:
    """One tape drive: mounted-tape state + deterministic timing helpers."""

    def __init__(self, drive_id: DriveId, spec: DriveSpec, tape_spec: TapeSpec) -> None:
        self.id = drive_id
        self.spec = spec
        self.tape_spec = tape_spec
        self.mounted: Optional[Tape] = None
        #: Pinned drives hold "always-mounted" batch-0 tapes (parallel batch
        #: placement); the engine never selects them for switches.
        self.pinned: bool = False
        #: Serial number of the most recent mount (-1 = never mounted).
        self.mount_serial: int = -1
        #: Set by the engine when an injected failure kills the drive; a
        #: failed drive takes no further work until the state is reset.
        self.failed: bool = False

    # -- state transitions -------------------------------------------------
    def mount(self, tape: Tape) -> None:
        """Insert ``tape``; the head starts at the beginning of tape."""
        if self.mounted is not None:
            raise RuntimeError(f"drive {self.id} already holds {self.mounted.id}")
        if tape.holder is not None:
            raise RuntimeError(f"tape {tape.id} is already in drive {tape.holder}")
        self.mounted = tape
        tape.holder = self.id
        self.mount_serial = next(_MOUNT_SERIAL)
        tape.head_mb = 0.0

    def unmount(self) -> Tape:
        """Remove the (rewound) tape."""
        if self.mounted is None:
            raise RuntimeError(f"drive {self.id} is empty")
        tape, self.mounted = self.mounted, None
        tape.holder = None
        tape.head_mb = 0.0
        return tape

    @property
    def is_empty(self) -> bool:
        return self.mounted is None

    # -- timing helpers -----------------------------------------------------
    def seek_time_to(self, extent: ObjectExtent) -> float:
        """Locate time from the current head position to an extent's start."""
        tape = self._require_tape()
        return self.tape_spec.locate_time(tape.head_mb, extent.start_mb)

    def read_extent(self, extent: ObjectExtent) -> tuple[float, float]:
        """Seek to and stream one extent; advances the head.

        Returns ``(seek_seconds, transfer_seconds)``.
        """
        tape = self._require_tape()
        seek = self.tape_spec.locate_time(tape.head_mb, extent.start_mb)
        transfer = self.spec.transfer_time(extent.size_mb)
        tape.head_mb = extent.end_mb
        return seek, transfer

    def rewind_time(self) -> float:
        """Rewind from the current head position to the beginning of tape."""
        tape = self._require_tape()
        return self.tape_spec.locate_time(tape.head_mb, 0.0)

    @property
    def load_time(self) -> float:
        return self.spec.load_s

    @property
    def unload_time(self) -> float:
        return self.spec.unload_s

    def transfer_time(self, size_mb: float) -> float:
        return self.spec.transfer_time(size_mb)

    def _require_tape(self) -> Tape:
        if self.mounted is None:
            raise RuntimeError(f"drive {self.id} has no tape mounted")
        return self.mounted

    def __repr__(self) -> str:
        held = str(self.mounted.id) if self.mounted else "empty"
        flag = " pinned" if self.pinned else ""
        return f"<TapeDrive {self.id} [{held}]{flag}>"
