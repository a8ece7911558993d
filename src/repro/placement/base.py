"""Placement scheme API shared by the proposed scheme and both baselines.

A placement scheme consumes a :class:`~repro.workload.Workload` and a
:class:`~repro.hardware.SystemSpec` and produces a :class:`PlacementResult`:
the full on-tape layout of every object, which tapes are mounted at startup
(and on which drives), which drives are pinned ("always-mounted" batch), and
each tape's accumulated access probability (used by the least-popular
replacement policy).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Tuple

import numpy as np

from ..catalog import LocationIndex, ObjectCatalog
from ..hardware import DriveId, ObjectExtent, SystemSpec, TapeId, TapeSystem
from ..workload import Workload

__all__ = ["PlacementError", "PlacementResult", "PlacementScheme"]


class PlacementError(Exception):
    """Raised when a workload cannot be placed (e.g. capacity exhausted)."""


@dataclass
class PlacementResult:
    """The complete output of a placement scheme."""

    scheme: str
    #: On-tape layout: tape id -> extents in position order.
    layouts: Dict[TapeId, List[ObjectExtent]]
    #: Which tape each drive holds at startup.
    initial_mounts: Dict[DriveId, TapeId]
    #: Tapes that are never unmounted (batch 0 of parallel batch placement).
    pinned: FrozenSet[TapeId] = frozenset()
    #: Accumulated access probability per tape (replacement-policy input).
    tape_priority: Dict[TapeId, float] = field(default_factory=dict)
    #: Scheme-specific extras (batch maps, cluster stats, …) for diagnostics.
    metadata: dict = field(default_factory=dict)

    # -- derived ----------------------------------------------------------
    def objects_placed(self) -> int:
        return sum(len(extents) for extents in self.layouts.values())

    def tapes_used(self) -> int:
        return sum(1 for extents in self.layouts.values() if extents)

    def tape_of(self, object_id: int) -> TapeId:
        """The tape of a single-extent object; raises on ambiguity.

        Striped or redundant objects span several tapes — use
        :meth:`tapes_of` for the full tuple.
        """
        tapes = self.tapes_of(object_id)
        if len(tapes) > 1:
            raise ValueError(
                f"object {object_id} has {len(tapes)} extents (striped or "
                "replicated); use tapes_of()"
            )
        return tapes[0]

    def tapes_of(self, object_id: int) -> Tuple[TapeId, ...]:
        """Every tape holding an extent of the object, in (part, replica) order."""
        found: List[Tuple[Tuple[int, int], TapeId]] = []
        for tape_id, extents in self.layouts.items():
            for extent in extents:
                if extent.object_id == object_id:
                    found.append(((extent.part, extent.replica), tape_id))
        if not found:
            raise KeyError(f"object {object_id} not placed")
        found.sort(key=lambda pair: pair[0])
        return tuple(tape_id for _, tape_id in found)

    # -- validation ---------------------------------------------------------
    def validate(self, catalog: ObjectCatalog, spec: SystemSpec) -> None:
        """Check structural invariants; raise :class:`PlacementError` if broken.

        * every catalog object placed exactly once — whole, or as a complete,
          consistent set of stripe fragments whose sizes sum to the catalog
          size (:class:`~repro.redundancy.RedundantPlacementResult` replaces
          this accounting with redundancy-group rules);
        * extents within tape capacity and non-overlapping;
        * initial mounts reference existing tapes/drives, one tape per drive;
        * pinned tapes are all initially mounted.
        """
        fragments = self._check_geometry(spec)
        self._check_objects(fragments, catalog, spec)
        self._check_mounts(spec)

    def _check_geometry(self, spec: SystemSpec) -> Dict[int, List]:
        """Per-tape capacity/overlap checks; returns object -> extent entries."""
        fragments: Dict[int, List] = {}
        capacity = spec.library.tape.capacity_mb
        for tape_id, extents in self.layouts.items():
            if not (0 <= tape_id.library < spec.num_libraries):
                raise PlacementError(f"tape {tape_id} references unknown library")
            if not (0 <= tape_id.slot < spec.library.num_tapes):
                raise PlacementError(f"tape {tape_id} references unknown slot")
            prev_end = 0.0
            for extent in sorted(extents, key=lambda e: e.start_mb):
                if extent.start_mb < prev_end - 1e-9:
                    raise PlacementError(f"overlapping extents on {tape_id}")
                if extent.end_mb > capacity + 1e-6:
                    raise PlacementError(f"tape {tape_id} overflows its capacity")
                fragments.setdefault(extent.object_id, []).append((tape_id, extent))
                prev_end = extent.end_mb
        return fragments

    def _check_objects(
        self, fragments: Dict[int, List], catalog: ObjectCatalog, spec: SystemSpec
    ) -> None:
        """Exactly-once object accounting (the paper's non-redundant model)."""
        for object_id, entries in fragments.items():
            first = entries[0][1]
            if len(entries) == 1 and first.parts == 1:
                # One whole extent (``ObjectExtent`` holds part < parts):
                # every fragment check below passes, so only size is left.
                total = first.size_mb
            else:
                parts = first.parts
                if any(e.parts != parts for _, e in entries):
                    raise PlacementError(
                        f"object {object_id}: inconsistent fragment counts"
                    )
                if len(entries) != parts:
                    raise PlacementError(
                        f"object {object_id}: {len(entries)} of {parts} fragments placed"
                    )
                if sorted(e.part for _, e in entries) != list(range(parts)):
                    raise PlacementError(
                        f"object {object_id}: duplicate or missing fragment parts"
                    )
                total = sum(e.size_mb for _, e in entries)
            if abs(total - catalog.size_of(object_id)) > 1e-6:
                raise PlacementError(
                    f"object {object_id} placed with total size {total}, "
                    f"catalog says {catalog.size_of(object_id)}"
                )
        if len(fragments) != len(catalog):
            missing = len(catalog) - len(fragments)
            raise PlacementError(f"{missing} objects were not placed")

    def _check_mounts(self, spec: SystemSpec) -> None:
        """Initial-mount / pinned-tape consistency checks."""
        mounted_tapes = set()
        for drive_id, tape_id in self.initial_mounts.items():
            if not (0 <= drive_id.library < spec.num_libraries):
                raise PlacementError(f"drive {drive_id} references unknown library")
            if not (0 <= drive_id.index < spec.library.num_drives):
                raise PlacementError(f"drive {drive_id} references unknown index")
            if drive_id.library != tape_id.library:
                raise PlacementError(
                    f"drive {drive_id} cannot mount {tape_id} from another library"
                )
            if tape_id in mounted_tapes:
                raise PlacementError(f"tape {tape_id} mounted on two drives")
            mounted_tapes.add(tape_id)
        for tape_id in self.pinned:
            if tape_id not in mounted_tapes:
                raise PlacementError(f"pinned tape {tape_id} is not initially mounted")

    # -- application ----------------------------------------------------------
    def apply_to(self, system: TapeSystem) -> LocationIndex:
        """Write layouts into ``system``, mount startup tapes, pin drives.

        Returns the location index the simulator will query.
        """
        system.clear_layouts()
        for tape_id, extents in self.layouts.items():
            system.tape(tape_id).write_layout(extents)
        for drive_id, tape_id in self.initial_mounts.items():
            drive = system.library(drive_id.library).drive(drive_id.index)
            drive.mount(system.tape(tape_id))
            drive.pinned = tape_id in self.pinned
        return LocationIndex.from_system(system)


class PlacementScheme(abc.ABC):
    """Base class for placement algorithms."""

    #: Registry / display name, e.g. ``"parallel_batch"``.
    name: str = "abstract"

    @abc.abstractmethod
    def place(self, workload: Workload, spec: SystemSpec) -> PlacementResult:
        """Compute a placement of ``workload`` onto ``spec``'s tapes."""

    # -- helpers shared by all schemes ---------------------------------------
    @staticmethod
    def total_priority(extents: List[ObjectExtent], catalog: ObjectCatalog) -> float:
        return float(sum(catalog.probability_of(e.object_id) for e in extents))

    @staticmethod
    def default_initial_mounts(
        layouts: Mapping[TapeId, List[ObjectExtent]],
        tape_priority: Mapping[TapeId, float],
        spec: SystemSpec,
    ) -> Dict[DriveId, TapeId]:
        """Baseline startup policy: per library, mount its ``d`` highest-
        priority non-empty tapes (per [11], popular tapes stay mounted)."""
        mounts: Dict[DriveId, TapeId] = {}
        for lib in range(spec.num_libraries):
            candidates = [
                tid
                for tid, extents in layouts.items()
                if tid.library == lib and extents
            ]
            candidates.sort(key=lambda tid: (-tape_priority.get(tid, 0.0), tid.slot))
            for drive_index, tape_id in enumerate(candidates[: spec.library.num_drives]):
                mounts[DriveId(lib, drive_index)] = tape_id
        return mounts

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
