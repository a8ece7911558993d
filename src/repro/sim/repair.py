"""Media-loss repair: re-replication that competes with user traffic.

When a cartridge dies (:class:`~repro.sim.faults.TapeFailure`, or a
:class:`~repro.sim.faults.TapeWearProcess` crossing a wear threshold),
the data on it is gone; durability then hinges on how fast the surviving
redundancy-group members can be re-replicated onto fresh media — with
the *same* drives that serve user restores.  TALICS³ (arXiv:2405.00003)
shows this repair loop, not the code rate, governs cloud-scale tape
durability; this module makes it a first-class simulated subsystem.

:class:`RepairManager` is catalog-driven: on a loss it walks the dead
cartridge's layout, confirms membership through
:meth:`~repro.catalog.LocationIndex.tapes_of`, classifies each affected
group *degraded* (``needed`` survivors remain — rebuildable) or *lost*
(below ``needed`` — the object is unrecoverable and counted), and
enqueues one rebuild per lost member.  A rebuild:

1. reads ``needed`` surviving members through the normal per-library
   dispatchers and drive workers (repair-flagged jobs, negative trace
   tokens so user span trees are untouched);
2. re-encodes via :mod:`repro.redundancy.coding` (verified end-to-end on
   a deterministic witness payload for erasure-coded groups);
3. writes the rebuilt member to a fresh least-used tape honoring the
   placement layer's anti-affinity (never a tape holding a sibling
   member; libraries are spread back up to the group's span), modeled
   read-symmetrically (position seek + transfer on the new extent);
4. re-indexes the member, closing the group's at-risk window.

Repair traffic is admitted under a pluggable priority policy
(:data:`REPAIR_POLICIES`):

``user-first``
    Repair jobs queue behind every waiting user job (lowest MTTDL
    impact on restores, longest at-risk windows).
``repair-first``
    Repair jobs preempt the queue order (shortest at-risk windows,
    restores eat the inflation).
``fair-share``
    A token bucket on drive-seconds: repair accrues ``share`` x live
    drives tokens per second and pays each job's estimated drive time,
    with a work-conserving override when no user job is waiting (idle
    drives always repair, and the environment can always drain).

All ``repair.*`` instruments (counters, the ``repair.groups_at_risk``
gauge, the backlog digest) are registered only when media faults are
actually configured, so fault-free and drive-fault-only runs keep their
registries — and the PR 8 parity goldens — bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..catalog.index import RedundancyGroup
from ..hardware.tape import ObjectExtent, Tape, TapeId
from ..redundancy.coding import decode_stripes, encode_stripes
from ..redundancy.dispatch import select_members

__all__ = ["RepairManager", "REPAIR_POLICIES"]

#: How rebuild traffic competes with user restores for drives.
REPAIR_POLICIES = ("user-first", "repair-first", "fair-share")

#: Fair-share token accrual: fraction of each live drive's time repair
#: may claim while user work is waiting.
FAIR_SHARE = 0.5

#: Fair-share bucket cap (drive-seconds): bounds the repair burst after
#: a long user-only stretch.
FAIR_BURST_S = 1800.0


@dataclass
class _RepairTask:
    """One lost member to rebuild (identified by its group coordinates)."""

    object_id: int
    part: int
    parts: int
    replica: int
    replicas: int
    needed: int
    size_mb: float
    detected_at: float

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.object_id, self.part, self.replica)


class RepairManager:
    """Detects media losses and re-replicates through the dispatchers.

    Constructed by :class:`~repro.sim.opensystem.OpenSystem` when (and
    only when) the armed fault specs include media faults; the fault
    injector calls :meth:`on_tape_lost` after purging the dead tape's
    queued jobs.
    """

    def __init__(self, opensys, policy: str = "user-first",
                 fair_share: float = FAIR_SHARE,
                 fair_burst_s: float = FAIR_BURST_S) -> None:
        if policy not in REPAIR_POLICIES:
            raise ValueError(
                f"unknown repair policy {policy!r}; known: "
                + ", ".join(REPAIR_POLICIES)
            )
        self.os = opensys
        self.env = opensys.env
        self.trace = opensys.trace
        self.policy = policy
        registry = opensys.registry
        self._jobs = registry.counter("repair.jobs", unit="jobs")
        self._rebuilt = registry.counter("repair.members_rebuilt", unit="members")
        self._degraded = registry.counter("repair.groups_degraded", unit="groups")
        self._lost_c = registry.counter("repair.groups_lost", unit="groups")
        self._objects_lost_c = registry.counter("repair.objects_lost", unit="objects")
        self._failed = registry.counter("repair.failed", unit="jobs")
        self._at_risk_gauge = registry.gauge("repair.groups_at_risk", unit="groups")
        self._backlog_digest = registry.digest("repair.backlog_s", unit="s")

        #: Degraded groups with a rebuild outstanding.
        self._at_risk = 0
        #: (object, part) groups below ``needed`` survivors — unrecoverable.
        self._lost_groups: Set[Tuple[int, int]] = set()
        self._lost_objects: Set[int] = set()
        #: Rebuild key -> detection time of still-open repairs (open
        #: backlog is charged up to the horizon in :meth:`summary`).
        self._open: Dict[Tuple[int, int, int], float] = {}
        self._closed_backlog_s = 0.0
        #: object id -> write targets of in-flight rebuilds (anti-affinity
        #: against concurrent repairs of the same object's other members).
        self._inflight_targets: Dict[int, Set[TapeId]] = {}
        #: Negative trace tokens: repair span trees never collide with the
        #: user arrival sequence.
        self._seq = 0

        for dispatcher in opensys.policy.dispatchers.values():
            dispatcher.configure_repair(policy, fair_share, fair_burst_s)

    # -- loss detection ---------------------------------------------------
    def on_tape_lost(self, tape_id: TapeId) -> None:
        """Classify every group on the dead cartridge; enqueue rebuilds.

        Catalog-driven: only members the location index still maps to the
        tape (via :meth:`~repro.catalog.LocationIndex.tapes_of`) count —
        a member already rebuilt elsewhere is not a loss.
        """
        index = self.os.index
        system = self.os.system
        tape = system.tape(tape_id)
        now = self.env.now
        for extent in tape.extents:
            object_id = extent.object_id
            if object_id not in index or tape_id not in index.tapes_of(object_id):
                continue
            entries = index.locate_all(object_id)
            member = next(
                (e for t, e in entries if t == tape_id), None
            )
            if member is None:
                continue
            survivors = [
                (t, e)
                for t, e in entries
                if e.part == member.part
                and not (t == tape_id and e.replica == member.replica)
                and not system.tape(t).lost
            ]
            if len(survivors) < member.needed:
                self._mark_group_lost(object_id, member.part)
                continue
            # Degraded but rebuildable: drop the dead member from the
            # catalog (degraded reads stop routing to it) and rebuild.
            index.remove_member(object_id, tape_id, member.part, member.replica)
            self._degraded.inc()
            self._at_risk += 1
            self._at_risk_gauge.set(self._at_risk, now)
            task = _RepairTask(
                object_id=object_id,
                part=member.part,
                parts=member.parts,
                replica=member.replica,
                replicas=member.replicas,
                needed=member.needed,
                size_mb=member.size_mb,
                detected_at=now,
            )
            self._jobs.inc()
            self._open[task.key] = now
            self.env.process(self._rebuild(task))

    def _mark_group_lost(self, object_id: int, part: int) -> None:
        key = (object_id, part)
        if key in self._lost_groups:
            return
        self._lost_groups.add(key)
        self._lost_c.inc()
        if object_id not in self._lost_objects:
            self._lost_objects.add(object_id)
            self._objects_lost_c.inc()

    # -- the rebuild process ----------------------------------------------
    def _rebuild(self, task: _RepairTask):
        os = self.os
        env = self.env
        policy = os.policy
        self._seq += 1
        token = -self._seq
        with self.trace.span(
            env, "repair_rebuild", request=token, object=task.object_id,
            part=task.part, replica=task.replica, policy=self.policy,
        ) as ctx:
            records: Dict[str, object] = {}
            excluded: Set[TapeId] = set()
            read_replicas: Optional[List[int]] = None

            # Phase 1: read ``needed`` surviving members through the
            # normal dispatchers; aborted tapes are excluded and the read
            # re-dispatches, exactly like a user degraded read.
            while True:
                survivors = self._surviving_members(task, excluded)
                if len(survivors) < task.needed:
                    if len(self._surviving_members(task, set())) < task.needed:
                        # Another loss beat us to it: the group is gone.
                        self._mark_group_lost(task.object_id, task.part)
                        self._finish(task, rebuilt=False)
                    else:
                        # Survivors exist but none are reachable (every
                        # holding library dead with no committed repair).
                        self._failed.inc()
                        # The group stays degraded and at risk; its open
                        # backlog keeps accruing to the horizon.
                    return
                group = RedundancyGroup(
                    object_id=task.object_id,
                    part=task.part,
                    needed=task.needed,
                    members=tuple(
                        sorted(survivors, key=lambda te: te[1].replica)
                    ),
                )
                cost_of = (
                    policy._member_cost
                    if os.read_selection == "cheapest"
                    else None
                )
                chosen = select_members(
                    group, set(), policy._dispatcher_live,
                    policy._dispatcher_load, cost_of=cost_of,
                )
                if chosen is None:
                    self._failed.inc()
                    return
                tape_extents: Dict[TapeId, List[ObjectExtent]] = {}
                for tape_id, extent in chosen:
                    tape_extents.setdefault(tape_id, []).append(extent)
                djobs, landed = policy._submit_tape_jobs(
                    policy._tape_rows(tape_extents), token, ctx.id, records,
                    repair=True,
                )
                yield landed
                aborted = [dj for dj in djobs if dj.aborted]
                if aborted:
                    excluded.update(dj.job.tape_id for dj in aborted)
                    continue
                read_replicas = [extent.replica for _, extent in chosen]
                break

            # Phase 2: re-encode.  For erasure-coded groups, prove the
            # coding layer round-trips on a deterministic witness payload
            # (the simulator carries no real bytes, so this is the
            # end-to-end integrity check of the rebuild math).
            self._verify_rebuild(task, read_replicas)

            # Phase 3: write the rebuilt member to a fresh tape.
            tried: Set[TapeId] = set()
            while True:
                target = self._choose_target(task, tried)
                if target is None:
                    self._failed.inc()
                    return
                extent = ObjectExtent(
                    object_id=task.object_id,
                    start_mb=target.used_mb,
                    size_mb=task.size_mb,
                    part=task.part,
                    parts=task.parts,
                    replica=task.replica,
                    replicas=task.replicas,
                    needed=task.needed,
                )
                target.append_extent(extent)
                inflight = self._inflight_targets.setdefault(
                    task.object_id, set()
                )
                inflight.add(target.id)
                djobs, landed = policy._submit_tape_jobs(
                    policy._tape_rows({target.id: [extent]}), token, ctx.id,
                    records, repair=True,
                )
                yield landed
                inflight.discard(target.id)
                if not inflight:
                    self._inflight_targets.pop(task.object_id, None)
                if any(dj.aborted for dj in djobs):
                    # Torn write: the half-written region is abandoned on
                    # the tape (never indexed) and the rebuild retries on
                    # fresh media.
                    tried.add(target.id)
                    continue
                os.index.add(task.object_id, target.id, extent)
                self._rebuilt.inc()
                self._finish(task, rebuilt=True)
                return

    def _finish(self, task: _RepairTask, rebuilt: bool) -> None:
        now = self.env.now
        detected = self._open.pop(task.key, task.detected_at)
        backlog = now - detected
        self._closed_backlog_s += backlog
        if rebuilt:
            self._backlog_digest.record(backlog)
        self._at_risk -= 1
        self._at_risk_gauge.set(self._at_risk, now)

    def _surviving_members(
        self, task: _RepairTask, excluded: Set[TapeId]
    ) -> List[Tuple[TapeId, ObjectExtent]]:
        index = self.os.index
        system = self.os.system
        if task.object_id not in index:
            return []
        return [
            (t, e)
            for t, e in index.locate_all(task.object_id)
            if e.part == task.part
            and t not in excluded
            and not system.tape(t).lost
        ]

    def _verify_rebuild(
        self, task: _RepairTask, read_replicas: Optional[List[int]]
    ) -> None:
        if task.needed <= 1:
            return  # replication: the surviving copy is bit-identical
        k, n = task.needed, task.replicas
        witness = task.object_id.to_bytes(8, "little", signed=True) * k
        stripes = encode_stripes(witness, k, n)
        subset = {i: stripes[i] for i in (read_replicas or [])}
        decoded = decode_stripes(subset, k, n, len(witness))
        if decoded != witness:
            raise RuntimeError(
                f"repair decode mismatch for object {task.object_id} "
                f"part {task.part} from replicas {sorted(subset)}"
            )
        if encode_stripes(decoded, k, n)[task.replica] != stripes[task.replica]:
            raise RuntimeError(
                f"repair re-encode mismatch for object {task.object_id} "
                f"part {task.part} replica {task.replica}"
            )

    def _choose_target(
        self, task: _RepairTask, tried: Set[TapeId]
    ) -> Optional[Tape]:
        """A fresh tape for the rebuilt member, honoring anti-affinity.

        Never a lost tape, a tape holding (or receiving, for concurrent
        rebuilds) any member of the object, or one we already tore a
        write on; the library spread is restored up to the group's span
        first; ties break least-used (used MB, then tape id) — the same
        order the placement layer's cursors use.
        """
        os = self.os
        index = self.os.index
        system = self.os.system
        siblings: Set[TapeId] = set()
        part_libs: Set[int] = set()
        if task.object_id in index:
            for t, e in index.locate_all(task.object_id):
                siblings.add(t)
                if e.part == task.part:
                    part_libs.add(t.library)
        siblings |= self._inflight_targets.get(task.object_id, set())
        span = min(task.replicas, len(system.libraries))
        need_spread = len(part_libs) < span
        injector = os.injector
        candidates: List[Tape] = []
        for tape in system.all_tapes():
            if tape.lost or tape.id in siblings or tape.id in tried:
                continue
            if tape.free_mb + 1e-6 < task.size_mb:
                continue
            dispatcher = os.policy.dispatchers[tape.id.library]
            if not dispatcher.workers and not (
                injector is not None
                and injector.will_recover(dispatcher.library)
            ):
                continue
            candidates.append(tape)
        if not candidates:
            return None

        def order(tape: Tape):
            down = 0 if os.policy.dispatchers[tape.id.library].workers else 1
            fresh = (
                1 if need_spread and tape.id.library in part_libs else 0
            )
            return (down, fresh, tape.used_mb, tape.id)

        return min(candidates, key=order)

    # -- reporting ---------------------------------------------------------
    def summary(self, now: float) -> Dict[str, float]:
        """Durability/backlog books for one finished run.

        ``backlog_s`` charges still-open repairs up to the horizon;
        ``objects_total`` is the catalog size, the denominator of the
        result's ``durability``.
        """
        open_backlog = sum(now - t for t in self._open.values())
        return {
            "policy": self.policy,
            "rebuild_jobs": self._jobs.value,
            "members_rebuilt": self._rebuilt.value,
            "groups_degraded": self._degraded.value,
            "groups_lost": self._lost_c.value,
            "groups_at_risk": float(self._at_risk),
            "objects_lost": self._objects_lost_c.value,
            "objects_total": float(len(self.os.index)),
            "repairs_failed": self._failed.value,
            "backlog_s": self._closed_backlog_s + open_backlog,
        }
