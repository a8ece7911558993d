"""Shared resources with queueing for the DES kernel.

:class:`Resource` models a pool of ``capacity`` identical servers with a FIFO
wait queue; :class:`PriorityResource` serves waiters in priority order.  The
tape-library simulator uses a capacity-1 resource per robot arm, so all
mount/unmount operations within one library serialize behind it while robots
of different libraries proceed independently.

Usage follows the context-manager idiom::

    def user(env, robot):
        with robot.request() as req:
            yield req            # wait until the robot is ours
            yield env.timeout(7.6)
        # released automatically
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, List, Optional, Tuple

from .events import Event
from .exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Resource", "PriorityResource", "RequestEvent", "ReleaseEvent"]


class RequestEvent(Event):
    """Event that triggers once the resource grants this request."""

    __slots__ = ("resource", "requested_at")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        #: Simulation time at which the request was issued (for wait stats).
        self.requested_at = resource.env.now
        resource._do_request(self)

    # Context-manager support: ``with resource.request() as req: yield req``
    def __enter__(self) -> "RequestEvent":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (if granted) or withdraw from the queue."""
        self.resource._do_cancel(self)


class PriorityRequestEvent(RequestEvent):
    """Request carrying a priority (lower value = served earlier)."""

    __slots__ = ("priority",)

    def __init__(self, resource: "PriorityResource", priority: float = 0.0) -> None:
        self.priority = priority
        super().__init__(resource)


class ReleaseEvent(Event):
    """Immediately-succeeding event produced by :meth:`Resource.release`."""

    __slots__ = ()

    def __init__(self, resource: "Resource", request: RequestEvent) -> None:
        super().__init__(resource.env)
        resource._do_cancel(request)
        self.succeed()


class Resource:
    """A pool of ``capacity`` slots with a FIFO queue.

    Setting :attr:`monitor` (see
    :class:`~repro.des.monitor.ResourceUsageMonitor`) records every
    grant/release with its simulation time — the open-system metrics layer
    uses this for per-resource utilization, and tests use it to assert
    concurrency invariants (e.g. a capacity-1 robot arm is never held
    twice).
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.users: List[RequestEvent] = []
        self.queue: List[RequestEvent] = []
        #: Optional occupancy observer (duck-typed: ``on_grant(now)`` /
        #: ``on_release(now)`` / ``on_enqueue(now)`` / ``on_dequeue(now)``);
        #: None keeps the hot path branch-cheap.
        self.monitor = None

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> RequestEvent:
        """Ask for a slot; the returned event triggers when granted."""
        return RequestEvent(self)

    def release(self, request: RequestEvent) -> ReleaseEvent:
        """Free the slot held by ``request``."""
        return ReleaseEvent(self, request)

    def try_acquire(self) -> Optional[RequestEvent]:
        """Take a free slot now, without a grant event; None if it must wait.

        Succeeds only when a slot is free and nobody is queued, exactly when
        :meth:`request` would grant at once; the monitor sees the same
        ``on_grant``.  The returned request is already processed (no event
        is scheduled, so the caller need not yield it) and releases like
        any other: ``with resource.try_acquire() as grant: ...``.
        """
        if len(self.users) >= self._capacity or self.queue:
            return None
        env = self.env
        request = RequestEvent.__new__(RequestEvent)
        request.env = env
        request.callbacks = None
        request._value = None
        request._ok = True
        request._defused = False
        request.resource = self
        request.requested_at = env._now
        self.users.append(request)
        if self.monitor is not None:
            self.monitor.on_grant(env._now)
        return request

    # -- internals ------------------------------------------------------
    def _do_request(self, request: RequestEvent) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            if self.monitor is not None:
                self.monitor.on_grant(self.env.now)
            request.succeed()
        else:
            self._enqueue(request)
            if self.monitor is not None:
                self.monitor.on_enqueue(self.env.now)

    def _enqueue(self, request: RequestEvent) -> None:
        self.queue.append(request)

    def _dequeue(self) -> Optional[RequestEvent]:
        return self.queue.pop(0) if self.queue else None

    def _remove_queued(self, request: RequestEvent) -> bool:
        try:
            self.queue.remove(request)
            return True
        except ValueError:
            return False

    def _do_cancel(self, request: RequestEvent) -> None:
        if request in self.users:
            self.users.remove(request)
            if self.monitor is not None:
                self.monitor.on_release(self.env.now)
            self._grant_next()
        else:
            if self._remove_queued(request) and self.monitor is not None:
                self.monitor.on_dequeue(self.env.now)

    def _grant_next(self) -> None:
        while len(self.users) < self._capacity:
            nxt = self._dequeue()
            if nxt is None:
                return
            if self.monitor is not None:
                self.monitor.on_dequeue(self.env.now)
            if nxt.triggered:  # withdrawn/cancelled while queued
                continue
            self.users.append(nxt)
            if self.monitor is not None:
                self.monitor.on_grant(self.env.now)
            nxt.succeed()


class PriorityResource(Resource):
    """Resource whose queue is served in (priority, FIFO) order."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._pqueue: List[Tuple[float, int, PriorityRequestEvent]] = []
        self._tiebreak = count()

    def request(self, priority: float = 0.0) -> PriorityRequestEvent:  # type: ignore[override]
        return PriorityRequestEvent(self, priority)

    @property
    def queue(self) -> List[RequestEvent]:  # type: ignore[override]
        return [entry[2] for entry in sorted(self._pqueue)]

    @queue.setter
    def queue(self, value: List[RequestEvent]) -> None:
        if value:
            raise SimulationError("PriorityResource queue cannot be assigned")
        self._pqueue = []

    def _enqueue(self, request: RequestEvent) -> None:
        assert isinstance(request, PriorityRequestEvent)
        heappush(self._pqueue, (request.priority, next(self._tiebreak), request))

    def _dequeue(self) -> Optional[RequestEvent]:
        while self._pqueue:
            _, _, request = heappop(self._pqueue)
            return request
        return None

    def _remove_queued(self, request: RequestEvent) -> bool:
        for i, (_, _, queued) in enumerate(self._pqueue):
            if queued is request:
                self._pqueue.pop(i)
                # Restore heap invariant after arbitrary removal.
                import heapq

                heapq.heapify(self._pqueue)
                return True
        return False
