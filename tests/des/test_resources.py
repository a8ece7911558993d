"""Tests for Resource / PriorityResource queueing semantics."""

import pytest

from repro.des import Environment, PriorityResource, Resource


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, 0)

    def test_grant_when_free(self, env):
        res = Resource(env, 1)
        log = []

        def user():
            with res.request() as req:
                yield req
                log.append(env.now)
                yield env.timeout(1)

        env.process(user())
        env.run()
        assert log == [0]
        assert res.count == 0

    def test_fifo_queueing_serializes_users(self, env):
        res = Resource(env, 1)
        log = []

        def user(name, hold):
            with res.request() as req:
                yield req
                log.append((name, env.now))
                yield env.timeout(hold)

        env.process(user("a", 3))
        env.process(user("b", 2))
        env.process(user("c", 1))
        env.run()
        assert log == [("a", 0), ("b", 3), ("c", 5)]

    def test_capacity_two_allows_two_concurrent(self, env):
        res = Resource(env, 2)
        log = []

        def user(name):
            with res.request() as req:
                yield req
                log.append((name, env.now))
                yield env.timeout(4)

        for name in "abc":
            env.process(user(name))
        env.run()
        assert log == [("a", 0), ("b", 0), ("c", 4)]

    def test_count_and_queue_lengths(self, env):
        res = Resource(env, 1)

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def observer():
            yield env.timeout(1)
            assert res.count == 1
            assert len(res.queue) == 1

        env.process(holder())
        env.process(holder())
        env.process(observer())
        env.run()

    def test_explicit_release(self, env):
        res = Resource(env, 1)
        log = []

        def user(name):
            req = res.request()
            yield req
            log.append((name, env.now))
            yield env.timeout(2)
            res.release(req)

        env.process(user("a"))
        env.process(user("b"))
        env.run()
        assert log == [("a", 0), ("b", 2)]

    def test_cancelled_queued_request_is_skipped(self, env):
        res = Resource(env, 1)
        log = []

        def holder():
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def quitter():
            req = res.request()  # queued behind holder
            yield env.timeout(1)
            req.cancel()

        def patient():
            with res.request() as req:
                yield req
                log.append(env.now)

        env.process(holder())
        env.process(quitter())
        env.process(patient())
        env.run()
        assert log == [5]

    def test_requested_at_recorded(self, env):
        res = Resource(env, 1)
        waits = []

        def user(delay):
            yield env.timeout(delay)
            with res.request() as req:
                yield req
                waits.append(env.now - req.requested_at)
                yield env.timeout(10)

        env.process(user(0))
        env.process(user(1))
        env.run()
        assert waits == [0, 9]


class TestPriorityResource:
    def test_lower_priority_value_served_first(self, env):
        res = PriorityResource(env, 1)
        log = []

        def user(name, priority):
            with res.request(priority=priority) as req:
                yield req
                log.append(name)
                yield env.timeout(1)

        def holder():
            with res.request(priority=0) as req:
                yield req
                yield env.timeout(1)  # others queue while we hold

        env.process(holder())

        def spawn():
            yield env.timeout(0)
            env.process(user("low", 5))
            env.process(user("high", 1))
            env.process(user("mid", 3))

        env.process(spawn())
        env.run()
        assert log == ["high", "mid", "low"]

    def test_equal_priority_is_fifo(self, env):
        res = PriorityResource(env, 1)
        log = []

        def user(name):
            with res.request(priority=1) as req:
                yield req
                log.append(name)
                yield env.timeout(1)

        def holder():
            with res.request(priority=0) as req:
                yield req
                yield env.timeout(1)

        env.process(holder())

        def spawn():
            yield env.timeout(0)
            for name in "abc":
                env.process(user(name))

        env.process(spawn())
        env.run()
        assert log == ["a", "b", "c"]

    def test_cancel_queued_priority_request(self, env):
        res = PriorityResource(env, 1)
        log = []

        def holder():
            with res.request(priority=0) as req:
                yield req
                yield env.timeout(5)

        def quitter():
            req = res.request(priority=1)
            yield env.timeout(1)
            req.cancel()

        def patient():
            with res.request(priority=2) as req:
                yield req
                log.append(env.now)

        env.process(holder())
        env.process(quitter())
        env.process(patient())
        env.run()
        assert log == [5]


class TestTryAcquire:
    """``try_acquire`` is ``request`` minus the grant event, or nothing."""

    def test_grants_a_free_slot_without_an_event(self, env):
        res = Resource(env, 1)
        grant = res.try_acquire()
        assert grant is not None
        assert grant.triggered and grant.processed and grant.ok
        assert grant.requested_at == 0.0
        assert res.users == [grant]
        assert len(env) == 0  # nothing scheduled

    def test_none_when_full(self, env):
        res = Resource(env, 1)
        held = res.try_acquire()
        assert held is not None
        assert res.try_acquire() is None
        assert res.users == [held] and res.queue == []

    def test_none_while_anyone_is_queued(self, env):
        res = Resource(env, 1)
        holder = res.try_acquire()
        queued = res.request()
        assert res.queue == [queued]
        assert res.try_acquire() is None
        holder.cancel()  # the queued request takes the slot at once
        assert res.users == [queued] and res.queue == []
        assert res.try_acquire() is None
        queued.cancel()
        assert res.try_acquire() is not None

    def test_capacity_above_one(self, env):
        res = Resource(env, 3)
        grants = [res.try_acquire() for _ in range(3)]
        assert all(g is not None for g in grants)
        assert res.count == 3
        assert res.try_acquire() is None
        grants[1].cancel()
        again = res.try_acquire()
        assert again is not None and res.count == 3

    def test_release_hands_the_slot_to_the_fifo_head(self, env):
        res = Resource(env, 1)
        log = []

        def holder():
            with res.try_acquire():
                yield env.timeout(2)

        def waiter(name):
            with res.request() as req:
                yield req
                log.append((name, env.now))
                yield env.timeout(1)

        env.process(holder())
        env.process(waiter("b"))
        env.process(waiter("c"))
        env.run()
        assert log == [("b", 2.0), ("c", 3.0)]

    def test_yielding_the_grant_resumes_at_once(self, env):
        res = Resource(env, 1)
        log = []

        def user():
            grant = res.try_acquire()
            value = yield grant
            log.append((env.now, value))
            grant.cancel()

        env.process(user())
        env.run()
        assert log == [(0.0, None)]
        assert res.count == 0

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_monitor_books_match_request(self, capacity):
        from repro.des import ResourceUsageMonitor

        def run(fast):
            env = Environment()
            res = Resource(env, capacity)
            monitor = ResourceUsageMonitor("r").attach(res)
            log = []

            def user(name, start, hold):
                yield env.timeout(start)
                grant = res.try_acquire() if fast else None
                queued = grant is None
                if queued:
                    grant = res.request()
                with grant:
                    if queued:
                        yield grant
                    log.append((name, env.now))
                    yield env.timeout(hold)

            for i, (start, hold) in enumerate(
                [(0, 4), (1, 3), (1, 2), (2, 5), (9, 1), (9.5, 2), (10, 1)]
            ):
                env.process(user(i, start, hold))
            env.run()
            return sorted(log), monitor.summary()

        fast_log, fast_books = run(fast=True)
        slow_log, slow_books = run(fast=False)
        assert fast_log == slow_log
        assert fast_books == slow_books
        assert fast_books["grants"] == 7
        assert fast_books["queue_wait_s"] > 0
