"""``Environment.timeout_at`` and ``Environment.reschedule`` on every scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import CalendarQueue, Environment, HeapScheduler
from repro.des.scheduler import SCHEDULERS

# Delays on a coarse grid so equal-time ties are common.
_delays = st.lists(st.integers(0, 6).map(lambda k: k * 0.5), min_size=1, max_size=6)


def _firing_order(scheduler, chains, absolute):
    """Run one process per chain of delays; log (time, chain, step) firings.

    ``absolute`` schedules each step with ``timeout_at(now + delay)``
    instead of ``timeout(delay)``.
    """
    env = Environment(scheduler=scheduler)
    log = []

    def chain(name, delays):
        for step, delay in enumerate(delays):
            if absolute:
                yield env.timeout_at(env.now + delay)
            else:
                yield env.timeout(delay)
            log.append((env.now, name, step))

    for name, delays in enumerate(chains):
        env.process(chain(name, delays))
    env.run()
    return log, env.events_processed


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@settings(max_examples=60, deadline=None)
@given(chains=st.lists(_delays, min_size=1, max_size=5))
def test_timeout_at_orders_like_timeout(scheduler, chains):
    assert _firing_order(scheduler, chains, True) == _firing_order(scheduler, chains, False)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_timeout_at_rejects_the_past(scheduler):
    env = Environment(initial_time=10.0, scheduler=scheduler)
    with pytest.raises(ValueError, match="in the past"):
        env.timeout_at(9.5)
    event = env.timeout_at(10.0, value="now")
    env.run()
    assert env.now == 10.0 and event.value == "now"


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_reschedule_moves_a_pending_timeout(scheduler):
    env = Environment(scheduler=scheduler)
    fired = []
    early = env.timeout(3.0)
    late = env.timeout_at(50.0)
    for when, event in (("early", early), ("late", late)):
        event.callbacks.append(lambda ev, when=when: fired.append((when, env.now)))
    env.timeout(7.0)
    env.reschedule(late, 5.0)
    env.run()
    assert fired == [("early", 3.0), ("late", 5.0)]
    assert env.now == 7.0


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_reschedule_keeps_the_event_id_tie_break(scheduler):
    # Moved onto an existing instant, the older event still fires first.
    env = Environment(scheduler=scheduler)
    order = []
    first = env.timeout_at(9.0)
    second = env.timeout_at(4.0)
    first.callbacks.append(lambda ev: order.append("first"))
    second.callbacks.append(lambda ev: order.append("second"))
    env.reschedule(first, 4.0)
    env.run()
    assert order == ["first", "second"]


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_reschedule_rejects_past_and_unscheduled_events(scheduler):
    env = Environment(initial_time=2.0, scheduler=scheduler)
    pending = env.timeout(1.0)
    with pytest.raises(ValueError, match="in the past"):
        env.reschedule(pending, 1.0)
    with pytest.raises(ValueError, match="not scheduled"):
        env.reschedule(env.event(), 5.0)


@pytest.mark.parametrize("factory", [HeapScheduler, CalendarQueue])
def test_scheduler_remove_keeps_the_rest_in_order(factory):
    sched = factory()
    tokens = [object() for _ in range(40)]
    for i, token in enumerate(tokens):
        sched.push(((i * 7) % 13 * 1.0, 1, i, token))
    removed = sched.remove(tokens[5])
    assert removed[3] is tokens[5] and len(sched) == 39
    popped = [sched.pop() for _ in range(39)]
    assert popped == sorted(popped)
    assert tokens[5] not in [entry[3] for entry in popped]
    with pytest.raises(ValueError):
        sched.remove(tokens[5])
