"""Tests for the metrics registry (counters, gauges, histograms, sampler)."""

import math

import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.obs import MetricsRegistry
from repro.obs.registry import Counter, Gauge, TimeWeightedHistogram


class TestCounter:
    def test_increments(self):
        c = Counter("switches")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("switches").inc(-1)


class TestGauge:
    def test_set_tracks_extremes(self):
        g = Gauge("depth")
        g.set(3, now=0.0)
        g.set(1, now=5.0)
        g.set(7, now=6.0)
        assert g.min == 1 and g.max == 7
        assert g.value == 7

    def test_add_is_relative(self):
        g = Gauge("in_flight")
        g.add(1, now=0.0)
        g.add(1, now=2.0)
        g.add(-1, now=3.0)
        assert g.value == 1

    def test_time_weighted_mean(self):
        g = Gauge("depth")
        g.set(2, now=0.0)
        g.set(4, now=10.0)  # value 2 held for 10s
        # 10s at 2, then 10s at 4 -> mean 3 over [0, 20].
        assert g.time_weighted_mean(now=20.0) == pytest.approx(3.0)

    def test_mean_without_observations_is_nan(self):
        assert math.isnan(Gauge("g").time_weighted_mean(5.0))

    def test_equal_values_keep_the_first_extremes(self):
        g = Gauge("depth")
        g.set(3, now=0.0)
        g.set(3.0, now=1.0)
        assert type(g.min) is int and type(g.max) is int
        g.set(5, now=2.0)
        g.set(5.0, now=3.0)
        g.set(1, now=4.0)
        g.set(1.0, now=5.0)
        assert type(g.max) is int and type(g.min) is int

    def test_zero_duration_sets_leave_the_integral_unchanged(self):
        g = Gauge("depth")
        g.set(0.1, now=0.0)
        g.set(0.7, now=0.3)
        before = g._integral
        for value in (2.0, -4.5, 0.0, 3.25):
            g.set(value, now=0.3)
        assert g._integral.hex() == before.hex()

    @given(
        steps=st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6),
                st.floats(min_value=0.0, max_value=1e4),
            ),
            min_size=1,
            max_size=40,
        ),
        tail=st.floats(min_value=0.0, max_value=1e4),
    )
    @hyp_settings(max_examples=200, deadline=None)
    def test_time_weighted_mean_matches_the_settle_formula(self, steps, tail):
        # The pre-inlining ``set``: settle, then builtin ``min``/``max``.
        value, integral, since, t0, lo, hi = 0.0, 0.0, None, None, None, None
        g = Gauge("depth")
        now = 0.0
        for new, dt in steps:
            now += dt
            g.set(new, now)
            if since is not None:
                integral += value * (now - since)
            else:
                t0 = now
            since = now
            value = float(new)
            lo = new if lo is None else min(lo, new)
            hi = new if hi is None else max(hi, new)
        assert (g.value, g.min, g.max, g._integral, g._t0) == (value, lo, hi, integral, t0)
        end = now + tail
        expected = value if end - t0 <= 0 else (integral + value * (end - since)) / (end - t0)
        assert g.time_weighted_mean(end) == expected


class TestTimeWeightedHistogram:
    def test_credits_elapsed_to_previous_value(self):
        h = TimeWeightedHistogram("queue", bounds=[0, 2])
        h.observe(0, now=0.0)
        h.observe(5, now=8.0)   # value 0 held 8s -> bucket (-inf, 0]
        h.observe(1, now=10.0)  # value 5 held 2s -> bucket (2, inf)
        assert h.bucket_s == [8.0, 0.0, 2.0]
        assert h.total_s == 10.0

    def test_fraction_at_most(self):
        h = TimeWeightedHistogram("queue", bounds=[0, 2])
        h.observe(1, now=0.0)
        h.observe(9, now=6.0)
        assert h.fraction_at_most(2, now=8.0) == pytest.approx(6.0 / 8.0)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            TimeWeightedHistogram("h", bounds=[2, 1])

    def test_rejects_non_edge_fraction_query(self):
        h = TimeWeightedHistogram("h", bounds=[1.0])
        with pytest.raises(ValueError):
            h.fraction_at_most(0.5)


class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c", [1, 2]) is reg.histogram("c", [1, 2])

    def test_unit_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a", unit="requests")
        with pytest.raises(ValueError):
            reg.counter("a", unit="jobs")

    def test_histogram_bounds_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", [1, 2])
        with pytest.raises(ValueError):
            reg.histogram("h", [1, 3])

    def test_snapshot_freezes_readings(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        reg.gauge("depth").set(5, now=1.0)
        snap = reg.snapshot(now=1.0)
        assert snap["t_s"] == 1.0
        assert snap["counters"]["hits"] == 2
        assert snap["gauges"]["depth"] == 5
        assert reg.snapshots == [snap]

    def test_units_view(self):
        reg = MetricsRegistry()
        reg.counter("a", unit="requests")
        reg.gauge("b", unit="slots")
        assert reg.units() == {"a": "requests", "b": "slots"}

    def test_sampler_snapshots_periodically_then_lets_env_drain(self):
        env = Environment()
        reg = MetricsRegistry()

        def workload():
            yield env.timeout(10.0)

        env.process(workload())
        reg.install_sampler(env, period_s=3.0)
        env.run()  # must terminate: the sampler parks when the queue drains
        times = [snap["t_s"] for snap in reg.snapshots]
        assert times == [0.0, 3.0, 6.0, 9.0, 12.0]

    def test_sampler_rejects_bad_period(self):
        with pytest.raises(ValueError):
            MetricsRegistry().install_sampler(Environment(), 0.0)
