"""Metrics registry: counters, gauges, and time-weighted histograms.

The open-system engine (:mod:`repro.sim.opensystem`) publishes live
instrument values here — drive/robot occupancy and wait-queue depth (via
:class:`~repro.des.ResourceUsageMonitor` hooks), in-flight requests,
dispatcher queue depth, and switch counts — and a periodic sampler process
on the shared simulation clock turns them into a time series of
*snapshots* that :func:`repro.obs.export.write_metrics_jsonl` dumps one
JSON object per line.

All instruments are clocked in **simulated** seconds: gauges and
histograms integrate value·dt over simulation time, so their means answer
"what fraction of the horizon was the robot busy", not anything about
wall time.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from .digest import DEFAULT_REL_ERR, QuantileDigest

__all__ = [
    "Counter",
    "Gauge",
    "TimeWeightedHistogram",
    "QuantileDigest",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count (events, grants, switches…)."""

    __slots__ = ("name", "unit", "value")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value:g}{self.unit and ' ' + self.unit}>"


class Gauge:
    """A sampled level (queue depth, in-flight requests, slots in use).

    Tracks the current value plus its extremes and the time integral
    ∫ value·dt, so :meth:`time_weighted_mean` is exact regardless of the
    snapshot period.
    """

    __slots__ = ("name", "unit", "value", "min", "max", "_integral", "_since", "_t0")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.value = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._integral = 0.0
        self._since: Optional[float] = None
        self._t0: Optional[float] = None

    def set(self, value: float, now: float) -> None:
        # Every dispatch round sets a gauge: the settle step is inlined, and
        # the extremes keep the first of equal values, as min()/max() do.
        since = self._since
        if since is not None:
            self._integral += self.value * (now - since)
        else:
            self._t0 = now
        self._since = now
        self.value = float(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def add(self, delta: float, now: float) -> None:
        self.set(self.value + delta, now)

    def time_weighted_mean(self, now: Optional[float] = None) -> float:
        """Mean value over [first observation, ``now``] (NaN if never set)."""
        if self._t0 is None:
            return float("nan")
        end = self._since if now is None else max(now, self._since)
        elapsed = end - self._t0
        if elapsed <= 0:
            return self.value
        integral = self._integral + self.value * (end - self._since)
        return integral / elapsed

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}{self.unit and ' ' + self.unit}>"


class TimeWeightedHistogram:
    """Distribution of a level over *time*: seconds spent in each bucket.

    ``observe(value, now)`` marks a transition: the time since the previous
    observation is credited to the previous value's bucket.  Bucket ``i``
    covers ``(bounds[i-1], bounds[i]]`` with open-ended first and last
    buckets, matching how one reads "the queue was ≤ 2 deep for 80 % of
    the run".
    """

    __slots__ = ("name", "unit", "bounds", "bucket_s", "_value", "_since")

    def __init__(self, name: str, bounds: Sequence[float], unit: str = "") -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = list(bounds)
        if ordered != sorted(ordered):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.name = name
        self.unit = unit
        self.bounds = ordered
        self.bucket_s = [0.0] * (len(ordered) + 1)
        self._value: Optional[float] = None
        self._since: Optional[float] = None

    def _settle(self, now: float) -> None:
        if self._value is not None:
            # bisect_left keeps buckets right-closed: value == bound lands
            # in (prev, bound], so fraction_at_most(bound) counts it.
            self.bucket_s[bisect_left(self.bounds, self._value)] += now - self._since
        self._since = now

    def observe(self, value: float, now: float) -> None:
        self._settle(now)
        self._value = float(value)

    @property
    def total_s(self) -> float:
        return sum(self.bucket_s)

    def fraction_at_most(self, bound: float, now: Optional[float] = None) -> float:
        """Share of observed time the value was ≤ ``bound`` (a bucket edge)."""
        if bound not in self.bounds:
            raise ValueError(f"{bound} is not a bucket bound of {self.bounds}")
        bucket_s = list(self.bucket_s)
        if now is not None and self._value is not None and now > self._since:
            bucket_s[bisect_left(self.bounds, self._value)] += now - self._since
        total = sum(bucket_s)
        if total <= 0:
            return float("nan")
        upto = self.bounds.index(bound) + 1
        return sum(bucket_s[:upto]) / total

    def __repr__(self) -> str:
        return f"<TimeWeightedHistogram {self.name} bounds={self.bounds}>"


class MetricsRegistry:
    """Named instruments plus a snapshot time series.

    Instruments are get-or-create: ``registry.counter("switches")`` returns
    the same object every call, so producers don't coordinate creation.
    :meth:`snapshot` freezes every instrument's current reading;
    :meth:`install_sampler` runs snapshots periodically on a DES clock,
    parking itself when the event queue drains so it never keeps the
    simulation alive.
    """

    __slots__ = ("counters", "gauges", "histograms", "digests", "snapshots")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, TimeWeightedHistogram] = {}
        self.digests: Dict[str, QuantileDigest] = {}
        self.snapshots: List[Dict] = []

    # -- instrument factories ------------------------------------------------
    def counter(self, name: str, unit: str = "") -> Counter:
        return self._get_or_create(self.counters, Counter, name, unit)

    def gauge(self, name: str, unit: str = "") -> Gauge:
        return self._get_or_create(self.gauges, Gauge, name, unit)

    def histogram(
        self, name: str, bounds: Sequence[float], unit: str = ""
    ) -> TimeWeightedHistogram:
        existing = self.histograms.get(name)
        if existing is not None:
            if existing.bounds != list(bounds):
                raise ValueError(
                    f"histogram {name!r} already exists with bounds {existing.bounds}"
                )
            return existing
        hist = TimeWeightedHistogram(name, bounds, unit)
        self.histograms[name] = hist
        return hist

    def digest(
        self, name: str, rel_err: float = DEFAULT_REL_ERR, unit: str = ""
    ) -> QuantileDigest:
        """Get-or-create a mergeable quantile digest (sample-weighted).

        Unlike the time-weighted instruments above, a digest sketches a
        *per-event* value distribution (sojourn, seek, switch latencies);
        its merge across processes is lossless, so fleet percentiles
        compose correctly (see :mod:`repro.obs.digest`).
        """
        existing = self.digests.get(name)
        if existing is not None:
            if existing.rel_err != rel_err:
                raise ValueError(
                    f"digest {name!r} already exists with rel_err "
                    f"{existing.rel_err}, not {rel_err}"
                )
            return existing
        digest = QuantileDigest(name, rel_err=rel_err, unit=unit)
        self.digests[name] = digest
        return digest

    @staticmethod
    def _get_or_create(table, factory, name: str, unit: str):
        existing = table.get(name)
        if existing is not None:
            if unit and existing.unit and existing.unit != unit:
                raise ValueError(
                    f"instrument {name!r} already registered with unit "
                    f"{existing.unit!r}, not {unit!r}"
                )
            return existing
        instrument = factory(name, unit)
        table[name] = instrument
        return instrument

    # -- snapshots -------------------------------------------------------------
    def snapshot(self, now: float) -> Dict:
        """Freeze every instrument's reading at simulation time ``now``."""
        snap = {
            "t_s": float(now),
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: {"bounds": h.bounds, "bucket_s": list(h.bucket_s)}
                for name, h in sorted(self.histograms.items())
            },
        }
        if self.digests:
            snap["digests"] = {
                name: d.summary() for name, d in sorted(self.digests.items())
            }
        self.snapshots.append(snap)
        return snap

    def install_sampler(self, env, period_s: float):
        """Snapshot every ``period_s`` simulated seconds until ``env`` drains.

        The sampler checks the event queue after each snapshot and stops
        re-arming once it is the only thing scheduled, so a run's drain
        condition (``env.run()`` until empty) is unaffected.
        """
        if period_s <= 0:
            raise ValueError(f"sample period must be positive, got {period_s}")

        def _sampler():
            while True:
                self.snapshot(env.now)
                if len(env) == 0:
                    return
                yield env.timeout(period_s)

        return env.process(_sampler())

    def units(self) -> Dict[str, str]:
        """Instrument name -> unit, for exporters and docs."""
        out = {}
        for table in (self.counters, self.gauges, self.histograms, self.digests):
            for name, instrument in table.items():
                out[name] = instrument.unit
        return out

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(self.histograms)} histograms, "
            f"{len(self.digests)} digests, {len(self.snapshots)} snapshots>"
        )
