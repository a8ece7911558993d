"""The benchmark's four workloads.

Each workload turns a seed into inputs, builds the placed system once per
set-up repetition, and serves one timed repetition at a time.  A repetition
returns its host timings, its simulated outputs (``sim_*``, identical for
every repetition of one seed) and the output checks it ran.

Seeds: the object catalog and its request set are the repository's default
data set (``workload_seed = 20060814``), so every seed places the same
system.  ``--seed n`` is the traffic: ``eval_seed = n`` draws the arrival
times and Zipf-sampled requests, the fault streams, and every sweep point's
request stream.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import checks
from hostclock import Clock

#: Completed requests per timed stretch of an open-system stream.
LAP_REQUESTS = 100
#: Evaluated points per timed stretch of a cold sweep pass.
LAP_POINTS = 4
#: The sweep-fig5 grid, pinned here so the workload cannot drift with the
#: defaults of ``figure5_spec``.
FIG5_M_VALUES = tuple(range(1, 8))
FIG5_ALPHAS = (0.0, 0.3, 0.6, 1.0)


def settings_for(seed: int, scale: str):
    from repro.experiments import ExperimentSettings

    return ExperimentSettings(scale=scale, eval_seed=seed)


def _no_span(name: str):
    return contextlib.nullcontext()


@dataclass
class System:
    """A placed, validated, indexed system built from one seed."""

    settings: Any
    spec: Any
    workload: Any
    placement: Any
    session: Any
    busiest_tape: str


@dataclass
class Rep:
    """One timed repetition."""

    #: Raw host seconds of the timed region (``OpenSystem.run``; sweep: cold pass).
    seconds: float
    #: The timed region in reference-speed seconds, stretch by stretch
    #: (``LAP_REQUESTS`` completions; sweep: ``LAP_POINTS`` points).
    stretches: List[float]
    #: Reference-speed seconds a user still pays after the timed region
    #: (telemetry fold; sweep: the warm pass).
    tail_s: float
    requests: int
    sim: Dict[str, float]
    digest: str
    checks: List[checks.Check]
    attempted: int
    failed: int
    #: Deterministic per-layer counts read from the results.
    layer: Dict[str, float]


def build_system(scale: str, seed: int, redundancy: Optional[str], span: Callable = _no_span) -> System:
    """Seed -> workload -> placement -> validated, indexed session."""
    from repro import ParallelBatchPlacement, SimulationSession, generate_workload

    settings = settings_for(seed, scale)
    spec = settings.spec()
    with span("workload.generate"):
        workload = generate_workload(settings.workload_params)
    scheme = ParallelBatchPlacement(m=settings.m)
    if redundancy:
        from repro.redundancy import wrap_scheme

        scheme = wrap_scheme(scheme, redundancy)
    placement = scheme.place(workload, spec)
    session = SimulationSession(workload, spec, placement=placement)
    busiest = max(session.system.all_tapes(), key=lambda t: (t.used_mb, t.id))
    return System(settings, spec, workload, placement, session, str(busiest.id))


def _percentiles(values) -> Dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "sim_sojourn_p50_s": float(np.percentile(arr, 50)),
        "sim_sojourn_p99_s": float(np.percentile(arr, 99)),
    }


@dataclass(frozen=True)
class OpenWorkload:
    """Independent Poisson users with Zipf-sampled requests (open loop, simulated time)."""

    name: str
    scale: str
    rate_per_hour: float
    arrivals: int
    redundancy: Optional[str] = None
    #: Drive faults (MTBF 4 h, MTTR 0.5 h), the busiest tape destroyed at
    #: 0.25 h, fair-share repair.
    chaos: bool = False

    #: The served stream runs on the set-up system, so set-up is on the path.
    setup_in_total = True

    def setup(self, seed: int, span: Callable = _no_span) -> System:
        return build_system(self.scale, seed, self.redundancy, span)

    def prepare(self, system: System) -> None:
        """A fresh session on the same placement: every repetition starts alike."""
        from repro import SimulationSession

        system.session = SimulationSession(system.workload, system.spec, placement=system.placement)

    def serve(self, system: System, seed: int, traced: bool, span: Callable = _no_span,
              workdir: Optional[Path] = None) -> Rep:
        from repro.obs import FleetRegistry, snapshot_of_result

        session = system.session
        kwargs: Dict[str, Any] = {}
        if self.chaos:
            from repro.sim import DriveFaultProcess, TapeFailure

            kwargs = dict(
                faults=(
                    DriveFaultProcess(mtbf_s=4.0 * 3600.0, mttr_s=0.5 * 3600.0),
                    TapeFailure(system.busiest_tape, at_s=0.25 * 3600.0),
                ),
                fault_seed=seed,
                repair_policy="fair-share",
            )
        # The program's Trace reads REPRO_TRACE when the open system is built.
        os.environ["REPRO_TRACE"] = "1" if traced else "0"
        opensys = session.open(policy="concurrent", **kwargs)
        clock = Clock(span)
        completed = [0]

        def on_complete(_system, _outcome) -> None:
            completed[0] += 1
            if completed[0] % LAP_REQUESTS == 0:
                clock.lap()

        opensys.on_complete = on_complete
        gc.collect()
        clock.start()
        result = opensys.run(self.rate_per_hour, num_arrivals=self.arrivals, seed=seed)
        clock.lap()
        served = perf_counter()
        with span("obs.snapshot"):
            snapshot = snapshot_of_result(result, point_meta={"workload": self.name})
        FleetRegistry().fold(snapshot)
        tail_s = clock.scale(perf_counter() - served)

        found = checks.check_open(result, checks.expected_arrivals(self.rate_per_hour, self.arrivals, seed))
        if self.chaos:
            found.append(("chaos-repair loses no object", result.objects_lost == 0,
                          f"objects_lost={result.objects_lost}"))
        busy = checks.drive_busy(result) if traced else {}
        if traced:
            found.append(checks.check_drive_busy(result, busy))
        missing = self.arrivals - len(result.records)
        aborted = result.aborted_requests

        horizon = result.horizon_s
        sim = _percentiles([r.sojourn_s for r in result.records])
        sim["sim_bandwidth_mb_s"] = float(np.mean([m.bandwidth_mb_s for m in result.metrics]))
        sim["sim_availability"] = float(result.availability)
        sim["sim_horizon_h"] = horizon / 3600.0

        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        pending = [g for name, g in gauges.items() if name.startswith("dispatch.") and name.endswith(".pending")]
        elapsed = sum(g["elapsed_s"] for g in pending)
        grants = sum(v for k, v in counters.items() if k.startswith("resource.") and k.endswith(".grants"))
        drives = sum(len(lib.drives) for lib in session.system.libraries)
        reads = counters.get("redundancy.requests", 0.0)
        layer = {
            "catalog.objects_indexed": float(len(session.index)),
            "dispatch.pending_peak": float(max((g["max"] or 0.0 for g in pending), default=0.0)),
            "dispatch.pending_mean": sum(g["integral"] for g in pending) / elapsed if elapsed else 0.0,
            "sim.peak_in_flight": float(result.peak_in_flight),
            "faults.drive_failures": float(result.faults.get("drive_failures", 0.0)),
            "faults.tape_losses": float(result.faults.get("tape_losses", 0.0)),
            "repair.members_rebuilt": float(result.repair.get("members_rebuilt", 0.0)),
            "repair.backlog_s": float(result.repair_backlog_seconds),
            "redundancy.fallbacks_per_read": counters.get("redundancy.fallbacks", 0.0) / reads if reads else 0.0,
            "hardware.mounts_per_request": grants / len(result.records),
            "hardware.robot_wait_s": float(sum(s["queue_wait_s"] for s in result.resources.values())),
            "hardware.drive_busy_frac": sum(busy.values()) / (drives * horizon) if busy else 0.0,
            "obs.spans": float(len(result.spans())),
        }
        return Rep(
            seconds=clock.raw,
            stretches=clock.stretches,
            tail_s=tail_s,
            requests=len(result.records),
            sim=sim,
            digest=checks.open_digest(result),
            checks=found,
            attempted=self.arrivals,
            failed=missing + aborted,
            layer=layer,
        )


@dataclass(frozen=True)
class SweepWorkload:
    """The small-scale Figure-5 sweep: cold into a fresh cache, then warm."""

    name: str
    #: Every point places its own system, so set-up is not on the sweep's path.
    setup_in_total = False

    def setup(self, seed: int, span: Callable = _no_span) -> System:
        """The small m=4 system, as the sweep's points place it."""
        return build_system("small", seed, None, span)

    def prepare(self, system: System) -> None:
        """Nothing to reset: each pass starts from a fresh cache directory."""

    def serve(self, system: System, seed: int, traced: bool, span: Callable = _no_span,
              workdir: Optional[Path] = None) -> Rep:
        import repro.experiments.parallel as engine
        from repro.experiments import EngineOptions, run_sweep
        from repro.experiments.figures import figure5_spec

        os.environ["REPRO_TRACE"] = "1" if traced else "0"
        spec = figure5_spec(system.settings, FIG5_M_VALUES, FIG5_ALPHAS)
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=workdir)
        options = EngineOptions(workers=1, cache_dir=cache_dir)
        # The clock laps after every LAP_POINTS evaluated points.
        evaluate_point = engine.evaluate_point
        clock = Clock(span)
        evaluated = [0]

        def lapping(*args, **kwargs):
            try:
                return evaluate_point(*args, **kwargs)
            finally:
                evaluated[0] += 1
                if evaluated[0] % LAP_POINTS == 0:
                    clock.lap()

        engine.evaluate_point = lapping
        try:
            gc.collect()
            clock.start()
            with span("sweep.cold"):
                cold = run_sweep(spec, options)
            clock.lap()
            middle = perf_counter()
            with span("sweep.warm"):
                warm = run_sweep(spec, options)
            tail_s = clock.scale(perf_counter() - middle)
        finally:
            engine.evaluate_point = evaluate_point
            shutil.rmtree(cache_dir, ignore_errors=True)

        points = len(spec)
        samples = system.settings.samples
        found = checks.check_sweep(cold, warm, points, samples)
        responses = [m.response_s for p in cold for m in p.result.samples]
        sim = _percentiles(responses)
        sim["sim_bandwidth_mb_s"] = float(np.mean([p.result.avg_bandwidth_mb_s for p in cold]))
        sim["sim_availability"] = 1.0
        sim["sim_horizon_h"] = float(sum(responses)) / 3600.0
        hits = cold.stats["cache_hits"] + warm.stats["cache_hits"]
        misses = cold.stats["cache_misses"] + warm.stats["cache_misses"]
        layer = {
            "catalog.objects_indexed": float(points * len(system.session.index)),
            "sweep.points": float(points),
            "cache.hits": float(hits),
            "cache.misses": float(misses),
            "cache.hit_ratio": hits / (hits + misses),
        }
        return Rep(
            seconds=clock.raw,
            stretches=clock.stretches,
            tail_s=tail_s,
            requests=len(responses),
            sim=sim,
            digest=checks.sweep_digest(cold),
            checks=found,
            attempted=2 * points,
            failed=sum(1 for p in cold if len(p.result.samples) != samples),
            layer=layer,
        )


WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        OpenWorkload("open-light", scale="paper", rate_per_hour=3.0, arrivals=2000),
        OpenWorkload("open-heavy", scale="paper", rate_per_hour=5.0, arrivals=2000),
        SweepWorkload("sweep-fig5"),
        OpenWorkload("chaos-repair", scale="small", rate_per_hour=8.0, arrivals=1000,
                     redundancy="k=2,n=3", chaos=True),
    )
}
