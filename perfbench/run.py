"""End-to-end and per-layer benchmark of the tape simulator.

Run from the repository root; it imports the simulator from ``src/``:

    python3 perfbench/run.py --workload open-light --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --out perfbench-ledger.json

One run builds the workload's system several times (``setup_s`` is the
median), then serves identical repetitions until ``--seconds`` have passed
and reports medians.  ``--trace 0`` prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` interleaves untraced repetitions with
traced ones (the program's ``Trace`` on, plus host-time spans around the
calls into each layer) and prints the per-layer metrics.  ``--workload all``
runs every workload both ways in child processes, prints one table and can
write a ledger with provenance and host facts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output or
reference check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("open-light", "open-heavy", "sweep-fig5", "chaos-repair")

#: Timed set-up repetitions per run, after one untimed warm-up: at least
#: ``SETUP_REPS``, and more while they have taken less than ``SETUP_SECONDS``
#: (up to ``SETUP_MAX_REPS``).  ``setup_s`` is their median.
SETUP_REPS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPS = 40
#: Untraced serve repetitions per run at least, whatever ``--seconds`` says.
MIN_REPS = 2


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_contract() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text())


def import_simulator() -> None:
    """Put ``src/`` first on the path and import the simulator, or raise."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no simulator sources under {src}")
    sys.path.insert(0, str(src))
    # The benchmark fixes its own configuration: no inherited worker count,
    # cache directory, scale or kernel selection.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    import repro  # noqa: F401


def host_facts() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and bytes on macOS.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


# ---------------------------------------------------------------------------
# One workload, one process


def timed_setups(workload, seed: int, recorder=None) -> Tuple[Any, List[float], List[float]]:
    """Build the system several times; return the last build and each
    build's reference-speed and raw host seconds.

    A first, untimed build pays the one-off costs (lazy imports, heap growth)
    that would otherwise make the first timing an outlier.
    """
    from hostclock import Clock

    workload.setup(seed)
    scaled: List[float] = []
    raw: List[float] = []
    system = None
    while len(raw) < SETUP_MAX_REPS and (len(raw) < SETUP_REPS or sum(raw) < SETUP_SECONDS):
        system = None
        gc.collect()
        clock = Clock()
        if recorder is not None:
            recorder.group = ("setup", len(raw))
        clock.start()
        system = workload.setup(seed, recorder.span) if recorder is not None else workload.setup(seed)
        clock.lap()
        scaled.append(clock.scaled)
        raw.append(clock.raw)
    if recorder is not None:
        recorder.group = None
    return system, scaled, raw


def serve_loop(workload, system, seed: int, seconds: float, workdir: Path, recorder=None):
    """Serve repetitions until ``seconds`` pass; traced runs alternate passes.

    Returns ``(untraced reps, traced reps)``.  A repetition is not started
    when the median repetition so far would end past the budget.
    """
    from tracing import instrumented

    plain: List[Any] = []
    traced: List[Any] = []
    began = perf_counter()
    cost: List[float] = []
    while True:
        # A traced run splits its time between both passes: one of each suffices.
        if recorder is None:
            enough = len(plain) >= MIN_REPS
        else:
            enough = len(plain) >= 1 and len(traced) >= 1
        elapsed = perf_counter() - began
        if enough and (elapsed >= seconds or elapsed + median(cost) > seconds):
            break
        rep_start = perf_counter()
        workload.prepare(system)
        trace_this = recorder is not None and len(traced) < len(plain)
        if trace_this:
            recorder.group = ("serve", len(traced))
            with instrumented(recorder):
                traced.append(workload.serve(system, seed, True, recorder.span, workdir))
            recorder.group = None
        else:
            plain.append(workload.serve(system, seed, False, workdir=workdir))
        cost.append(perf_counter() - rep_start)
    return plain, traced


def same_outputs(reps) -> bool:
    return len({r.digest for r in reps}) == 1 and all(r.sim == reps[0].sim for r in reps)


def serve_time(reps) -> float:
    """Median over repetitions of the timed region in reference-speed seconds."""
    return median(sum(r.stretches) for r in reps)


def end_to_end(workload, setups: List[float], reps) -> Dict[str, float]:
    first = reps[0]
    setup_s = median(setups)
    timed_s = serve_time(reps)
    return {
        "setup_s": setup_s,
        "total_s": (setup_s if workload.setup_in_total else 0.0) + timed_s + median(r.tail_s for r in reps),
        "requests_per_s": first.requests / timed_s,
        "sim_hours_per_s": first.sim["sim_horizon_h"] / timed_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim_sojourn_p50_s": first.sim["sim_sojourn_p50_s"],
        "sim_sojourn_p99_s": first.sim["sim_sojourn_p99_s"],
        "sim_bandwidth_mb_s": first.sim["sim_bandwidth_mb_s"],
        "sim_availability": first.sim["sim_availability"],
    }


def per_layer(workload, recorder, plain, traced, attempted: int, failed: int) -> Dict[str, float]:
    from tracing import layer_count, layer_self_time

    def path_time(name: str) -> float:
        serve = layer_self_time(recorder, "serve", name)
        if workload.setup_in_total:
            return layer_self_time(recorder, "setup", name) + serve
        return serve

    def path_count(name: str) -> float:
        serve = layer_count(recorder, "serve", name)
        if workload.setup_in_total:
            return layer_count(recorder, "setup", name) + serve
        return serve

    def span_calls(kind: str, name: str) -> float:
        groups = recorder.groups(kind)
        return median(len(recorder.durations(g, name)) for g in groups) if groups else 0.0

    def path_calls(name: str) -> float:
        serve = span_calls("serve", name)
        return serve + (span_calls("setup", name) if workload.setup_in_total else 0.0)

    layer = traced[0].layer
    points = layer.get("sweep.points", 1.0)
    requests = traced[0].requests
    events = path_count("des.events")
    plain_s = serve_time(plain)
    traced_s = serve_time(traced)
    cold_s = plain_s if "sweep.points" in layer else 0.0
    serve_calls = [d for g in recorder.groups("serve") for d in recorder.durations(g, "sim.serve")]
    serve_us = sorted(d * 1e6 for d in serve_calls)

    def pct(q: float) -> float:
        import numpy as np

        return float(np.percentile(serve_us, q)) if serve_us else 0.0

    metrics = {
        "workload.generate_s": path_time("workload.generate"),
        "placement.place_s": path_time("placement.place"),
        "placement.cluster_s": path_time("placement.cluster"),
        "placement.sublists_s": path_time("placement.sublists"),
        "placement.zigzag_s": path_time("placement.zigzag"),
        "placement.zigzag_calls": path_calls("placement.zigzag"),
        "placement.organ_pipe_s": path_time("placement.organ_pipe"),
        "placement.placements_per_point": path_calls("placement.place") / points,
        "redundancy.place_s": path_time("redundancy.place"),
        "redundancy.fallbacks_per_read": layer.get("redundancy.fallbacks_per_read", 0.0),
        "catalog.validate_s": path_time("catalog.validate"),
        "catalog.index_s": path_time("catalog.index"),
        "catalog.objects_indexed": layer["catalog.objects_indexed"],
        "des.events": events,
        "des.events_per_request": events / requests,
        "des.events_per_s": events / plain_s,
        "sim.serve_s": path_time("sim.serve"),
        "sim.serve_calls": path_calls("sim.serve"),
        "sim.serve_p50_us": pct(50),
        "sim.serve_p99_us": pct(99),
        "sim.run_s": path_time("sim.run"),
        "dispatch.pending_peak": layer.get("dispatch.pending_peak", 0.0),
        "dispatch.pending_mean": layer.get("dispatch.pending_mean", 0.0),
        "sim.peak_in_flight": layer.get("sim.peak_in_flight", 0.0),
        "faults.drive_failures": layer.get("faults.drive_failures", 0.0),
        "faults.tape_losses": layer.get("faults.tape_losses", 0.0),
        "repair.members_rebuilt": layer.get("repair.members_rebuilt", 0.0),
        "repair.backlog_s": layer.get("repair.backlog_s", 0.0),
        "hardware.mounts_per_request": layer.get("hardware.mounts_per_request", 0.0),
        "hardware.robot_wait_s": layer.get("hardware.robot_wait_s", 0.0),
        "hardware.drive_busy_frac": layer.get("hardware.drive_busy_frac", 0.0),
        "obs.snapshot_s": path_time("obs.snapshot"),
        "obs.fold_s": path_time("obs.fold"),
        "obs.spans": layer.get("obs.spans", 0.0),
        "obs.trace_overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
        "sweep.cold_s": cold_s,
        "sweep.warm_s": median(r.tail_s for r in plain) if cold_s else 0.0,
        "sweep.points_per_s": points / cold_s if cold_s else 0.0,
        "sweep.generate_calls_per_point": path_calls("workload.generate") / points if cold_s else 0.0,
        "cache.hits": layer.get("cache.hits", 0.0),
        "cache.misses": layer.get("cache.misses", 0.0),
        "cache.hit_ratio": layer.get("cache.hit_ratio", 0.0),
        "cache.get_s": path_time("cache.get"),
        "cache.put_s": path_time("cache.put"),
        "failed_frac": failed / attempted,
    }
    return metrics


def checks_summary(found) -> List[Dict[str, Any]]:
    """One entry per check name: how many of its runs passed, first failure."""
    summary: Dict[str, Dict[str, Any]] = {}
    for name, ok, detail in found:
        entry = summary.setdefault(name, {"name": name, "passed": 0, "runs": 0, "detail": detail})
        entry["runs"] += 1
        entry["passed"] += bool(ok)
        if not ok and entry["passed"] == entry["runs"] - 1:
            entry["detail"] = detail
    return list(summary.values())


def run_one(args, contract: Dict[str, Any]) -> int:
    import checks
    from tracing import SpanRecorder, instrumented
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    recorder = SpanRecorder() if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if recorder is not None:
            with instrumented(recorder):
                system, setups, setups_raw = timed_setups(workload, args.seed, recorder)
        else:
            system, setups, setups_raw = timed_setups(workload, args.seed)
        plain, traced = serve_loop(workload, system, args.seed, args.seconds, workdir, recorder)
        metrics = None if args.trace else end_to_end(workload, setups, plain)
        # Outside the timed region: the golden parity contract.
        reference = checks.reference_check(ROOT)
    except Exception:
        traceback.print_exc()
        log(f"{args.workload}: the simulator raised; no result")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    found: List[checks.Check] = [c for rep in reps for c in rep.checks]
    found.append(("repetitions give identical simulated outputs", same_outputs(plain),
                  f"{len(plain)} untraced repetitions"))
    if traced:
        found.append(("tracing leaves simulated outputs unchanged", same_outputs(reps),
                      f"{len(traced)} traced repetitions"))
    found.append(reference)
    failed_checks = sum(1 for c in found if not c[1])
    # Operations: simulated requests (sweep: points) plus output checks.
    attempted = sum(r.attempted for r in reps) + len(found)
    failed = sum(r.failed for r in reps) + failed_checks
    if metrics is None:
        metrics = per_layer(workload, recorder, plain, traced, attempted, failed)

    wanted = contract["per_layer"] if args.trace else contract["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"metrics not produced: {missing}")
        return 1
    summary = checks_summary(found)
    for c in summary:
        verdict = "ok  " if c["passed"] == c["runs"] else "FAIL"
        log(f"check {verdict} {c['name']} ({c['passed']}/{c['runs']}; {c['detail']})")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": plain[0].digest,
        "sim": plain[0].sim,
        "requests_per_repetition": plain[0].requests,
        "setup_s": {"scaled": setups, "raw": setups_raw},
        "untraced_s": {"scaled": [sum(r.stretches) for r in plain], "raw": [r.seconds for r in plain]},
        "traced_s": {"scaled": [sum(r.stretches) for r in traced], "raw": [r.seconds for r in traced]},
        "checks": summary,
        "host": host_facts(),
    }
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    for m in wanted:
        print(f"{args.workload:>13} {m['name']:<32} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed_checks == 0 else 1


# ---------------------------------------------------------------------------
# Every workload, both passes, one table


def run_all(args) -> int:
    """Run each workload untraced and traced in child processes."""
    ledger: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "provenance": json.loads((BENCH_DIR / "provenance.json").read_text()),
        "workloads": {},
    }
    status = 0
    for name in WORKLOAD_NAMES:
        entry: Dict[str, Any] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                log(f"{name} trace={trace}: no result (exit {proc.returncode})")
                continue
            for line in lines[:-1]:
                if line.startswith("DETAIL "):
                    entry[f"detail_trace{trace}"] = json.loads(line[len("DETAIL "):])
                else:
                    print(line)
            entry["end_to_end" if trace == 0 else "per_layer"] = json.loads(lines[-1])
        details = [entry.get(f"detail_trace{t}") for t in (0, 1)]
        if all(details) and details[0]["digest"] != details[1]["digest"]:
            log(f"{name}: traced and untraced processes disagree on simulated outputs")
            status = 1
        ledger["workloads"][name] = entry
    ledger["host"] = host_facts()
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
        log(f"ledger written to {args.out}")
    results = [e.get(k) for e in ledger["workloads"].values() for k in ("end_to_end", "per_layer")]
    results = [r for r in results if r]
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results) or 1,
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{w}.{m}": v
            for w, e in ledger["workloads"].items()
            for m, v in e.get("end_to_end", {}).get("metrics", {}).items()
        },
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="ledger JSON path (with --workload all)")
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
        import_simulator()
    except (OSError, ValueError, ImportError) as exc:
        log(f"cannot run: {exc}")
        return 2
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
