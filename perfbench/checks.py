"""Output checks, digests of simulated outputs, and the golden reference check.

Every check returns ``(name, ok, detail)``.  A failed check counts as a
failed operation and makes the benchmark exit non-zero.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

Check = Tuple[str, bool, str]

#: Relative slack for float identities such as sojourn = wait + service.
REL_TOL = 1e-9


def _sha(parts) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def open_digest(result) -> str:
    """Digest of every simulated output of one open-system stream."""
    records = [
        (r.request_id, r.arrival_s, r.start_s, r.finish_s, r.size_mb, r.aborted)
        for r in result.records
    ]
    metrics = [(m.response_s, m.seek_s, m.transfer_s, m.num_switches) for m in result.metrics]
    return _sha((records, metrics, result.horizon_s, sorted(result.faults.items()),
                 sorted(result.repair.items()), sorted(result.resources.items())))


def sweep_digest(sweep) -> str:
    """Digest of every point result of one sweep pass."""
    return _sha([
        (p.point.value, p.point.alpha, p.seed,
         [(m.request_id, m.size_mb, m.response_s, m.seek_s, m.transfer_s, m.num_switches)
          for m in p.result.samples])
        for p in sweep
    ])


def expected_arrivals(rate_per_hour: float, num_arrivals: int, seed: int) -> List[float]:
    """Arrival instants of the Poisson stream ``OpenSystem.run`` documents.

    The stream is drawn from ``numpy.random.default_rng(seed)``: exponential
    inter-arrival gaps with mean ``3600 / rate``, starting on a fresh clock.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(3600.0 / rate_per_hour, size=num_arrivals)
    return [float(t) for t in np.cumsum(gaps)]


def check_open(result, expected: List[float]) -> List[Check]:
    """Exactly-once completion, sojourn identity, and resource busy bounds."""
    checks: List[Check] = []
    got = sorted(r.arrival_s for r in result.records)
    checks.append((
        "every arrival completes exactly once",
        got == sorted(expected) and len(result.metrics) == len(expected),
        f"{len(got)} records for {len(expected)} arrivals",
    ))
    bad = 0
    for r in result.records:
        wait, service, sojourn = r.wait_s, r.service_s, r.sojourn_s
        if wait < 0 or service < 0 or abs(sojourn - (wait + service)) > REL_TOL * max(1.0, sojourn):
            bad += 1
    checks.append(("sojourn = wait + service >= 0", bad == 0, f"{bad} records violate it"))
    horizon = result.horizon_s
    over = [name for name, stats in result.resources.items()
            if stats["busy_s"] > horizon * (1 + REL_TOL)]
    checks.append(("robot busy_s <= horizon", not over, f"over horizon: {over}"))
    return checks


def drive_busy(result) -> Dict[str, float]:
    """Per-drive busy seconds: union of the drive's spans in the program trace.

    Queue waits (``dispatch_wait``) are not drive work and are left out.
    """
    intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in result.spans():
        drive = span.attrs.get("drive")
        if drive is not None and span.name != "dispatch_wait":
            intervals[str(drive)].append((span.start, span.end))
    busy: Dict[str, float] = {}
    for drive, spans in intervals.items():
        spans.sort()
        total, cur_start, cur_end = 0.0, None, None
        for start, end in spans:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        busy[drive] = total
    return busy


def check_drive_busy(result, busy: Dict[str, float]) -> Check:
    horizon = result.horizon_s
    over = [d for d, b in busy.items() if b > horizon * (1 + REL_TOL)]
    return ("drive busy_s <= horizon", bool(busy) and not over,
            f"{len(busy)} drives traced, over horizon: {over}")


def check_sweep(cold, warm, points: int, samples: int) -> List[Check]:
    """Warm pass replays the cold pass bit for bit from the cache."""
    checks: List[Check] = [
        ("cold sweep misses every point",
         cold.stats["cache_misses"] == points and cold.stats["cache_hits"] == 0,
         f"hits={cold.stats['cache_hits']} misses={cold.stats['cache_misses']}"),
        ("warm sweep hits every point",
         warm.stats["cache_hits"] == points and warm.stats["cache_misses"] == 0,
         f"hits={warm.stats['cache_hits']} misses={warm.stats['cache_misses']}"),
        ("warm results equal cold results bit for bit",
         [p.result for p in warm] == [p.result for p in cold],
         f"{len(cold)} points compared"),
    ]
    short = [p.point.value for p in cold if len(p.result.samples) != samples]
    checks.append(("every point serves its samples", not short, f"short points: {short}"))
    return checks


#: The Figure-5 grid and settings the golden snapshot test uses.
GOLDEN_M_VALUES = (1, 2, 4, 6)
GOLDEN_ALPHAS = (0.0, 0.3, 1.0)
GOLDEN_SAMPLES = 25


def reference_check(root: Path) -> Check:
    """Recompute ``tests/experiments/golden/fig5_small.json``; require equality."""
    from repro.experiments import EngineOptions, ExperimentSettings, figure5

    path = root / "tests" / "experiments" / "golden" / "fig5_small.json"
    if not path.exists():
        return ("fig5_small golden grid reproduced exactly", False, f"{path.name} missing")
    table = figure5(
        ExperimentSettings(scale="small", num_samples=GOLDEN_SAMPLES),
        m_values=GOLDEN_M_VALUES,
        alphas=GOLDEN_ALPHAS,
        engine=EngineOptions(workers=1),
    )
    payload = {
        "m_values": table.data["m_values"],
        "series": {f"alpha={a}": v for a, v in table.data["series"].items()},
    }
    expected = json.loads(path.read_text())
    same = json.loads(json.dumps(payload)) == expected
    return ("fig5_small golden grid reproduced exactly", same,
            f"{len(GOLDEN_M_VALUES) * len(GOLDEN_ALPHAS)} points")
