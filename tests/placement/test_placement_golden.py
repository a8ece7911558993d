"""Bit-exact placement snapshots for every registered scheme.

Each case places a workload and hashes the whole :class:`PlacementResult`
(layouts, initial mounts, pinned tapes, tape priorities, metadata and any
subclass fields) with every float written as ``float.hex()``.  A digest
change means some placement moved by at least one ulp: either a bug or an
intended behavior change, in which case regenerate with

    PYTHONPATH=src python -m pytest tests/placement/test_placement_golden.py --update-golden

review why, and commit the new ``golden/placements.json``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentSettings, paper_workload
from repro.placement import available_schemes, make_scheme

GOLDEN = Path(__file__).parent / "golden" / "placements.json"
ALPHAS = (0.0, 0.6, 1.0)
PARALLEL_BATCH_M = (1, 4, 7)


def _canonical(value):
    """A JSON-ready form of ``value`` that keeps every float's exact bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            [f.name, _canonical(getattr(value, f.name))] for f in dataclasses.fields(value)
        ]
    if isinstance(value, dict):
        return sorted(([_canonical(k), _canonical(v)] for k, v in value.items()), key=repr)
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if hasattr(value, "item"):  # NumPy scalar
        return _canonical(value.item())
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def placement_digest(result) -> str:
    text = json.dumps(_canonical(result), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cases():
    for name in available_schemes():
        m_values = PARALLEL_BATCH_M if name == "parallel_batch" else (None,)
        for m in m_values:
            for alpha in ALPHAS:
                case = f"small/{name}/alpha={alpha}" + (f"/m={m}" if m else "")
                yield pytest.param("small", name, alpha, m, id=case)
    yield pytest.param("paper", "parallel_batch", None, 4, id="paper/parallel_batch/m=4")


_WORKLOADS = {}


def _workload_and_spec(scale, alpha):
    key = (scale, alpha)
    if key not in _WORKLOADS:
        settings = ExperimentSettings(scale=scale)
        _WORKLOADS[key] = (paper_workload(settings, alpha), settings.spec())
    return _WORKLOADS[key]


@pytest.mark.parametrize("scale,name,alpha,m", list(_cases()))
def test_placement_matches_golden(scale, name, alpha, m, update_golden, request):
    workload, spec = _workload_and_spec(scale, alpha)
    scheme = make_scheme(name, m=m) if m else make_scheme(name)
    result = scheme.place(workload, spec)
    result.validate(workload.catalog, spec)
    case = request.node.callspec.id
    digest = placement_digest(result)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if update_golden:
        golden[case] = digest
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"placement digest for {case} updated")
    assert case in golden, f"no golden digest for {case}; generate it with --update-golden"
    assert digest == golden[case], f"placement {case} changed"
