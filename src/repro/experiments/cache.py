"""On-disk content-addressed result cache for sweep points.

A sweep point is fully described by pure data (workload parameters, system
spec, scheme configuration, sample count, derived seed — see
:class:`repro.experiments.parallel.PointSpec`), so its evaluation result can
be memoized under a key that *is* that description: the SHA-256 of the
point's canonical JSON serialization plus a code-version salt.  Re-running a
figure after editing one scheme's configuration therefore recomputes only
that scheme's points — every other key is unchanged and hits.

The salt (:data:`CACHE_SALT`) must be bumped whenever simulator or placement
*semantics* change in a way that alters results; the package version is also
folded in so released behavior changes invalidate automatically.

Entries are pickles written atomically (temp file + ``os.replace``), fanned
out over 256 two-hex-character subdirectories.  Corrupt or unreadable
entries are treated as misses and overwritten, never raised.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional

from ..hardware import TapeId

__all__ = [
    "CACHE_SALT",
    "MISS",
    "ResultCache",
    "canonicalize",
    "canonical_json",
    "content_key",
    "default_cache_dir",
]

#: Bump on any change to simulator/placement semantics that alters results.
CACHE_SALT = "sweep-v1"

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Dataclasses are tagged with their class name so two specs with
    coincidentally equal fields but different types key differently; floats
    pass through (``json.dumps`` emits ``repr``-round-trippable text);
    tuples/lists unify to lists; dict keys are stringified and sorted at
    dump time.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, **fields}
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, TapeId):
        # A named tuple now; keyed as the dataclass it was, so keys hold.
        return {"__dataclass__": "TapeId", "library": obj.library, "slot": obj.slot}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of :func:`canonicalize`'s output."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def content_key(obj: Any, *, salt: str = CACHE_SALT) -> str:
    """SHA-256 hex digest of ``obj``'s canonical form + version salt."""
    from .. import __version__

    payload = f"{__version__}/{salt}\n{canonical_json(obj)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-tape/sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-tape" / "sweeps"


class ResultCache:
    """Content-addressed pickle store with hit/miss accounting."""

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """The cached payload, or :data:`MISS` (also on corrupt entries)."""
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            self.misses += 1
            return MISS
        self.hits += 1
        return payload

    def put(self, key: str, payload: Any) -> None:
        """Store ``payload`` atomically; concurrent writers both succeed."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("??/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return (
            f"<ResultCache {self.root} hits={self.hits} misses={self.misses}>"
        )


def open_cache(cache_dir: "Path | str | None") -> Optional[ResultCache]:
    """A :class:`ResultCache` at ``cache_dir``, or ``None`` to disable."""
    if cache_dir is None:
        return None
    return ResultCache(cache_dir)
