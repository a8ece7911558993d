"""The object catalog: ids, sizes, and derived access probabilities.

Objects are identified by dense integer ids ``0 .. N-1``.  Sizes and
probabilities are stored once, in ``array('d')`` buffers that the NumPy
arrays view without a copy.  The rule: NumPy for whole-array passes (the
density sort, sums over many members); per-object walks read Python floats
through :meth:`ObjectCatalog.size_of` / :meth:`~ObjectCatalog.probability_of`,
which index the buffers directly instead of boxing a NumPy scalar per call.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

__all__ = ["StorageObject", "ObjectCatalog"]


@dataclass(frozen=True)
class StorageObject:
    """A lightweight view of one catalog entry."""

    id: int
    size_mb: float
    probability: float

    @property
    def density(self) -> float:
        """Probability density P(O)/size(O) — the Step-2 sort key."""
        return self.probability / self.size_mb

    @property
    def load(self) -> float:
        """Load P(O)×size(O) — the Sec. 5.4 balancing weight."""
        return self.probability * self.size_mb


class ObjectCatalog:
    """All objects of a workload, array-backed."""

    def __init__(self, sizes_mb: Sequence[float], probabilities: Optional[Sequence[float]] = None):
        sizes = np.asarray(sizes_mb, dtype=np.float64)
        if sizes.ndim != 1:
            raise ValueError("sizes_mb must be one-dimensional")
        if len(sizes) == 0:
            raise ValueError("catalog must contain at least one object")
        if np.any(sizes <= 0):
            raise ValueError("all object sizes must be positive")
        self._size_buf, self._sizes = _shared_buffer(sizes)
        if probabilities is None:
            self._prob_buf, self._probs = _shared_buffer(np.zeros(len(sizes)))
        else:
            self.set_probabilities(probabilities)

    # -- array access ------------------------------------------------------
    @property
    def sizes_mb(self) -> np.ndarray:
        """Read-only view of object sizes."""
        view = self._sizes.view()
        view.flags.writeable = False
        return view

    @property
    def probabilities(self) -> np.ndarray:
        """Read-only view of per-object access probabilities (Step 1)."""
        view = self._probs.view()
        view.flags.writeable = False
        return view

    @property
    def densities(self) -> np.ndarray:
        """P(O)/size(O) for every object."""
        return self._probs / self._sizes

    @property
    def loads(self) -> np.ndarray:
        """P(O)×size(O) for every object."""
        return self._probs * self._sizes

    def set_probabilities(self, probabilities: Sequence[float]) -> None:
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != self._sizes.shape:
            raise ValueError(
                f"probabilities shape {probs.shape} does not match catalog size {self._sizes.shape}"
            )
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        self._prob_buf, self._probs = _shared_buffer(probs)

    # -- scalar access -------------------------------------------------------
    def size_of(self, object_id: int) -> float:
        return self._size_buf[object_id]

    def probability_of(self, object_id: int) -> float:
        return self._prob_buf[object_id]

    def object(self, object_id: int) -> StorageObject:
        return StorageObject(object_id, self.size_of(object_id), self.probability_of(object_id))

    def total_size_mb(self, object_ids: Optional[Sequence[int]] = None) -> float:
        if object_ids is None:
            return float(self._sizes.sum())
        if len(object_ids) == 1:  # a one-element sum is the element
            return self.size_of(object_ids[0])
        return float(self._sizes[np.asarray(object_ids, dtype=np.intp)].sum())

    def __len__(self) -> int:
        return len(self._sizes)

    def __iter__(self) -> Iterator[StorageObject]:
        for i in range(len(self)):
            yield self.object(i)

    def __repr__(self) -> str:
        return (
            f"<ObjectCatalog {len(self)} objects, {self._sizes.sum() / 1e6:.2f} TB, "
            f"mean {self._sizes.mean():.0f} MB>"
        )


def _shared_buffer(values: np.ndarray):
    """An ``array('d')`` copy of ``values`` and a NumPy view of the same memory."""
    buf = array("d", np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return buf, np.frombuffer(buf, dtype=np.float64)
