"""Organ-pipe alignment of objects within one tape.

Classic result (Wong [24]; applied to tapes by Christodoulakis et al. [11]):
with independent access probabilities and a head that parks where it last
read, expected seek distance is minimized by placing the most popular object
in the middle and alternating successively less popular objects left/right —
the probability profile looks like an organ's pipes.

Every scheme in the paper uses this as Step 6 / within-tape alignment.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..catalog import ObjectCatalog
from ..hardware import ObjectExtent

__all__ = ["organ_pipe_order", "organ_pipe_extents", "sequential_extents"]


def organ_pipe_order(probabilities: Sequence[float]) -> List[int]:
    """Return indices arranged organ-pipe style (hottest in the middle).

    Items are taken hottest-first and appended to alternating sides of the
    middle, so the final left-to-right probability profile rises then falls.
    Ties break by original index for determinism.
    """
    array = np.asarray(probabilities, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError("probabilities must be one-dimensional")
    n = len(array)
    if n <= 1:
        return list(range(n))
    # Hottest first; stable tie-break on original index.
    probs = array.tolist()
    by_heat = sorted(range(n), key=lambda i: (-probs[i], i))
    left: List[int] = []
    right: List[int] = []
    for rank, idx in enumerate(by_heat):
        if rank == 0:
            right.append(idx)
        elif rank % 2 == 1:
            left.append(idx)
        else:
            right.append(idx)
    left.reverse()
    return left + right


def organ_pipe_extents(object_ids: Sequence[int], catalog: ObjectCatalog) -> List[ObjectExtent]:
    """Organ-pipe-align ``object_ids`` into contiguous extents from position 0."""
    probability_of, size_of = catalog.probability_of, catalog.size_of
    order = organ_pipe_order([probability_of(o) for o in object_ids])
    extents: List[ObjectExtent] = []
    position = 0.0
    for idx in order:
        object_id = object_ids[idx]
        size = size_of(object_id)
        extents.append(ObjectExtent(object_id, position, size))
        position += size
    return extents


def clustered_organ_pipe_extents(
    groups: Sequence[Sequence[int]], catalog: ObjectCatalog
) -> List[ObjectExtent]:
    """Organ-pipe whole groups; keep each group's members contiguous.

    Groups (clusters) are arranged organ-pipe by aggregate probability —
    hottest cluster in the middle of the tape — and within a group's
    segment members are organ-piped by their own probabilities.  For
    singleton groups this degenerates to plain per-object organ pipe; for
    cluster-structured tapes it additionally guarantees that co-requested
    objects are read as one contiguous run (minimal intra-request seek).
    """
    probability_of, size_of = catalog.probability_of, catalog.size_of
    group_probs = [sum(probability_of(o) for o in group) for group in groups]
    extents: List[ObjectExtent] = []
    position = 0.0
    for gi in organ_pipe_order(group_probs):
        members = list(groups[gi])
        if len(members) > 1:
            order = organ_pipe_order([probability_of(o) for o in members])
            members = [members[mi] for mi in order]
        for object_id in members:
            size = size_of(object_id)
            extents.append(ObjectExtent(object_id, position, size))
            position += size
    return extents


def sequential_extents(object_ids: Sequence[int], catalog: ObjectCatalog) -> List[ObjectExtent]:
    """FIFO alignment (no organ pipe) — the ablation baseline."""
    extents: List[ObjectExtent] = []
    position = 0.0
    size_of = catalog.size_of
    for object_id in object_ids:
        size = size_of(object_id)
        extents.append(ObjectExtent(object_id, position, size))
        position += size
    return extents
