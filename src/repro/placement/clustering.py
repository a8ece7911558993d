"""Object clustering from co-access similarity (Sec. 5.1).

The similarity of two objects is the summed probability of all requests that
contain both.  Following the paper, request information drives the
computation: only object pairs that actually co-occur in some request get an
edge, which keeps the similarity graph sparse (≈ Σ |R|²/2 entries instead of
N²) and is computed vectorized.

Cluster formation is single-linkage hierarchical agglomeration (Johnson
[17]): edges are processed in decreasing similarity and merged with
union-find; "traversing the tree with a preset probability value" is
equivalent to discarding edges below the threshold.  Merges can additionally
be capped by cluster object count and total size — the Sec.-5.1 rule that
cluster size be controlled for maximum parallelism and the batch-capacity
constraint of Step 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..catalog import RequestSet
from ..workload import Workload

__all__ = ["Cluster", "Clustering", "similarity_edges", "cluster_objects"]


def similarity_edges(
    requests: RequestSet, num_objects: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All co-access pairs and their similarities.

    Returns ``(pairs, weights)`` where ``pairs`` is an ``(E, 2)`` int array
    with ``pairs[:, 0] < pairs[:, 1]`` and ``weights[e]`` is the summed
    probability of requests containing both objects of pair ``e``.
    """
    keys: List[np.ndarray] = []
    pair_counts: List[int] = []
    pair_probs: List[float] = []
    probs = requests.probabilities
    for request, p in zip(requests, probs):
        ids = np.sort(np.asarray(request.object_ids, dtype=np.int64))
        c = len(ids)
        if c < 2:
            continue
        a, b = np.triu_indices(c, k=1)
        keys.append(ids[a] * num_objects + ids[b])
        pair_counts.append(len(a))
        pair_probs.append(p)
    if not keys:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    all_keys = np.concatenate(keys)
    # One repeat assembles the whole weight column (each request's
    # probability, repeated once per pair) instead of allocating and
    # concatenating a per-request ``np.full`` slice.
    all_weights = np.repeat(np.asarray(pair_probs), pair_counts)
    uniq, inverse = np.unique(all_keys, return_inverse=True)
    agg = np.bincount(inverse, weights=all_weights)
    pairs = np.stack([uniq // num_objects, uniq % num_objects], axis=1)
    return pairs, agg


@dataclass(frozen=True)
class Cluster:
    """One group of strongly related objects."""

    objects: Tuple[int, ...]
    #: Accumulated object probability Σ P(O) over members.
    probability: float
    #: Total member size in MB.
    size_mb: float

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def density(self) -> float:
        return self.probability / self.size_mb if self.size_mb > 0 else 0.0


class Clustering:
    """The result of clustering: clusters plus a per-object label array."""

    def __init__(self, clusters: List[Cluster], labels: np.ndarray) -> None:
        self.clusters = clusters
        self.labels = labels

    def cluster_of(self, object_id: int) -> int:
        """Index into :attr:`clusters` for ``object_id``."""
        return int(self.labels[object_id])

    @property
    def num_objects(self) -> int:
        return len(self.labels)

    def multi_object_clusters(self) -> List[Cluster]:
        return [c for c in self.clusters if len(c) > 1]

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def __repr__(self) -> str:
        multi = self.multi_object_clusters()
        biggest = max((len(c) for c in self.clusters), default=0)
        return (
            f"<Clustering {len(self.clusters)} clusters over {self.num_objects} objects "
            f"({len(multi)} non-trivial, largest {biggest})>"
        )


class _UnionFind:
    """Union-find tracking member count and total size per component.

    Plain Python lists: ``find`` runs once per union attempt and per object,
    and list indexing avoids a NumPy scalar round-trip on every step.
    """

    def __init__(self, sizes_mb: Sequence[float]) -> None:
        self.size_mb: List[float] = np.asarray(sizes_mb, dtype=np.float64).tolist()
        n = len(self.size_mb)
        self.parent = list(range(n))
        self.count = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def try_union(
        self, a: int, b: int, max_count: Optional[int], max_size_mb: Optional[float]
    ) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if max_count is not None and self.count[ra] + self.count[rb] > max_count:
            return False
        if max_size_mb is not None and self.size_mb[ra] + self.size_mb[rb] > max_size_mb:
            return False
        # Union by member count.
        if self.count[ra] < self.count[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.count[ra] += self.count[rb]
        self.size_mb[ra] += self.size_mb[rb]
        return True


def cluster_objects(
    workload: Workload,
    threshold: float = 0.0,
    max_objects: Optional[int] = None,
    max_size_mb: Optional[float] = None,
    method: str = "requests",
    detach_shared: bool = False,
) -> Clustering:
    """Cluster a workload's objects by co-access similarity.

    Parameters
    ----------
    threshold:
        Minimum similarity for a merge ("preset probability value").
        The default 0.0 admits every co-occurrence edge.
    max_objects, max_size_mb:
        Caps on cluster member count / total size; merges that would exceed
        either are skipped (stronger-similarity merges happen first, so caps
        cut the dendrogram where it is weakest).
    method:
        ``"pairs"`` — exact single-linkage over the aggregated pair
        similarity graph (O(E) union operations; E ≈ Σ|R|²/2).
        ``"requests"`` (default) — request-linkage: requests are processed in
        decreasing probability and each request's members are merged
        directly.  For pairs that co-occur in a single request (the vast
        majority under the paper's random-membership workload) the two are
        identical; with no caps and threshold 0 they produce exactly the
        same components (union of request cliques), while request-linkage
        does O(Σ|R|) merges instead of O(Σ|R|²).
    detach_shared:
        Keep objects that appear in *two or more* requests out of all
        clusters (they stay singletons).  Such objects are the bridges of
        the co-access graph: single-linkage would chain otherwise-unrelated
        requests through them, whereas their average similarity to any one
        request cluster is low (the complete/average-linkage view of the
        hierarchical algorithm the paper cites).  Their accumulated
        probability ``Σ P(R)`` is also the highest in the workload, so as
        singletons the density sort of Step 2 naturally pulls them into the
        always-mounted batch.  Only affects ``method="requests"``.
    """
    catalog = workload.catalog
    n = len(catalog)

    shared: Optional[List[bool]] = None
    if detach_shared and method == "requests":
        counts = np.zeros(n, dtype=np.int64)
        for request in workload.requests:
            counts[list(request.object_ids)] += 1
        shared = (counts >= 2).tolist()

    uf = _UnionFind(catalog.sizes_mb)
    if method == "pairs":
        pairs, weights = similarity_edges(workload.requests, n)
        if len(pairs):
            keep = weights >= threshold if threshold > 0 else slice(None)
            pairs, weights = pairs[keep], weights[keep]
            order = np.argsort(-weights, kind="stable")
            for a, b in pairs[order].tolist():
                uf.try_union(a, b, max_objects, max_size_mb)
    elif method == "requests":
        requests = workload.requests
        probs = requests.probabilities
        order = np.argsort(-probs, kind="stable")
        for ri, p in zip(order.tolist(), probs[order].tolist()):
            request = requests[ri]
            if p < threshold or len(request) < 2:
                continue
            members = request.object_ids
            if shared is not None:
                members = tuple(o for o in members if not shared[o])
                if len(members) < 2:
                    continue
            anchor = members[0]
            for other in members[1:]:
                if not uf.try_union(anchor, other, max_objects, max_size_mb):
                    # Anchor's cluster is full; keep growing from the member
                    # that failed so later members can still clique together.
                    anchor = other
    else:
        raise ValueError(f"unknown clustering method {method!r}")

    roots = np.array([uf.find(i) for i in range(n)], dtype=np.int64)
    uniq_roots, labels = np.unique(roots, return_inverse=True)
    members: List[List[int]] = [[] for _ in uniq_roots]
    for obj, label in enumerate(labels.tolist()):
        members[label].append(obj)

    # A one-element sum is the element; larger clusters keep NumPy's
    # pairwise summation, whose order is part of the result bits.
    probs = np.asarray(catalog.probabilities)
    sizes = np.asarray(catalog.sizes_mb)
    clusters = [
        Cluster((objs[0],), catalog.probability_of(objs[0]), catalog.size_of(objs[0]))
        if len(objs) == 1
        else Cluster(tuple(objs), float(probs[objs].sum()), float(sizes[objs].sum()))
        for objs in members
    ]
    return Clustering(clusters, labels)
