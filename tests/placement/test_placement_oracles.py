"""Differential tests: the placement helpers against their NumPy-era forms.

``zigzag_assign``, ``organ_pipe_order`` and ``_UnionFind`` now walk plain
Python lists.  The oracles below are the earlier implementations, copied
verbatim; hypothesis drives both on the same random inputs and requires the
same bins, orders and clusterings down to the last bit.
"""

import copy
from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import ObjectCatalog
from repro.hardware import TapeId
from repro.placement import PlacementError
from repro.placement.clustering import _UnionFind
from repro.placement.load_balance import TapeBin, zigzag_assign
from repro.placement.organ_pipe import organ_pipe_order


# -- oracles (verbatim copies of the earlier implementations) -----------------
def oracle_zigzag_assign(
    object_ids: Sequence[int],
    catalog: ObjectCatalog,
    bins: List[TapeBin],
    ndrv: Optional[int] = None,
) -> List[int]:
    """Assign one cluster's objects to ``bins`` per the Figure-3 walk.

    Mutates the bins in place; ``ndrv`` defaults to all bins.  Returns the
    object ids that fit on *no* tape of the batch (the caller overflows them
    to the next batch) — empty in the common case.
    """
    if not object_ids:
        return []
    if not bins:
        raise PlacementError("zigzag_assign needs at least one tape bin")
    if ndrv is None:
        ndrv = len(bins)
    ndrv = max(1, min(ndrv, len(bins)))

    # Window: the ndrv least-loaded tapes; within it, Figure-3's decreasing
    # workload order.
    window = sorted(bins, key=lambda b: b.workload)[:ndrv]
    window.sort(key=lambda b: -b.workload)

    # "sort objects in C into increasing order based on load"
    loads = {o: catalog.probability_of(o) * catalog.size_of(o) for o in object_ids}
    ordered = sorted(object_ids, key=lambda o: (loads[o], o))

    rejected: List[int] = []
    i, flag = 0, 0
    for object_id in ordered:
        if flag == 0:
            i += 1
        else:
            i -= 1
        if i == ndrv:
            flag = 1
            i -= 1
        if i == -1:
            flag = 0
            i += 1
        target = window[i]
        size = catalog.size_of(object_id)
        if not target.fits(size):
            # Deviate minimally: roomiest tape in the window, widening to
            # the whole batch only if the window is full (Step 3 guarantees
            # aggregate batch capacity, not per-tape capacity).
            candidates = [b for b in window if b.fits(size)]
            if not candidates:
                candidates = [b for b in bins if b.fits(size)]
            if not candidates:
                rejected.append(object_id)
                continue
            target = max(candidates, key=lambda b: b.free_mb)
        target.add(object_id, size, loads[object_id])
    return rejected


def oracle_organ_pipe_order(probabilities: Sequence[float]) -> List[int]:
    """Return indices arranged organ-pipe style (hottest in the middle).

    Items are taken hottest-first and appended to alternating sides of the
    middle, so the final left-to-right probability profile rises then falls.
    Ties break by original index for determinism.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("probabilities must be one-dimensional")
    n = len(probs)
    if n == 0:
        return []
    # Hottest first; stable tie-break on original index.
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


class OracleUnionFind:
    """Union-find tracking member count and total size per component."""

    def __init__(self, sizes_mb: np.ndarray) -> None:
        n = len(sizes_mb)
        self.parent = np.arange(n, dtype=np.int64)
        self.count = np.ones(n, dtype=np.int64)
        self.size_mb = sizes_mb.astype(np.float64).copy()

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
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


# -- strategies ----------------------------------------------------------------
# Few distinct values, so equal loads, workloads and sizes occur often.
_sizes = st.sampled_from([1.0, 2.5, 3.0, 7.25, 10.0, 0.1 + 0.2])
_probs = st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.3, 1 / 3, 0.5])


@st.composite
def zigzag_cases(draw):
    n = draw(st.integers(1, 14))
    catalog = ObjectCatalog(
        draw(st.lists(_sizes, min_size=n, max_size=n)),
        draw(st.lists(_probs, min_size=n, max_size=n)),
    )
    num_bins = draw(st.integers(1, 5))
    bins = []
    for j in range(num_bins):
        capacity = draw(st.sampled_from([3.0, 8.0, 12.5, 40.0]))
        tape_bin = TapeBin(TapeId(j % 2, j), capacity)
        tape_bin.used_mb = draw(st.sampled_from([0.0, 0.5, 2.0, capacity]))
        tape_bin.workload = draw(st.sampled_from([0.0, 0.0, 0.25, 1.0]))
        bins.append(tape_bin)
    # Several clusters assigned in turn, so later calls see loaded bins.
    ids = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    clusters = [list(ids[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    ndrvs = [draw(st.one_of(st.none(), st.integers(1, num_bins + 1))) for _ in clusters]
    return catalog, bins, clusters, ndrvs


def _bin_state(bins):
    return [(b.tape_id, b.used_mb.hex(), b.workload.hex(), list(b.object_ids)) for b in bins]


@settings(max_examples=400, deadline=None)
@given(zigzag_cases())
def test_zigzag_assign_matches_oracle(case):
    catalog, bins, clusters, ndrvs = case
    expected_bins, got_bins = copy.deepcopy(bins), copy.deepcopy(bins)
    for members, ndrv in zip(clusters, ndrvs):
        expected = oracle_zigzag_assign(members, catalog, expected_bins, ndrv)
        got = zigzag_assign(members, catalog, got_bins, ndrv)
        assert got == expected
        assert _bin_state(got_bins) == _bin_state(expected_bins)


def _zigzag_both(catalog, bins, members, ndrv):
    expected_bins, got_bins = copy.deepcopy(bins), copy.deepcopy(bins)
    expected = oracle_zigzag_assign(members, catalog, expected_bins, ndrv)
    got = zigzag_assign(members, catalog, got_bins, ndrv)
    assert got == expected
    assert _bin_state(got_bins) == _bin_state(expected_bins)
    return got, got_bins


def test_zigzag_full_window_overflows_to_batch():
    catalog = ObjectCatalog([4.0, 4.0, 4.0], [0.5, 0.3, 0.2])
    bins = [TapeBin(TapeId(0, j), 5.0) for j in range(3)]
    bins[0].workload = bins[1].workload = 0.0
    bins[2].workload = 9.0  # outside a two-tape window
    bins[0].used_mb = bins[1].used_mb = 4.0
    rejected, after = _zigzag_both(catalog, bins, [0, 1, 2], 2)
    # Lightest first: object 2 overflows to the batch tape, which then has
    # no room left for the others.
    assert rejected == [1, 0]
    assert after[2].object_ids == [2]


def test_zigzag_rejects_what_fits_nowhere():
    catalog = ObjectCatalog([6.0, 1.0], [0.1, 0.1])
    bins = [TapeBin(TapeId(0, 0), 5.0), TapeBin(TapeId(1, 0), 5.0)]
    rejected, after = _zigzag_both(catalog, bins, [0, 1], 1)
    assert rejected == [0]
    assert sum(len(b.object_ids) for b in after) == 1


def test_zigzag_ties_and_zero_probabilities():
    catalog = ObjectCatalog([2.0] * 6, [0.0, 0.0, 0.2, 0.2, 0.0, 0.1])
    bins = [TapeBin(TapeId(lib, 0), 100.0) for lib in range(4)]
    for ndrv in (None, 1, 2, 3, 4, 9):
        _zigzag_both(catalog, bins, [5, 4, 3, 2, 1, 0], ndrv)
        _zigzag_both(catalog, bins, [3], ndrv)


@settings(max_examples=400, deadline=None)
@given(st.lists(_probs, max_size=30))
def test_organ_pipe_order_matches_oracle(probs):
    assert organ_pipe_order(probs) == oracle_organ_pipe_order(probs)
    assert organ_pipe_order(np.asarray(probs)) == oracle_organ_pipe_order(probs)


def test_organ_pipe_order_rejects_2d_like_oracle():
    for fn in (organ_pipe_order, oracle_organ_pipe_order):
        with pytest.raises(ValueError, match="one-dimensional"):
            fn(np.ones((2, 2)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_sizes, min_size=1, max_size=20),
    st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40),
    st.one_of(st.none(), st.integers(1, 6)),
    st.one_of(st.none(), st.sampled_from([5.0, 10.0, 12.35, 30.0])),
)
def test_union_find_matches_oracle(sizes, unions, max_count, max_size_mb):
    n = len(sizes)
    sizes = np.asarray(sizes)
    expected, got = OracleUnionFind(sizes), _UnionFind(sizes)
    for a, b in unions:
        a, b = a % n, b % n
        assert got.try_union(a, b, max_count, max_size_mb) == expected.try_union(
            a, b, max_count, max_size_mb
        )
    roots = [got.find(i) for i in range(n)]
    assert roots == [int(expected.find(i)) for i in range(n)]
    for root in set(roots):
        assert int(got.count[root]) == int(expected.count[root])
        assert float(got.size_mb[root]).hex() == float(expected.size_mb[root]).hex()
