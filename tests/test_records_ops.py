"""Payload-preserving merge/sort operations over RecordBatch."""

import numpy as np
import pytest

from repro.kernels.merge import _ARGSORT_K
from repro.records import (
    RecordBatch,
    adaptive_sort_batch,
    kway_merge_batches,
    kway_merge_groups,
    merge_two_batches,
    sort_batch,
)


def _tagged(keys, tag):
    keys = np.asarray(keys, dtype=np.float64)
    return RecordBatch(keys, {"tag": np.full(len(keys), tag)})


class TestMergeTwoBatches:
    def test_payload_follows_keys(self):
        out = merge_two_batches(_tagged([1.0, 3.0], 0), _tagged([2.0], 1))
        assert list(out.keys) == [1.0, 2.0, 3.0]
        assert list(out.payload["tag"]) == [0, 1, 0]

    def test_tie_break_prefers_first(self):
        out = merge_two_batches(_tagged([5.0], 0), _tagged([5.0], 1))
        assert list(out.payload["tag"]) == [0, 1]


class TestKwayMergeBatches:
    def test_empty(self):
        assert len(kway_merge_batches([])) == 0

    def test_single(self):
        out = kway_merge_batches([_tagged([1.0, 2.0], 0)])
        assert list(out.keys) == [1.0, 2.0]

    def test_many(self, rng):
        batches = [_tagged(np.sort(rng.random(15)), i) for i in range(6)]
        out = kway_merge_batches(batches)
        allkeys = np.concatenate([b.keys for b in batches])
        assert np.array_equal(out.keys, np.sort(allkeys))

    def test_stability_by_batch_order(self):
        batches = [_tagged([1.0], 0), _tagged([1.0], 1), _tagged([1.0], 2)]
        out = kway_merge_batches(batches)
        assert list(out.payload["tag"]) == [0, 1, 2]


def _run(rng, n, rank, dtype, *, distinct=1000, nan=False, wide=False):
    """One sorted run with provenance payload (and NaNs / a 2-D column)."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        keys = rng.integers(0, distinct, n).astype(dtype) / distinct
        if nan and n:
            keys[rng.random(n) < 0.2] = np.nan
    else:
        keys = rng.integers(-distinct, distinct, n).astype(dtype)
    keys = np.sort(keys)
    payload = {"rank": np.full(n, rank, dtype=np.int32),
               "pos": np.arange(n, dtype=np.int64)}
    if wide:
        payload["vec"] = rng.random((n, 3))
    return RecordBatch(keys, payload)


def _assert_identical(got, want):
    assert got.keys.dtype == want.keys.dtype
    assert got.keys.shape == want.keys.shape
    assert got.keys.tobytes() == want.keys.tobytes()
    assert got.columns == want.columns
    for name in want.columns:
        a, b = got.payload[name], want.payload[name]
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


class TestKwayMergeGroups:
    """Each group's merge equals per-group ``kway_merge_batches``."""

    def _check(self, groups):
        got = kway_merge_groups(groups)
        assert len(got) == len(groups)
        for g, group in zip(got, groups):
            _assert_identical(g, kway_merge_batches(group))

    def test_no_groups(self):
        assert kway_merge_groups([]) == []

    @pytest.mark.parametrize("dtype", ["f8", "f4", "i8", "i4"])
    def test_dtypes_ties_and_nan(self, rng, dtype):
        groups = [[_run(rng, 20, r, dtype, distinct=5, nan=True)
                   for r in range(k)] for k in (24, 24, 24, 7, 1)]
        self._check(groups)

    def test_all_equal_keys(self, rng):
        groups = [[_run(rng, 9, r, "f8", distinct=1) for r in range(6)]
                  for _ in range(3)]
        self._check(groups)

    def test_empty_chunks_and_one_rank_nodes(self, rng):
        groups = [[_run(rng, n, r, "f8") for r, n in enumerate(sizes)]
                  for sizes in ((0, 5, 0, 3), (0, 0), (4,), (0,), (8,))]
        groups.append([])
        self._check(groups)

    def test_unequal_node_sizes(self, rng):
        # a partial last node: 24, 24 and 2 ranks
        groups = [[_run(rng, 16, r, "i8", distinct=50) for r in range(k)]
                  for k in (24, 24, 2)]
        self._check(groups)

    def test_two_dimensional_payload(self, rng):
        groups = [[_run(rng, 12, r, "f8", distinct=10, wide=True)
                   for r in range(k)] for k in (5, 5, 3)]
        self._check(groups)

    @pytest.mark.parametrize("k", [2, _ARGSORT_K - 1, _ARGSORT_K + 7])
    def test_chunk_counts_around_argsort_switch(self, rng, k):
        groups = [[_run(rng, 6, r, "f4", distinct=8) for r in range(k)]
                  for _ in range(4)]
        self._check(groups)

    def test_mixed_key_dtypes_promote_per_group(self, rng):
        groups = [[_run(rng, 5, r, "i4") for r in range(3)],
                  [_run(rng, 5, 0, "i4"), _run(rng, 5, 1, "i8"),
                   _run(rng, 5, 2, "i4")]]
        self._check(groups)

    def test_schema_mismatch_raises(self, rng):
        bad = [_run(rng, 4, 0, "f8"), RecordBatch(np.arange(4.0))]
        with pytest.raises(ValueError, match="schema"):
            kway_merge_groups([bad])


class TestSortBatch:
    def test_sorts_with_payload(self, rng):
        keys = rng.integers(0, 10, 100).astype(float)
        b = RecordBatch(keys, {"pos": np.arange(100)})
        out = sort_batch(b)
        assert out.is_sorted()
        assert np.array_equal(keys[out.payload["pos"]], out.keys)

    def test_stable_mode(self):
        b = RecordBatch(np.array([1.0, 1.0, 1.0]), {"pos": np.array([0, 1, 2])})
        out = sort_batch(b, stable=True)
        assert list(out.payload["pos"]) == [0, 1, 2]


class TestAdaptiveSortBatch:
    def test_equivalent_to_stable_sort(self, rng):
        keys = rng.integers(0, 8, 150).astype(float)
        b = RecordBatch(keys, {"pos": np.arange(150)})
        got = adaptive_sort_batch(b)
        want = sort_batch(b, stable=True)
        assert np.array_equal(got.keys, want.keys)
        assert np.array_equal(got.payload["pos"], want.payload["pos"])

    def test_presorted_identity(self):
        b = RecordBatch(np.arange(20.0), {"pos": np.arange(20)})
        out = adaptive_sort_batch(b)
        assert np.array_equal(out.payload["pos"], np.arange(20))
