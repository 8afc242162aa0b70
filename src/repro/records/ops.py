"""Merge/sort operations over :class:`RecordBatch` (payload-preserving).

Keys are compared once in the kernel layer; payloads are reordered by
the resulting permutation — the moral equivalent of sorting records by
key without promoting payload into the comparison, which is the
SDS-Sort design point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..kernels import (
    batched_argsort_rows,
    kway_merge_perm,
    merge_two_perm,
    natural_merge_sort_perm,
    sequential_argsort,
)
from .batch import RecordBatch


def merge_two_batches(a: RecordBatch, b: RecordBatch) -> RecordBatch:
    """Stably merge two key-sorted batches (ties: ``a`` first)."""
    _, perm = merge_two_perm(a.keys, b.keys)
    return RecordBatch.concat([a, b]).take(perm)


def kway_merge_batches(batches: Sequence[RecordBatch]) -> RecordBatch:
    """Stably merge ``k`` key-sorted batches (ties: earlier batch first)."""
    batches = list(batches)
    if not batches:
        return RecordBatch.empty_like(RecordBatch([]))
    if len(batches) == 1:
        return batches[0].copy()
    _, perm = kway_merge_perm([b.keys for b in batches])
    return RecordBatch.concat(batches).take(perm)


def kway_merge_groups(groups: Sequence[Sequence[RecordBatch]]
                      ) -> list[RecordBatch]:
    """Stably k-way merge many groups of key-sorted batches at once.

    Entry ``i`` equals ``kway_merge_batches(groups[i])`` field for
    field.  Groups of equal total length, key dtype and payload schema
    share a bucket, merged by one row-wise stable argsort of the
    bucket's ``(groups, length)`` key stack and one gather per column;
    each group gets a row view of the result.  The stable merge of
    sorted runs in source order is unique and equals the stable argsort
    of their concatenation (the identity ``kway_merge_perm`` uses above
    ``_ARGSORT_K`` chunks), so the permutations agree.  Views share
    their bucket's storage: treat the results as read-only.
    """
    out: list[RecordBatch | None] = [None] * len(groups)
    buckets: dict[tuple, list[int]] = {}
    for i, group in enumerate(groups):
        if not group or any(b.columns != group[0].columns for b in group):
            out[i] = kway_merge_batches(group)  # empty, or schema error
            continue
        first = group[0]
        schema = tuple((name, col.dtype.str, col.shape[1:])
                       for name, col in first.payload.items())
        key = (sum(len(b) for b in group), first.keys.dtype.str, schema)
        buckets.setdefault(key, []).append(i)
    for (length, kdtype, schema), members in buckets.items():
        chunks = [b for i in members for b in groups[i]]
        keys = np.concatenate([b.keys for b in chunks])
        cols = {name: np.concatenate([b.payload[name] for b in chunks])
                for name, _, _ in schema}
        if keys.dtype.str != kdtype or any(
                cols[name].dtype.str != dt for name, dt, _ in schema):
            for i in members:  # mixed dtypes in the bucket: promote per group
                out[i] = kway_merge_batches(groups[i])
            continue
        g = len(members)
        perm = batched_argsort_rows(keys.reshape(g, length), stable=True)
        flat = (perm + np.arange(g)[:, None] * length).ravel()
        keys = keys[flat].reshape(g, length)
        cols = {name: col[flat].reshape((g, length) + col.shape[1:])
                for name, col in cols.items()}
        for j, i in enumerate(members):
            out[i] = RecordBatch._unsafe(
                keys[j], {name: col[j] for name, col in cols.items()})
    return out


def sort_batch(batch: RecordBatch, *, stable: bool = False) -> RecordBatch:
    """Sort a batch by key (unstable introsort or stable timsort)."""
    return batch.take(sequential_argsort(batch.keys, stable=stable))


def adaptive_sort_batch(batch: RecordBatch) -> RecordBatch:
    """Stable natural-merge sort exploiting pre-existing runs.

    The 'sorting' option of the final local ordering (Section 2.7):
    post-exchange data is ``p`` concatenated runs, so this does
    ``O(m log p)`` real work instead of ``O(m log m)``.
    """
    _, perm = natural_merge_sort_perm(batch.keys)
    return batch.take(perm)
