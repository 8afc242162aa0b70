"""Sparse synchronous-exchange plan == the dense formulation, field by field.

``sync_exchange_compute`` builds its gather indices and alltoallv
accounting from one entry per nonzero (source, destination) cell; the
dense ``(p, p)`` formulation it replaced lives in
``tests/oracles_exchange.py``.  Every returned field — python ints,
int64 arrays, payload columns, the final permutation — must be equal,
and each rank's traced send row must equal the dense matrix row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exchange import (
    check_displs,
    sync_exchange_compute,
    sync_exchange_plan,
)
from repro.records import RecordBatch, concat_batch_arrays

from .oracles_exchange import sync_exchange_compute_dense


def _stage(p, n_of, route, *, seed=0, wide=False):
    """One ``((batch, displs), clock)`` deposit per rank.

    ``n_of(r)`` is rank ``r``'s record count; ``route(r, keys)`` returns
    the destination of each of its (sorted) records, non-decreasing.
    Keys carry many duplicates so unstable and stable orderings differ.
    """
    rng = np.random.default_rng(seed)
    stage = []
    for r in range(p):
        n = n_of(r)
        keys = np.sort(rng.integers(0, 16, n).astype(np.float64))
        payload = {"src": np.full(n, r, dtype=np.int64),
                   "pos": np.arange(n, dtype=np.int64)}
        if wide:
            payload["vec"] = rng.random((n, 3))
        batch = RecordBatch(keys, payload)
        dst = np.asarray(route(r, keys), dtype=np.int64)
        displs = np.searchsorted(dst, np.arange(p + 1), side="left")
        stage.append(((batch, check_displs(displs, p, n)),
                      float(rng.random())))
    return stage


def _by_key(p):
    return lambda r, keys: np.minimum((keys * p) // 16, p - 1)


SCENARIOS = {
    "uniform": lambda p: _stage(p, lambda r: 24, _by_key(p)),
    "empty_sources": lambda p: _stage(
        p, lambda r: 0 if r % 2 else 30, _by_key(p), seed=1),
    "one_destination": lambda p: _stage(
        p, lambda r: 20, lambda r, keys: np.full(keys.size, p // 2), seed=2),
    "zero_records": lambda p: _stage(p, lambda r: 0, _by_key(p), seed=3),
    "wide_payload": lambda p: _stage(
        p, lambda r: 10 + r % 7, _by_key(p), seed=4, wide=True),
}

BRANCHES = {
    "merge": dict(merge=True, stable=False),
    "stable_sort": dict(merge=False, stable=True),
    "unstable_sort": dict(merge=False, stable=False),
}


def _assert_fields_equal(got, ref):
    assert set(got) == set(ref) - {"S"}
    for k, v in ref.items():
        if k == "S":
            continue
        if k == "cols":
            assert got[k].keys() == v.keys()
            for name in v:
                np.testing.assert_array_equal(got[k][name], v[name])
        elif isinstance(v, np.ndarray):
            assert got[k].dtype == v.dtype, k
            np.testing.assert_array_equal(got[k], v, err_msg=k)
        else:
            assert type(got[k]) is type(v), k
            assert got[k] == v, k


@pytest.mark.parametrize("branch", sorted(BRANCHES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("p", [1, 2, 3, 7, 64, 256])
def test_sparse_plan_equals_dense_oracle(p, scenario, branch):
    stage = SCENARIOS[scenario](p)
    kw = BRANCHES[branch]
    got = sync_exchange_compute(stage, p=p, **kw)
    ref = sync_exchange_compute_dense(stage, p=p, **kw)
    _assert_fields_equal(got, ref)
    # the traced path's per-rank send row is the dense matrix row
    for me, ((batch, displs), _) in enumerate(stage):
        np.testing.assert_array_equal(
            np.diff(displs) * batch.row_nbytes, ref["S"][me])


@pytest.mark.parametrize("p", [1, 3, 64])
def test_plan_is_destination_major_and_sparse(p):
    stage = SCENARIOS["uniform"](p)
    displs = [e[0][1] for e in stage]
    _, _, offs = concat_batch_arrays([e[0][0] for e in stage])
    src, dst, count, displ = sync_exchange_plan(displs, offs)
    N = int(offs[-1])
    assert src.size <= min(p * p, N)
    assert np.all(count > 0)
    key = dst * p + src
    assert np.all(np.diff(key) > 0)  # (dst, src) strictly increasing
    assert int(count.sum()) == N
    D = np.stack(displs)
    np.testing.assert_array_equal(count, D[src, dst + 1] - D[src, dst])
    np.testing.assert_array_equal(displ, offs[src] + D[src, dst])
