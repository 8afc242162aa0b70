"""Deterministic host-memory gates: no dense p x p allocation at p=4Ki.

The flat engine's full-p path must not hold O(p^2) host state: the
synchronous exchange plan is sparse (one entry per nonzero cell) and an
allgather hands every rank one shared tuple.  Peaks are measured with
``tracemalloc`` (numpy reports its buffers to it), so the gates are
deterministic — independent of host speed and of other tenants — and
fail loudly if a ``(p, p)`` int64 array (128 MiB at p=4096) or p
private p-long lists come back.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.exchange import check_displs, sync_exchange_compute
from repro.machine import EDISON
from repro.mpi import ColumnarWorld, SimWorld
from repro.mpi.flatworld import make_world_comms
from repro.records import RecordBatch

P = 4096
#: A quarter of one dense p x p int64 matrix (32 MiB at p=4096).
BOUND = P * P * 8 // 4


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_sync_exchange_plan_peak_is_subquadratic():
    n = 16
    rng = np.random.default_rng(0)
    stage = []
    for r in range(P):
        keys = np.sort(rng.random(n))
        batch = RecordBatch(keys, {"src": np.full(n, r, dtype=np.int64)})
        dst = np.minimum((keys * P).astype(np.int64), P - 1)
        displs = np.searchsorted(dst, np.arange(P + 1), side="left")
        stage.append(((batch, check_displs(displs, P, n)), 0.0))
    out: dict = {}

    def run():
        out.update(sync_exchange_compute(stage, p=P, merge=False,
                                         stable=False))

    peak = _peak(run)
    assert int(out["bounds"][-1]) == P * n
    assert peak < BOUND, f"sync exchange peaked at {peak / 2**20:.1f} MiB"


def test_columnar_allgather_peak_is_linear():
    comms = make_world_comms(SimWorld(P, EDISON))
    world = ColumnarWorld(comms[0]._world)
    values = list(range(P))
    outs: list = []

    def run():
        outs.extend(world.allgather(comms, values))

    peak = _peak(run)
    assert all(o is outs[0] for o in outs)
    assert peak < BOUND, f"allgather peaked at {peak / 2**20:.1f} MiB"
