"""Node-level merging detour (Section 2.3): the ``NodeMerge`` phase.

The phase runs on the thread engine (one lane per rank) and on the flat
engine (the whole world columnar); every check here holds on both.
"""

import sys

import numpy as np

from repro.core import (LocalSort, NodeMerge, RunContext, SdsParams,
                        SortPlan)
from repro.machine import EDISON, LAPTOP
from repro.mpi import LANE, ColumnarWorld, run_spmd
from repro.records import RecordBatch
from repro.runner import run_sort
from repro.workloads import by_name

BACKENDS = ("thread", "flat")


class _MergeProgram:
    """Rank program: ``LocalSort`` then ``NodeMerge`` over a world view.

    Each rank reports ``(is_leader, batch, active_size, outcome)``: the
    merged batch and leader-communicator size on leaders, the exit
    outcome on ranks that handed their data off.
    """

    def __init__(self, shard):
        self.shard = shard

    def _run(self, world, comms):
        params = SdsParams()
        ctxs = [RunContext.start(c, self.shard(c.rank), params,
                                 SortPlan.for_params(params))
                for c in comms]
        LocalSort().run(world, ctxs)
        NodeMerge().run(world, ctxs)
        return [(True, ctx.batch, ctx.active.size, None)
                if ctx.outcome is None else (False, None, None, ctx.outcome)
                for ctx in ctxs]

    def __call__(self, comm):
        return self._run(LANE, [comm])[0]

    def flat_run(self, comms):
        world = ColumnarWorld(comms[0]._world)
        return self._run(world, comms), world.failures


def run_merge(p, machine, backend, n=16, shard=None):
    def random_shard(rank):
        return RecordBatch(np.random.default_rng(rank).random(n))

    return run_spmd(_MergeProgram(shard or random_shard), p,
                    machine=machine, backend=backend).results


class TestNodeMerge:
    def test_one_leader_per_node(self):
        for backend in BACKENDS:
            out = run_merge(16, LAPTOP, backend)  # 8 cores/node: 2 nodes
            leaders = [r[0] for r in out]
            assert leaders == [True] + [False] * 7 + [True] + [False] * 7
            assert all(r[3].info["node_merged"] and not r[3].active
                       and len(r[3].batch) == 0 for r in out if not r[0])

    def test_leader_holds_all_node_data(self):
        for backend in BACKENDS:
            out = run_merge(16, LAPTOP, backend, n=10)
            for leader, node in ((0, range(8)), (8, range(8, 16))):
                merged = out[leader][1]
                want = np.sort(np.concatenate(
                    [np.random.default_rng(r).random(10) for r in node]))
                assert len(merged) == 8 * 10
                assert merged.is_sorted()
                assert np.array_equal(merged.keys, want)

    def test_leader_comm_spans_nodes(self):
        for backend in BACKENDS:
            out = run_merge(16, LAPTOP, backend)
            assert out[0][2] == 2
            assert out[8][2] == 2
            assert out[1][2] is None

    def test_cores_merged_records_local_size(self):
        # 12 ranks on 8-core nodes: the second node holds only 4 ranks
        for backend in BACKENDS:
            out = run_merge(12, LAPTOP, backend, n=5)
            assert [r[0] for r in out] == [True] + [False] * 7 + \
                [True] + [False] * 3
            assert len(out[0][1]) == 8 * 5
            assert len(out[8][1]) == 4 * 5

    def test_single_node_skips_merge(self):
        # funnelling a one-node world would serialise it onto rank 0
        for backend in BACKENDS:
            out = run_merge(8, LAPTOP, backend)
            assert all(r[0] and len(r[1]) == 16 and r[2] == 8 for r in out)

    def test_edison_node_width(self):
        for backend in BACKENDS:
            res = run_sort("sds", by_name("uniform"), n_per_rank=64, p=48,
                           machine=EDISON, backend=backend)
            assert res.ok, res.failure
            assert res.extras["p_active"] == 2  # two leaders
            assert sum(1 for load in res.loads if load) == 2

    def test_merge_preserves_multiset(self):
        def shard(rank):
            return RecordBatch(np.full(4, float(rank)))

        for backend in BACKENDS:
            out = run_merge(16, LAPTOP, backend, shard=shard)
            for leader in (0, 8):
                want = np.repeat(np.arange(leader, leader + 8.0), 4)
                assert np.array_equal(out[leader][1].keys, want)


def _choice(res, name):
    return {d["decision"]: d["choice"]
            for d in res.extras["decisions"]}[name]


def _pair(algorithm, **kw):
    return [run_sort(algorithm, by_name("uniform"), backend=backend, **kw)
            for backend in BACKENDS]


def _assert_same_run(t, f):
    assert t.ok and f.ok, (t.failure, f.failure)
    assert t.elapsed == f.elapsed
    assert t.loads == f.loads
    assert t.phase_times == f.phase_times
    assert t.extras["mem_peaks"] == f.extras["mem_peaks"]
    assert t.extras["decisions"] == f.extras["decisions"]
    assert t.extras["traces"] == f.extras["traces"]


class TestNodeMemoryPooling:
    """A leader's capacity is its node's pooled memory."""

    def test_default_memory_node_merge_is_ok(self):
        for p, n in ((64, 2000), (256, 64)):
            t, f = _pair("sds", n_per_rank=n, p=p)
            _assert_same_run(t, f)
            assert _choice(t, "node_merge") == "merge"
            assert t.extras["p_active"] == -(-p // EDISON.cores_per_node)

    def test_exceeding_pooled_memory_still_ooms(self):
        # one shard of capacity per rank: the node's pool holds exactly
        # the node's shards, so the leader's input plus merge overflow
        for res in _pair("sds", n_per_rank=2000, p=64, mem_factor=1.0):
            assert not res.ok and res.oom
            assert "SimOOMError" in res.failure


class TestPartialNodeEquivalence:
    """p=50 on Edison: nodes of 24, 24 and 2 ranks.

    Unlimited memory: the 2-rank node's pool (two shares) cannot hold
    the third of the data its leader receives under the default factor.
    """

    def test_thread_equals_flat(self):
        for algorithm in ("sds", "sds-stable"):
            t, f = _pair(algorithm, n_per_rank=100, p=50, mem_factor=None,
                         keep_outputs=True)
            _assert_same_run(t, f)
            assert _choice(t, "node_merge") == "merge"
            assert t.extras["p_active"] == 3
            for a, b in zip(t.outputs, f.outputs):
                assert a.keys.dtype == b.keys.dtype
                assert a.keys.tobytes() == b.keys.tobytes()
                assert a.columns == b.columns
                for name in a.columns:
                    assert a.payload[name].tobytes() == \
                        b.payload[name].tobytes()


def test_flat_node_merge_work_counts(monkeypatch):
    """Deterministic work-count gate on the flat node merge at p=4Ki.

    4096 ranks on 24-core nodes are 170 full nodes plus one of 16: two
    (node length, key dtype) buckets, so at most two sort-kernel calls
    and no per-leader merge calls.
    """
    calls = {"merge": 0, "sort": 0}
    active = [False]

    def counting(fn, kind):
        def wrapper(*args, **kwargs):
            if active[0]:
                calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    kinds = {"merge_two_perm": "merge", "kway_merge_perm": "merge",
             "batched_argsort_rows": "sort", "sequential_argsort": "sort"}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro.") or mod is None:
            continue
        for attr, kind in kinds.items():
            fn = getattr(mod, attr, None)
            if fn is not None:
                monkeypatch.setattr(mod, attr, counting(fn, kind))

    phase_run = NodeMerge.run

    def traced_run(self, world, ctxs):
        active[0] = True
        try:
            return phase_run(self, world, ctxs)
        finally:
            active[0] = False

    monkeypatch.setattr(NodeMerge, "run", traced_run)
    res = run_sort("sds", by_name("uniform"), n_per_rank=16, p=4096,
                   backend="flat", mem_factor=None, keep_outputs=True)
    assert res.ok, res.failure
    assert _choice(res, "node_merge") == "merge"
    assert calls["merge"] == 0, calls
    assert 1 <= calls["sort"] <= 2, calls
    exits = [b for b, load in zip(res.outputs, res.loads) if load == 0]
    assert len(exits) == 4096 - 171
    assert all(b is exits[0] for b in exits)
