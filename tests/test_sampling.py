"""Regular sampling and pivot selection (Section 2.4)."""

import numpy as np
import pytest

from repro.core import local_pivots, select_pivots_bitonic, select_pivots_gather
from repro.core.sampling import _pivot_positions, select_pivots_bitonic_world
from repro.machine import EDISON
from repro.mpi import ColumnarWorld, SimWorld, run_spmd
from repro.mpi.flatworld import make_world_comms

from .test_backends import _WorldProg


class TestLocalPivots:
    def test_count(self, rng):
        a = np.sort(rng.random(100))
        assert local_pivots(a, 8).size == 7
        assert local_pivots(a, 1).size == 0

    def test_pivots_are_quantiles(self):
        a = np.arange(100, dtype=np.float64)
        pl = local_pivots(a, 4)
        assert list(pl) == [25.0, 50.0, 75.0]

    def test_fractional_stride_covers_tail(self):
        """The floor(k*n/p) positions leave at most n/p unsampled at the
        top — the fix for the 128K-rank tail blow-up (see docstring)."""
        n, p = 1000, 7
        a = np.arange(n, dtype=np.float64)
        pl = local_pivots(a, p)
        assert pl[-1] >= n - n / p - 1

    def test_sorted_output(self, rng):
        a = np.sort(rng.random(64))
        pl = local_pivots(a, 16)
        assert np.all(np.diff(pl) >= 0)

    def test_tiny_input_degrades(self):
        a = np.array([1.0, 2.0])
        pl = local_pivots(a, 8)
        assert pl.size == 7
        assert set(pl) <= {1.0, 2.0}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            local_pivots(np.array([]), 4)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            local_pivots(np.array([1.0]), 0)


class TestPivotSelection:
    @staticmethod
    def _run(method, p, seed=0):
        def prog(comm):
            rng = np.random.default_rng(seed + comm.rank)
            a = np.sort(rng.random(256))
            pl = local_pivots(a, comm.size)
            return method(comm, pl), a
        res = run_spmd(prog, p)
        pgs = [r[0] for r in res.results]
        shards = [r[1] for r in res.results]
        return pgs, shards

    def test_gather_all_ranks_agree(self):
        pgs, _ = self._run(select_pivots_gather, 4)
        for pg in pgs[1:]:
            assert np.array_equal(pg, pgs[0])

    def test_bitonic_all_ranks_agree(self):
        pgs, _ = self._run(select_pivots_bitonic, 8)
        for pg in pgs[1:]:
            assert np.array_equal(pg, pgs[0])

    def test_bitonic_matches_gather(self):
        """Both select stride-p elements of the same pooled samples."""
        pg_b, _ = self._run(select_pivots_bitonic, 8, seed=11)
        pg_g, _ = self._run(select_pivots_gather, 8, seed=11)
        assert np.array_equal(pg_b[0], pg_g[0])

    def test_pivot_count_and_order(self):
        pgs, _ = self._run(select_pivots_bitonic, 8)
        assert pgs[0].size == 7
        assert np.all(np.diff(pgs[0]) >= 0)

    def test_pivots_near_global_quantiles(self):
        pgs, shards = self._run(select_pivots_bitonic, 8, seed=3)
        pooled = np.sort(np.concatenate(shards))
        for j, pv in enumerate(pgs[0]):
            q = (j + 1) / 8
            rank = np.searchsorted(pooled, pv) / pooled.size
            assert abs(rank - q) < 0.08

    def test_bitonic_nonpow2_falls_back(self):
        pgs, _ = self._run(select_pivots_bitonic, 6)
        assert pgs[0].size == 5
        for pg in pgs[1:]:
            assert np.array_equal(pg, pgs[0])

    def test_single_rank(self):
        def prog(comm):
            pl = local_pivots(np.arange(10.0), 1)
            return select_pivots_bitonic(comm, pl)
        res = run_spmd(prog, 1)
        assert res.results[0].size == 0


def _columnar(p):
    comms = make_world_comms(SimWorld(p, EDISON))
    return ColumnarWorld(comms[0]._world), comms


class TestColumnarPivots:
    """The flat engine's pivot path: O(p) assembly, shared allgathers."""

    @pytest.mark.parametrize("p", [2 ** k for k in range(1, 11)])
    def test_bitonic_world_is_stride_p_of_pooled_samples(self, p):
        world, comms = _columnar(p)
        rng = np.random.default_rng(p)
        pls = [local_pivots(np.sort(rng.integers(0, 50, 64).astype(float)),
                            p) for _ in range(p)]
        pgs = select_pivots_bitonic_world(world, comms, pls)
        want = np.sort(np.concatenate(pls))[_pivot_positions(p)]
        assert not world.failures
        for pg in pgs:
            np.testing.assert_array_equal(pg, want)

    def test_allgather_shares_one_immutable_sequence(self):
        world, comms = _columnar(16)
        outs = world.allgather(comms, [c.rank * 3 for c in comms])
        assert isinstance(outs[0], tuple)
        assert outs[0] == tuple(r * 3 for r in range(16))
        assert all(o is outs[0] for o in outs)

    def test_flat_clocks_equal_thread_bitonic_sync_sort(self):
        """bitonic pivots + sync exchange + sort ordering at p=128."""
        prog = _WorldProg(500, "uniform", {"tau_o": 128, "tau_s": 128})
        thread = run_spmd(prog, 128, machine=EDISON)
        flat = run_spmd(prog, 128, machine=EDISON, backend="flat")
        assert thread.ok and flat.ok
        assert flat.clocks == thread.clocks
        assert flat.results == thread.results


class TestOversampling:
    def test_pivot_count_and_order(self):
        from repro.core import select_pivots_oversample

        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            return select_pivots_oversample(comm, np.sort(rng.random(500)))
        res = run_spmd(prog, 8)
        pg = res.results[0]
        assert pg.size == 7
        assert np.all(np.diff(pg) >= 0)
        for other in res.results[1:]:
            assert np.array_equal(other, pg)

    def test_more_oversampling_tightens_quality(self):
        """Pivot rank error shrinks with the oversampling factor."""
        from repro.core import select_pivots_oversample

        def prog(comm, s):
            rng = np.random.default_rng(comm.rank)
            keys = np.sort(rng.random(2000))
            pg = select_pivots_oversample(comm, keys, oversample=s, seed=1)
            ranks = comm.allreduce(
                np.searchsorted(keys, pg).astype(np.int64))
            n_total = comm.allreduce(keys.size)
            targets = (np.arange(1, comm.size) * n_total) // comm.size
            return int(np.abs(ranks - targets).max())
        err_small = max(run_spmd(prog, 8, kwargs={"s": 4}).results)
        err_big = max(run_spmd(prog, 8, kwargs={"s": 256}).results)
        assert err_big < err_small

    def test_deterministic_given_seed(self):
        from repro.core import select_pivots_oversample

        def prog(comm):
            keys = np.sort(np.random.default_rng(comm.rank).random(300))
            return select_pivots_oversample(comm, keys, seed=7)
        a = run_spmd(prog, 4).results[0]
        b = run_spmd(prog, 4).results[0]
        assert np.array_equal(a, b)

    def test_empty_shard_rejected(self):
        from repro.core import select_pivots_oversample
        from repro.mpi import RankFailure

        def prog(comm):
            select_pivots_oversample(comm, np.zeros(0))
        with pytest.raises(RankFailure):
            run_spmd(prog, 2)
