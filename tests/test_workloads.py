"""Workload generators: distributions, determinism, paper statistics."""

import numpy as np
import pytest

from repro.metrics import replication_ratio
from repro.workloads import (
    COSMO_DELTA,
    PTF_DELTA,
    by_name,
    cosmology,
    nearly_sorted,
    partially_ordered,
    ptf,
    uniform,
    zipf,
    zipf_delta,
    zipf_pmf,
)


class TestShardProtocol:
    def test_deterministic(self):
        wl = uniform()
        a = wl.shard(100, 4, 2, seed=7).keys
        b = wl.shard(100, 4, 2, seed=7).keys
        assert np.array_equal(a, b)

    def test_ranks_differ(self):
        wl = uniform()
        a = wl.shard(100, 4, 0, seed=7).keys
        b = wl.shard(100, 4, 1, seed=7).keys
        assert not np.array_equal(a, b)

    def test_seed_changes_data(self):
        wl = uniform()
        a = wl.shard(100, 4, 0, seed=7).keys
        b = wl.shard(100, 4, 0, seed=8).keys
        assert not np.array_equal(a, b)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            uniform().shard(10, 4, 4)

    def test_global_batch_concatenates(self):
        wl = uniform()
        g = wl.global_batch(50, 4, seed=1)
        assert len(g) == 200

    def test_by_name(self):
        assert by_name("zipf", alpha=1.1).meta["alpha"] == 1.1
        with pytest.raises(KeyError):
            by_name("wavelet")


class TestZipf:
    def test_pmf_normalised(self):
        pmf = zipf_pmf(0.7)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(np.diff(pmf) <= 0)  # rank 1 most popular

    def test_table2_alpha_delta_mapping(self):
        """Table 2: alpha -> delta(%): 0.4->0.2, 0.6->1.0, 0.9->6.4."""
        assert zipf_delta(0.4) * 100 == pytest.approx(0.24, abs=0.1)
        assert zipf_delta(0.6) * 100 == pytest.approx(1.0, abs=0.3)
        assert zipf_delta(0.9) * 100 == pytest.approx(6.4, abs=2.0)

    def test_table1_high_alpha_deltas(self):
        """Table 1: alpha 1.4 -> ~32% and 2.1 -> ~63% duplicates."""
        assert zipf_delta(1.4) == pytest.approx(0.32, abs=0.03)
        assert zipf_delta(2.1) == pytest.approx(0.63, abs=0.04)

    def test_generated_delta_matches_analytic(self):
        wl = zipf(1.4)
        keys = wl.generate(200_000, seed=3).keys
        assert replication_ratio(keys) == pytest.approx(zipf_delta(1.4), rel=0.05)

    def test_meta_records_delta(self):
        assert zipf(0.7).meta["delta"] == pytest.approx(zipf_delta(0.7))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            zipf_pmf(-1.0)


class TestPartiallyOrdered:
    def test_runs_structure(self):
        from repro.kernels import count_runs
        b = partially_ordered(runs=8).generate(800, seed=2)
        assert count_runs(b.keys) <= 8

    def test_nearly_sorted_high_sortedness(self):
        from repro.kernels import sortedness
        b = nearly_sorted(disorder=0.01).generate(10_000, seed=2)
        assert sortedness(b.keys) > 0.95

    def test_nearly_sorted_rejects_bad_disorder(self):
        import numpy as np
        from repro.workloads import nearly_sorted_batch
        with pytest.raises(ValueError):
            nearly_sorted_batch(10, np.random.default_rng(0), disorder=2.0)


class TestPTF:
    def test_delta_matches_paper(self):
        b = ptf().generate(100_000, seed=5)
        assert replication_ratio(b.keys) == pytest.approx(PTF_DELTA, abs=0.01)

    def test_payload_schema(self):
        b = ptf().generate(100, seed=5)
        assert set(b.columns) == {"ra", "dec", "mjd"}

    def test_scores_in_range(self):
        b = ptf().generate(10_000, seed=5)
        assert b.keys.min() >= 0.0
        assert b.keys.max() <= 1.0

    def test_duplicates_at_low_end(self):
        """The point mass sits at the bottom of the distribution."""
        b = ptf().generate(10_000, seed=5)
        vals, counts = np.unique(b.keys, return_counts=True)
        assert vals[counts.argmax()] == 0.0


class TestCosmology:
    def test_delta_matches_paper(self):
        b = cosmology().generate(200_000, seed=5)
        assert replication_ratio(b.keys) == pytest.approx(COSMO_DELTA, rel=0.15)

    def test_payload_schema(self):
        b = cosmology().generate(100, seed=5)
        assert set(b.columns) == {"x", "y", "z", "vx", "vy", "vz"}
        assert b.payload["x"].dtype == np.float32

    def test_integer_cluster_ids(self):
        b = cosmology().generate(1000, seed=5)
        assert np.array_equal(b.keys, np.round(b.keys))

    def test_record_width_matches_paper(self):
        """Key + 6 float32 payload: position and velocity."""
        b = cosmology().generate(10, seed=0)
        assert b.record_bytes == 8 + 6 * 4


def _loop_cluster_sizes(n, delta, rng, exponent=2.2):
    """The one-scalar-draw-per-cluster loop the vectorised sizes replace."""
    largest = max(1, int(round(delta * n)))
    sizes = [largest]
    remaining = n - largest
    while remaining > 0:
        s = int(min(largest, max(1, rng.pareto(exponent - 1.0) * 3.0 + 1.0)))
        s = min(s, remaining)
        sizes.append(s)
        remaining -= s
    return np.asarray(sizes, dtype=np.int64)


class TestExactSamplers:
    """The vectorised generators draw exactly what the scalar ones did:
    same values, and the stream left at the same position."""

    @pytest.mark.parametrize("n", [1, 2, 7, 137, 2000, 10_000])
    @pytest.mark.parametrize("delta", [COSMO_DELTA, 0.3])
    def test_cluster_sizes_match_scalar_loop(self, n, delta):
        from repro.workloads.science import _powerlaw_cluster_sizes

        for seed in range(25):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _loop_cluster_sizes(n, delta, old)
            got = _powerlaw_cluster_sizes(n, delta, new)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got.sum() == n
            assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.1])
    @pytest.mark.parametrize("n", [0, 1, 2000, 10_000])
    def test_zipf_matches_generator_choice(self, alpha, n):
        from repro.workloads.synthetic import ZIPF_UNIVERSE, zipf_batch

        pmf = zipf_pmf(alpha)
        for seed in range(40):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            want = old.choice(ZIPF_UNIVERSE, size=n, p=pmf).astype(np.float64)
            got = zipf_batch(n, new, alpha=alpha).keys
            assert np.array_equal(got, want)
            assert new.bit_generator.state == old.bit_generator.state

    def test_zipf_table_is_cached_read_only(self):
        from repro.workloads.synthetic import _zipf_table

        cdf, guide = _zipf_table(0.7, 100)
        assert _zipf_table(0.7, 100)[0] is cdf
        assert not cdf.flags.writeable and not guide.flags.writeable
        assert cdf[-1] == 1.0


@pytest.mark.parametrize("backend", ["thread", "flat"])
def test_cosmology_sorts_empty_shards(backend):
    from repro.runner import run_sort

    r = run_sort("sds", cosmology(), n_per_rank=0, p=4, backend=backend)
    assert r.ok, r.failure
    assert r.loads == [0, 0, 0, 0]
