"""Synthetic workloads: Uniform, Zipf, partially ordered.

The paper's synthetic evaluation (Section 4.1) uses two families:

* **Uniform** — standard uniform floats, the classic parallel-sorting
  benchmark input.
* **Zipf** — ``p(i) = C / i^alpha`` over a universe of ``K`` distinct
  values.  The paper's Table 2 maps the Zipf exponent to the *maximum
  replication ratio* ``delta = d/N`` (``d`` = multiplicity of the most
  frequent key); matching its numbers (alpha 0.4..0.9 -> delta 0.2%..
  6.4%, and Table 1's alpha 1.4 -> 32%, 2.1 -> 63%) pins the universe
  at ``K ~= 10,000`` distinct values, which is what we use by default.

Partially ordered inputs (Section 2.7 motivation) come in two shapes:
``k`` concatenated sorted runs (what a rank holds right after the
exchange) and "nearly sorted" data with a fraction of random
perturbations.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from ..records import RecordBatch
from .base import Workload

#: Universe size that reproduces the paper's alpha -> delta table.
ZIPF_UNIVERSE = 10_000


def uniform_batch(n: int, rng: np.random.Generator) -> RecordBatch:
    """``n`` uniform float64 keys in [0, 1), no payload."""
    return RecordBatch(rng.random(n))


def zipf_pmf(alpha: float, universe: int = ZIPF_UNIVERSE) -> np.ndarray:
    """Normalised Zipf probabilities ``C / i^alpha`` for ``i = 1..universe``."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    w = ranks**-alpha
    return w / w.sum()


def zipf_delta(alpha: float, universe: int = ZIPF_UNIVERSE) -> float:
    """Expected max replication ratio of a Zipf(alpha) workload.

    This is the analytic counterpart of the paper's Table 2: the most
    frequent value is rank 1, whose probability is the normalisation
    constant ``C = 1 / H_universe(alpha)``.
    """
    return float(zipf_pmf(alpha, universe)[0])


#: Guide-table resolution of the cached Zipf CDF (a power of two, so
#: ``u * _GUIDE_SIZE`` is exact and its floor names u's bucket).
_GUIDE_SIZE = 1 << 15


@lru_cache(maxsize=32)
def _zipf_table(alpha: float, universe: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(cdf, guide)`` for drawing Zipf(alpha) ranks.

    ``cdf`` is built exactly as ``Generator.choice(p=pmf)`` builds it.
    ``guide[j]`` is the first index whose ``cdf`` exceeds ``j / M``, a
    lower bound of the draw for every ``u`` in bucket ``j``.
    """
    cdf = zipf_pmf(alpha, universe).cumsum()
    cdf /= cdf[-1]
    grid = np.arange(_GUIDE_SIZE, dtype=np.float64) / _GUIDE_SIZE
    guide = cdf.searchsorted(grid, side="right")
    cdf.flags.writeable = False
    guide.flags.writeable = False
    return cdf, guide


def _zipf_ranks(n: int, rng: np.random.Generator, alpha: float,
                universe: int = ZIPF_UNIVERSE) -> np.ndarray:
    """``rng.choice(universe, size=n, p=zipf_pmf(alpha, universe))``, faster.

    Same uniforms, same answer ``cdf.searchsorted(u, side="right")``,
    found from each ``u``'s guide-table bucket by a few vectorised
    steps up the CDF instead of a binary search over the universe.
    Draws in buckets that span many CDF entries (the light tail) fall
    back to the binary search.
    """
    cdf, guide = _zipf_table(alpha, universe)
    u = rng.random(n)
    idx = guide[(u * _GUIDE_SIZE).astype(np.int64)]
    todo = np.flatnonzero(cdf[idx] <= u)
    for _ in range(4):
        if not todo.size:
            return idx
        idx[todo] += 1
        todo = todo[cdf[idx[todo]] <= u[todo]]
    idx[todo] = cdf.searchsorted(u[todo], side="right")
    return idx


def zipf_batch(n: int, rng: np.random.Generator, *, alpha: float = 0.7,
               universe: int = ZIPF_UNIVERSE) -> RecordBatch:
    """``n`` Zipf-distributed float64 keys.

    Keys are the value's rank index (popular values cluster toward the
    low end of the distribution, as the paper describes for skewed
    science data), jittered by nothing — duplicates are exact, which is
    the property that breaks sample-based partitioners.
    """
    return RecordBatch(_zipf_ranks(n, rng, alpha, universe).astype(np.float64))


def runs_batch(n: int, rng: np.random.Generator, *, runs: int = 16) -> RecordBatch:
    """``n`` keys forming ``runs`` concatenated sorted runs.

    Models the post-exchange state of a rank: ``p`` sorted chunks back
    to back.
    """
    runs = max(1, min(runs, n)) if n else 1
    bounds = np.linspace(0, n, runs + 1).astype(np.int64)
    keys = rng.random(n)
    for i in range(runs):
        keys[bounds[i]:bounds[i + 1]].sort()
    return RecordBatch(keys)


def nearly_sorted_batch(n: int, rng: np.random.Generator, *,
                        disorder: float = 0.01) -> RecordBatch:
    """Sorted keys with a ``disorder`` fraction of random transpositions."""
    if not 0.0 <= disorder <= 1.0:
        raise ValueError("disorder must be in [0, 1]")
    keys = np.sort(rng.random(n))
    swaps = int(n * disorder / 2)
    if swaps:
        i = rng.integers(0, n, size=swaps)
        j = rng.integers(0, n, size=swaps)
        keys[i], keys[j] = keys[j].copy(), keys[i].copy()
    return RecordBatch(keys)


def uniform_payload_batch(n: int, rng: np.random.Generator, *,
                          payload_floats: int) -> RecordBatch:
    """Uniform keys plus ``payload_floats`` random float64 columns."""
    batch = uniform_batch(n, rng)
    batch.payload.update(
        {f"v{i}": rng.random(n) for i in range(payload_floats)}
    )
    return batch


# Workload generators are module-level callables bound with ``partial``
# (not closures) so a Workload pickles — the process-sharded engine
# backend ships rank programs, and the workloads they hold, to worker
# processes.

def uniform(payload_floats: int = 0) -> Workload:
    """Uniform workload, optionally with ``payload_floats`` float64 columns."""
    if payload_floats == 0:
        return Workload("uniform", uniform_batch)
    return Workload("uniform",
                    partial(uniform_payload_batch,
                            payload_floats=payload_floats),
                    {"payload_floats": payload_floats})


def zipf(alpha: float = 0.7, universe: int = ZIPF_UNIVERSE) -> Workload:
    """Zipf workload with the paper's universe calibration."""
    return Workload(
        f"zipf-{alpha:g}",
        partial(zipf_batch, alpha=alpha, universe=universe),
        {"alpha": alpha, "universe": universe, "delta": zipf_delta(alpha, universe)},
    )


def partially_ordered(runs: int = 16) -> Workload:
    """Concatenated-sorted-runs workload."""
    return Workload(f"runs-{runs}", partial(runs_batch, runs=runs),
                    {"runs": runs})


def nearly_sorted(disorder: float = 0.01) -> Workload:
    """Nearly-sorted workload."""
    return Workload(f"nearly-sorted-{disorder:g}",
                    partial(nearly_sorted_batch, disorder=disorder),
                    {"disorder": disorder})
