"""Regular sampling and global pivot selection (paper Section 2.4).

Both pivot levels use *regular sampling* (equal-stride selection from
sorted data, Li et al.'s terminology):

* each rank picks ``p-1`` **local pivots** at stride ``floor(n/p)``
  from its sorted data — because the data is sorted first, each local
  pivot represents at most ``2N/p^2`` records;
* the ``p*(p-1)`` local pivots are sorted *in parallel with bitonic
  sort* (never gathered onto one rank) and the ``p-1`` **global
  pivots** are read off at stride ``p`` — each represents at most
  ``2N/p`` records, which is the lever behind Theorem 1.

A gather-based selection (sort all local pivots on rank 0, the classic
PSRS approach) is provided both as a fallback for non-power-of-two
communicators and for comparison.

Selectors are written once in world form (``*_world`` over a
:class:`~repro.mpi.world.World` view): shared computations — the
pooled sample sort, the pivot stride — run once per communicator, and
every rank replays only its own collective epilogues and cost charges.
The per-rank entry points below each run the world form over a
:class:`~repro.mpi.world.LaneWorld` singleton.
"""

from __future__ import annotations

import numpy as np
# Bound once at import: ``np.random.X`` re-enters the interpreter's
# import lock on every access (numpy lazy-loads the submodule via
# module __getattr__), which serialises rank threads at scale.
from numpy.random import SeedSequence, default_rng

from ..mpi import LANE, Comm, World
from .bitonic import bitonic_sort_world, is_power_of_two


def local_pivots(sorted_keys: np.ndarray, p: int) -> np.ndarray:
    """``p-1`` regular samples of a rank's sorted data (Figure 1 line 8).

    Sample positions are the fractional stride ``floor(k*n/p)`` for
    ``k = 1..p-1`` rather than the paper's literal ``k*floor(n/p)``:
    when ``p`` does not divide ``n`` the literal stride leaves an
    unsampled tail of up to ``p * (n mod p)`` records that all land on
    the last rank (at the paper's own 128K-core scale this would be a
    162x overload, far above their reported RDFA of 1.05, so their
    implementation cannot be using the literal stride either).
    Degrades gracefully for ``n < p`` by repeating boundary values.
    """
    a = np.asarray(sorted_keys)
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return a[:0]
    if a.size == 0:
        raise ValueError("cannot sample pivots from an empty shard")
    idx = (np.arange(1, p, dtype=np.int64) * a.size) // p
    idx = np.minimum(idx, a.size - 1)
    return a[idx]


def _pivot_positions(p: int) -> np.ndarray:
    """Global positions of the ``p-1`` pivots within the sorted samples.

    Stride ``p`` through the ``p*(p-1)`` sorted local pivots:
    position ``(k+1)*p - 1`` for ``k = 0..p-2``.
    """
    return (np.arange(1, p, dtype=np.int64) * p) - 1


def select_pivots_gather_world(world: World, comms: list[Comm],
                               pls: list) -> list:
    """Classic PSRS selection: gather samples on rank 0, sort, broadcast.

    The rank-0 sort + stride selection runs once; every other rank only
    replays its gather/bcast epilogues.  Per-rank results (``None`` for
    failed ranks) in ``comms`` order.
    """
    p = comms[0].size
    gathered_out = world.gather(comms, pls, root=0)
    pgs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if gathered_out[i] is None or not world.alive(c):
            continue
        allp = np.sort(np.concatenate(gathered_out[i]))
        c.charge(c.cost.sort_time(allp.size))
        if allp.size == 0:
            pgs[i] = allp[:0]  # degenerate: no samples anywhere
        else:
            pos = np.minimum(_pivot_positions(p), allp.size - 1)
            pgs[i] = allp[pos]
    return world.bcast(comms, pgs, root=0)


def select_pivots_gather(comm: Comm, pl: np.ndarray) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_gather_world`."""
    return select_pivots_gather_world(LANE, [comm], [pl])[0]


def select_pivots_oversample_world(world: World, comms: list[Comm],
                                   keys_list: list, *,
                                   oversample: int = 32,
                                   seed: int = 0) -> list:
    """Random-oversampling pivot selection (Frazer & McKellar, 1970).

    The original samplesort recipe, the paper's citation [15]: each
    rank contributes ``oversample`` *random* samples (rather than
    regular quantile samples); the pooled ``oversample * p`` samples
    are sorted and the ``p-1`` equally spaced elements become pivots.
    Pivot quality improves like ``1/sqrt(oversample)``; regular
    sampling of locally *sorted* data achieves better quality at the
    same budget because each sample is already a local quantile —
    ``bench_ext_oversampling.py`` measures the gap.

    The per-rank RNG draws use ``SeedSequence([seed, rank])`` streams;
    the pooled sort and stride selection run once — every rank's pooled
    vector is identical — and each live rank charges its own
    ``sort_time`` replay.
    """
    p = comms[0].size
    arrs = [np.asarray(k) for k in keys_list]
    if p == 1:
        return [a[:0] for a in arrs]
    samples: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if not world.alive(c):
            continue
        try:
            a = arrs[i]
            if a.size == 0:
                raise ValueError("cannot sample pivots from an empty shard")
            rng = default_rng(SeedSequence([seed, c.rank]))
            take = min(max(1, oversample), a.size)
            samples[i] = a[rng.integers(0, a.size, size=take)]
        except BaseException as exc:
            world.fail(c, exc)
    all_samples = world.allgather(comms, samples)
    pooled = pg = None
    outs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if not world.alive(c):
            continue
        if pooled is None:
            pooled = np.sort(np.concatenate(all_samples[i]))
            pos = (np.arange(1, p, dtype=np.int64) * pooled.size) // p
            pg = pooled[np.minimum(pos, pooled.size - 1)]
        c.charge(c.cost.sort_time(pooled.size))
        outs[i] = pg
    return outs


def select_pivots_oversample(comm: Comm, sorted_keys: np.ndarray, *,
                             oversample: int = 32,
                             seed: int = 0) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_oversample_world`."""
    return select_pivots_oversample_world(
        LANE, [comm], [sorted_keys], oversample=oversample, seed=seed)[0]


def select_pivots_bitonic_world(world: World, comms: list[Comm],
                                pls: list) -> list:
    """SdssSelectPivots: sort samples with parallel bitonic, pick stride p.

    After the bitonic sort, rank ``r`` holds global sample positions
    ``[r*(p-1), (r+1)*(p-1))``; each rank contributes the pivot
    positions that landed in its block and an allgather assembles the
    full pivot vector (the assembly is identical on every rank, so it
    runs once and the shared pivot vector is handed to each live rank).
    Each rank finds its own positions by one ``searchsorted`` over the
    stride, so the host work is O(p) Python iterations, not O(p^2).
    Falls back to :func:`select_pivots_gather_world` when the
    communicator is not a power of two.
    """
    p = comms[0].size
    if p == 1:
        return [np.asarray(pl)[:0] for pl in pls]
    if not is_power_of_two(p):
        return select_pivots_gather_world(world, comms, pls)
    blocks = bitonic_sort_world(world, comms, pls)
    m = p - 1  # block length
    positions = _pivot_positions(p)
    # rank r's block [r*m, (r+1)*m) holds positions[first[r]:first[r+1]]
    first = np.searchsorted(positions, np.arange(p + 1, dtype=np.int64) * m)
    mines: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if blocks[i] is None:
            continue
        r = c.rank
        lo = r * m
        mines[i] = [(int(pos), blocks[i][pos - lo])
                    for pos in positions[first[r]:first[r + 1]]]
    contributions = world.allgather(comms, mines)
    pg = None
    outs: list = [None] * len(comms)
    for i, c in enumerate(comms):
        if not world.alive(c):
            continue
        if pg is None:
            pairs = sorted(pair for chunk in contributions[i] for pair in chunk)
            pg = np.asarray([v for _, v in pairs])
        if pg.size != p - 1:
            world.fail(c, AssertionError(
                f"expected {p - 1} global pivots, got {pg.size}"))
            continue
        outs[i] = pg
    return outs


def select_pivots_bitonic(comm: Comm, pl: np.ndarray) -> np.ndarray:
    """Per-rank entry point of :func:`select_pivots_bitonic_world`."""
    return select_pivots_bitonic_world(LANE, [comm], [pl])[0]
