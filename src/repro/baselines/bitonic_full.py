"""Distributed bitonic sort as a complete record-sorting baseline.

Batcher's bitonic network extended to payload-carrying record batches:
every compare-exchange step merges the two partner blocks (keys decide,
payload follows the permutation) and keeps the low or high half.  All
data crosses the network ``O(log^2 p)`` times — the communication cost
that makes samplesort-family algorithms preferable on distributed
memory (paper Section 5), which benches can now demonstrate instead of
assert.

Written in world form: the columnar view advances every rank through
the same compare-exchange round in lockstep (the network is
data-independent, so round structure never diverges), draining each
round's pairwise sends before its receives.
"""

from __future__ import annotations

from ..core.bitonic import is_power_of_two
from ..core.pipeline import SortOutcome
from ..kernels import merge_two_perm
from ..mpi import LANE, Comm, FlatAbort, World
from ..records import RecordBatch, sort_batch

_TAG = 72


def bitonic_sort_batch_world(world: World, comms: list[Comm],
                             batches: list) -> list[SortOutcome | None]:
    """Bitonic-sort equal-sized batches over every rank of one ``World``.

    Per-rank outcomes in ``comms`` order, ``None`` for failed ranks
    (details in ``world.failures``).
    """
    outcomes: list[SortOutcome | None] = [None] * len(comms)
    p = comms[0].size
    lanes: list[dict] = []
    for i, (c, b) in enumerate(zip(comms, batches)):
        if not world.alive(c):
            continue
        try:
            if not is_power_of_two(p):
                raise ValueError(
                    f"bitonic sort needs a power-of-two p, got {p}")
            lanes.append({"i": i, "comm": c, "batch": b})
        except BaseException as exc:
            world.fail(c, exc)

    def prune() -> None:
        nonlocal lanes
        lanes = [ln for ln in lanes if world.alive(ln["comm"])]

    try:
        if not lanes:
            return outcomes
        lens = world.allgather([ln["comm"] for ln in lanes],
                               [len(ln["batch"]) for ln in lanes])
        checked = None  # the columnar view shares one sequence
        for ln, lengths in zip(lanes, lens):
            c = ln["comm"]
            try:
                if lengths is not checked:
                    if len(set(lengths)) != 1:
                        raise ValueError("bitonic sort needs equal block "
                                         f"lengths, got {set(lengths)}")
                    checked = lengths
                c.mem.alloc(ln["batch"].nbytes)
            except BaseException as exc:
                world.fail(c, exc)
        prune()

        with world.phase([ln["comm"] for ln in lanes], "local_sort"):
            for ln in lanes:
                c = ln["comm"]
                try:
                    ln["cur"] = sort_batch(ln["batch"])
                    c.charge(c.cost.sort_time(len(ln["cur"])))
                except BaseException as exc:
                    world.fail(c, exc)
        prune()

        if p == 1:
            for ln in lanes:
                outcomes[ln["i"]] = SortOutcome(
                    batch=ln["cur"], received=len(ln["cur"]),
                    info={"stages": 0})
            return outcomes

        stages = 0
        with world.phase([ln["comm"] for ln in lanes], "exchange"):
            for si in range(p.bit_length() - 1):
                for sj in range(si, -1, -1):
                    others = world.sendrecv(
                        [ln["comm"] for ln in lanes],
                        [ln["cur"] for ln in lanes],
                        [ln["comm"].rank ^ (1 << sj) for ln in lanes],
                        tag=_TAG)
                    for ln, other in zip(lanes, others):
                        c = ln["comm"]
                        try:
                            cur = ln["cur"]
                            rank = c.rank
                            partner = rank ^ (1 << sj)
                            ascending = ((rank >> (si + 1)) & 1) == 0
                            # both partners must merge in the same
                            # (canonical) order, otherwise equal keys land
                            # in both kept halves and records are
                            # duplicated/lost
                            first, second = ((cur, other) if rank < partner
                                             else (other, cur))
                            _, perm = merge_two_perm(first.keys, second.keys)
                            merged = RecordBatch.concat(
                                [first, second]).take(perm)
                            c.charge(c.cost.merge_time(len(merged), 2))
                            half = len(cur)
                            keep_low = (rank < partner) == ascending
                            nxt = (merged.slice(0, half) if keep_low
                                   else merged.slice(len(merged) - half,
                                                     len(merged)))
                            ln["cur"] = nxt.copy()
                        except BaseException as exc:
                            world.fail(c, exc)
                    prune()
                    stages += 1

        for ln in lanes:
            outcomes[ln["i"]] = SortOutcome(
                batch=ln["cur"], received=len(ln["cur"]),
                info={"stages": stages})
    except FlatAbort:
        pass  # a collective aborted: unfinished ranks stay ``None``
    return outcomes


def bitonic_sort_batch(comm: Comm, batch: RecordBatch) -> SortOutcome:
    """Collectively bitonic-sort equal-sized batches across ``comm``.

    Requires a power-of-two number of ranks and equal batch lengths.
    Returns this rank's block of the global order.
    """
    return bitonic_sort_batch_world(LANE, [comm], [batch])[0]
