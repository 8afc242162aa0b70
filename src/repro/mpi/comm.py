"""The simulated communicator: MPI-flavoured API over threads.

Rank programs are ordinary Python functions receiving a :class:`Comm`
(mirroring the mpi4py SPMD idiom from the domain guides).  Data moves
for real — collectives stage actual numpy arrays / RecordBatches — while
*time* is virtual: every operation advances the rank's clock through
the machine cost model, so measured "seconds" are simulated Edison
seconds, deterministic and independent of host thread scheduling.

Collectives compute their shared quantities (clock maxima, reduction
results, alltoallv size scans) **once per call** via the barrier's
last-arriver action (see :mod:`repro.mpi.context`) instead of once per
rank; reductions still apply the operator in rank order, so results —
including floating point — are bit-for-bit identical to the per-rank
formulation.  Reduction/scan results are shared objects: treat them as
read-only (the engine avoids copies by design).

Key deviations from real MPI, by design:

* ``alltoallv_async`` performs the data movement synchronously but
  returns a deterministic *arrival schedule* (per-source completion
  times under the derated async bandwidth model); callers overlap
  compute against that schedule.  This keeps the engine deterministic
  while still exercising the paper's overlapped exchange+merge path.
* Memory is accounted per rank through
  :class:`~repro.machine.memory.MemoryTracker`; receiving more than the
  rank's capacity raises :class:`~repro.machine.memory.SimOOMError`
  mid-collective, exactly how the paper's HykSort runs died.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Sequence

import numpy as np

from ..machine import CostModel, MachineSpec, MemoryTracker
from ..records import RecordBatch
from .context import AbortFlag, Channel, CommContext
from .errors import MessageLostError


def payload_nbytes(obj: Any) -> int:
    """Best-effort wire size of a message payload in bytes.

    ``RecordBatch.nbytes`` is cached on the batch, so repeated size
    queries of the same payload (sender sizing, receiver accounting,
    arrival scheduling) cost one dict lookup after the first call.
    """
    if obj is None:
        return 0
    if isinstance(obj, RecordBatch):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    return 64


def _max_clock(stage: Sequence[tuple[Any, float]]) -> float:
    return max(e[1] for e in stage)


def split_contexts(stage: Sequence[tuple[Any, float]], ctx: CommContext,
                   world: "SimWorld") -> dict:
    """Designated-rank compute of :meth:`Comm.split` (shared with flat).

    ``stage[r]`` carries ``((color, key), clock)``; returns the
    ``{color: CommContext}`` mapping with members ordered by
    ``(key, rank)`` — the exact grouping both engines must agree on.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for r, ((col, k), _t) in enumerate(stage):
        if col is None:
            continue
        groups.setdefault(col, []).append((k, r))
    contexts = {}
    for col, members in sorted(groups.items()):
        members.sort()
        gids = [ctx.group[r] for _, r in members]
        contexts[col] = world.make_context(gids, parent=ctx, key=col)
    return contexts


class SimWorld:
    """Process-global state of one simulated run."""

    def __init__(self, p: int, machine: MachineSpec,
                 mem_capacity: int | None = None,
                 faults: Any = None, tracer: Any = None,
                 cancel: Any = None):
        self.p = p
        self.machine = machine
        #: the run's cancel event, polled by the columnar flat driver at
        #: phase and collective boundaries (``None`` = no deadline; the
        #: thread engine watches its event from a side thread instead)
        self.cancel = cancel
        self.cost = CostModel(machine)
        #: optional :class:`~repro.obs.tracer.Tracer` (None = tracing
        #: off; every hook below is a single attribute check away from
        #: the untraced instruction stream)
        if tracer is not None and getattr(tracer, "p", p) != p:
            raise ValueError(f"tracer allocated for p={tracer.p}, "
                             f"world has p={p}")
        self.tracer = tracer
        self.abort = self._make_abort()
        self.clocks: list[float] = [0.0] * p
        self.mem = [MemoryTracker(capacity=mem_capacity, rank=r) for r in range(p)]
        self.phase_times: list[dict[str, float]] = [dict() for _ in range(p)]
        self.counters: list[dict[str, float]] = [dict() for _ in range(p)]
        #: per-rank (start, end, phase) intervals in virtual time
        self.traces: list[list[tuple[float, float, str]]] = [[] for _ in range(p)]
        self._channels: dict[tuple[int, int, int], Channel] = {}
        self._channels_lock = threading.Lock()
        self.world_ctx = self.make_context(range(p))
        #: compiled :class:`~repro.faults.plan.FaultPlan` or None.  A
        #: plan with ``active == False`` is treated exactly like None,
        #: so an empty FaultSpec never perturbs the virtual clocks.
        if faults is not None and not getattr(faults, "active", True):
            faults = None
        self.faults = faults
        if faults is not None:
            # per-(edge, tag) message sequence numbers; index [grank]
            # is touched only by that rank's thread, so no locking.
            self.p2p_send_seq: list[dict[tuple[int, int], int]] = \
                [dict() for _ in range(p)]
            self.p2p_recv_seq: list[dict[tuple[int, int], int]] = \
                [dict() for _ in range(p)]

    def _make_abort(self) -> AbortFlag:
        """Abort-flag factory (hook for backends with wider failure fan-out)."""
        return AbortFlag()

    def make_context(self, group: Sequence[int],
                     parent: Any = None, key: Any = None) -> CommContext:
        """Shared-context factory for new communicators.

        ``parent``/``key`` name a split child deterministically — the
        process-sharded world overrides this to mint identities that
        agree across worker processes; the thread world ignores them.
        """
        return CommContext(group, self.abort)

    def node_of(self, grank: int) -> int:
        """Node hosting a global rank (dense one-rank-per-core placement)."""
        return grank // self.machine.cores_per_node

    def channel(self, src: int, dst: int, tag: int) -> Channel:
        key = (src, dst, tag)
        ch = self._channels.get(key)
        if ch is None:
            with self._channels_lock:
                ch = self._channels.get(key)
                if ch is None:
                    ch = Channel(self.abort)
                    self._channels[key] = ch
        return ch


class Request:
    """Handle for a nonblocking receive posted with :meth:`Comm.irecv`."""

    def __init__(self, comm: "Comm", source: int, tag: int):
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._value: Any = None

    def test(self) -> bool:
        """Nonblocking completion check."""
        if self._done:
            return True
        got = self._comm._try_recv(self._source, self._tag)
        if got is not None:
            gsrc = self._comm._ctx.group[self._source]
            self._value = self._comm._complete_recv(gsrc, self._tag, *got)
            self._done = True
        return self._done

    def wait(self) -> Any:
        """Block (abortably, event-driven) until the message arrives."""
        if not self._done:
            self._value = self._comm.recv(self._source, self._tag)
            self._done = True
        return self._value


class Comm:
    """Communicator handle of one rank (mirrors the mpi4py surface)."""

    def __init__(self, world: SimWorld, ctx: CommContext, rank: int):
        self._world = world
        self._ctx = ctx
        self.rank = rank
        self.size = ctx.size
        self.grank = ctx.group[rank]
        self._rpn: int | None = None  # cached ranks_per_node
        self._tracer = world.tracer
        faults = world.faults
        self._faults = faults
        if faults is not None:
            self._slowdown = faults.slowdown(self.grank)
            self._fault_debt = 0.0   # collective penalties, folded into
            #                          the next set_clock (collectives
            #                          overwrite the clock absolutely)
            self._coll_seq = 0       # per-communicator collective counter
            self._send_seq = world.p2p_send_seq[self.grank]
            self._recv_seq = world.p2p_recv_seq[self.grank]
            if self._slowdown != 1.0 and ctx is world.world_ctx:
                # mark the condition once per rank per run (world-comm
                # construction), so reports can count stragglers
                self.count("faults.straggler", 1.0)
                if self._tracer is not None:
                    self._tracer.instant(self.grank, "fault", "straggler",
                                         0.0, {"slowdown": self._slowdown})
        else:
            self._slowdown = 1.0

    # ------------------------------------------------------------------
    # introspection / accounting
    # ------------------------------------------------------------------
    @property
    def machine(self) -> MachineSpec:
        return self._world.machine

    @property
    def cost(self) -> CostModel:
        return self._world.cost

    @property
    def mem(self) -> MemoryTracker:
        return self._world.mem[self.grank]

    @property
    def clock(self) -> float:
        """This rank's virtual time, in simulated seconds."""
        return self._world.clocks[self.grank]

    @property
    def faults(self) -> Any:
        """The active :class:`~repro.faults.plan.FaultPlan`, or None."""
        return self._faults

    def charge(self, seconds: float) -> None:
        """Advance the virtual clock by a modelled compute cost.

        Straggler faults scale CPU-side charges here: everything the
        rank *computes* (including software messaging overheads) runs
        slow, while pure network time — p2p flight times and collective
        costs applied via :meth:`set_clock` — is unaffected.
        """
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if self._slowdown != 1.0:
            scaled = seconds * self._slowdown
        else:
            scaled = seconds
        self._world.clocks[self.grank] += scaled
        tr = self._tracer
        if tr is not None:
            tr.add(self.grank, "cost.compute", seconds)
            if scaled != seconds:  # straggler surcharge is fault debt
                tr.add(self.grank, "cost.fault_debt", scaled - seconds)

    def _advance(self, seconds: float) -> None:
        """Raw clock advance (retry timeouts; never straggler-scaled)."""
        self._world.clocks[self.grank] += seconds
        if self._tracer is not None:  # only fault paths call _advance
            self._tracer.add(self.grank, "cost.fault_debt", seconds)

    def set_clock(self, t: float) -> None:
        if self._faults is not None and self._fault_debt:
            t += self._fault_debt
            self._fault_debt = 0.0
        self._world.clocks[self.grank] = t

    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate a named statistic (messages, bytes, elements...)."""
        c = self._world.counters[self.grank]
        c[name] = c.get(name, 0.0) + value

    @contextmanager
    def phase(self, name: str):
        """Attribute the virtual time spent in the block to ``name``.

        Drives the paper's Figure 9/10 phase breakdowns (pivot
        selection / exchange / local ordering / other).
        """
        t0 = self.clock
        try:
            yield
        finally:
            t1 = self.clock
            pt = self._world.phase_times[self.grank]
            pt[name] = pt.get(name, 0.0) + (t1 - t0)
            self._world.traces[self.grank].append((t0, t1, name))
            if self._tracer is not None:
                self._tracer.span(self.grank, "phase", name, t0, t1)

    @property
    def ranks_per_node(self) -> int:
        """How many members of *this* communicator share my node.

        The group is immutable, so the O(group) scan runs once per
        ``Comm`` handle and is cached (it sits on the per-collective
        cost path).
        """
        rpn = self._rpn
        if rpn is None:
            mine = self._world.node_of(self.grank)
            node_of = self._world.node_of
            rpn = sum(1 for g in self._ctx.group if node_of(g) == mine)
            self._rpn = rpn
        return rpn

    # ------------------------------------------------------------------
    # tracing hooks
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Any:
        """The world's :class:`~repro.obs.tracer.Tracer`, or None."""
        return self._tracer

    def trace_counter(self, name: str, value: float = 1.0) -> None:
        """Accumulate a tracer counter on this rank (no-op untraced)."""
        tr = self._tracer
        if tr is not None:
            tr.add(self.grank, name, value)

    def trace_instant(self, cat: str, name: str,
                      args: dict | None = None) -> None:
        """Record a zero-width marker at the current virtual time."""
        tr = self._tracer
        if tr is not None:
            tr.instant(self.grank, cat, name, self.clock, args)

    def trace_edges(self, sizes: Sequence[int]) -> None:
        """Record this rank's per-destination sent bytes (one entry per
        member of this communicator, in communicator rank order)."""
        tr = self._tracer
        if tr is not None:
            row = np.zeros(self._world.p, dtype=np.int64)
            row[list(self._ctx.group)] = np.asarray(sizes, dtype=np.int64)
            tr.edge_row(self.grank, row)

    def trace_collective(self, name: str, t: float, dt: float,
                         lat: float) -> None:
        """Traced twin of the collectives' ``set_clock(t + dt)``.

        Records the op span (entry clock to new clock) and splits the
        clock advance into the LogGP cost buckets: skipping forward to
        the barrier release ``t`` is **wait**, ``lat`` (the same cost
        function evaluated at zero bytes) is **latency**, the remainder
        of ``dt`` is **bandwidth**, and any pending collective fault
        debt (consumed by :meth:`set_clock` here) is **fault_debt**.
        Callers only reach this with a tracer installed; ``t + dt`` is
        computed exactly as in the untraced branch, so virtual clocks
        are bit-for-bit unchanged by tracing.
        """
        c0 = self.clock
        debt = self._fault_debt if self._faults is not None else 0.0
        self.set_clock(t + dt)
        tr = self._tracer
        g = self.grank
        tr.span(g, "coll", name, c0, self.clock)
        wait = t - c0
        if wait > 0.0:
            tr.add(g, "cost.wait", wait)
        tr.add(g, "cost.latency", lat)
        if dt > lat:
            tr.add(g, "cost.bandwidth", dt - lat)
        if debt:
            tr.add(g, "cost.fault_debt", debt)

    # ------------------------------------------------------------------
    # staged-collective plumbing
    # ------------------------------------------------------------------
    def _sync(self, action: Callable[[], Any] | None = None) -> Any:
        """Barrier on the communicator, accounting real blocked time.

        Returns ``action``'s result (the collective payload) on every
        rank.  Wall-clock (host) seconds spent inside the barrier are
        accumulated in the ``coll.sync_wait`` counter — the
        observability hook for diagnosing load imbalance of the
        *simulation itself* (stragglers show up as large sync waits).
        """
        t0 = time.perf_counter()
        out = self._ctx.sync(action)
        c = self._world.counters[self.grank]
        c["coll.sync_wait"] = (c.get("coll.sync_wait", 0.0)
                               + (time.perf_counter() - t0))
        return out

    def staged(self, obj: Any, compute: Callable[[list], Any],
               reader: Callable[[list], Any] | None = None) -> tuple[Any, Any]:
        """One staged collective with designated (last-arriver) compute.

        Deposits ``(obj, clock)`` into the stage; ``compute(stage)``
        runs exactly once — on the last rank to reach the barrier — and
        its result is handed to every rank through the barrier release
        itself.  ``reader`` (optional) extracts this rank's
        personalised data from the raw stage after release (the stage
        list is captured before the barrier and the last arriver swaps
        a fresh one into the context, so the read is race-free without
        a second barrier).  Returns ``(shared, mine)``.

        This is the extension point for fused collectives: algorithm
        layers (bitonic pivot sorting, the overlapped exchange) deposit
        one object per rank and perform all O(p) / O(p^2) work once,
        vectorised, inside ``compute`` — the mechanism that keeps exact
        runs tractable at thousands of ranks.  ``stage[r]`` is
        ``(obj_r, clock_r)``; everything ``compute`` returns is shared
        by reference, so treat it as read-only.
        """
        ctx = self._ctx
        stage = ctx.stage
        stage[self.rank] = (obj, self.clock)

        def produce() -> Any:
            shared = compute(stage)
            ctx.fresh_stage()
            return shared

        shared = self._sync(produce)
        mine = reader(stage) if reader is not None else None
        f = self._faults
        if f is not None and f.affects_collectives:
            self._charge_collective_faults()
        return shared, mine

    def _charge_collective_faults(self) -> None:
        """Deterministic per-collective fault debt (drops + transients).

        Every rank of the communicator calls collectives in lockstep,
        so the private ``_coll_seq`` counters agree across ranks and
        each rank derives its verdict from the fault plan without any
        extra communication.  The resulting debt is accumulated and
        folded into the next :meth:`set_clock` — which is always the
        collective's own cost application — because collectives
        overwrite the clock absolutely.
        """
        seq = self._coll_seq
        self._coll_seq = seq + 1
        pen = self._faults.collective_penalty(self._ctx.group, seq, self.rank)
        if pen is None:
            return
        if pen.lost:
            raise MessageLostError(
                f"collective #{seq} on a {self.size}-rank communicator: "
                f"rank {self.grank} exhausted "
                f"{self._faults.spec.retry.max_retries} retries")
        debt = pen.detect_seconds
        if pen.resend_messages:
            debt += pen.resend_messages * self.cost.p2p_time(0)
            self.count("faults.coll_msg_dropped", pen.dropped)
            if self._tracer is not None:
                self._tracer.instant(self.grank, "fault", "coll_msg_dropped",
                                     self.clock, {"seq": seq,
                                                  "dropped": pen.dropped})
        if pen.resync_rounds:
            debt += pen.resync_rounds * self.cost.barrier_time(self.size)
            self.count("faults.coll_transient", pen.resync_rounds)
            if self._tracer is not None:
                self._tracer.instant(self.grank, "fault", "coll_transient",
                                     self.clock, {"seq": seq,
                                                  "rounds": pen.resync_rounds})
        self._fault_debt += debt
        self.count("retry.time", debt)

    # ------------------------------------------------------------------
    # collective epilogues (shared with the flat backend)
    # ------------------------------------------------------------------
    # Each collective's post-staged bookkeeping — cost application,
    # clock overwrite / traced twin, operation counter — lives in a
    # ``_finish_*`` helper so the zero-thread flat backend can replay
    # the identical arithmetic per rank after running the designated
    # compute once for the whole world.  The helpers are the *only*
    # place these formulas exist; both engines go through them.

    def _finish_coll(self, name: str, t: float, dt: float, lat: float,
                     counter: str | None = None) -> None:
        if self._tracer is None:
            self.set_clock(t + dt)
        else:
            self.trace_collective(name, t, dt, lat)
        if counter is not None:
            self.count(counter)

    def _finish_tree_coll(self, name: str, t: float, nbytes: int) -> None:
        self._finish_coll(
            name, t, self.cost.tree_collective_time(self.size, nbytes),
            self.cost.tree_collective_time(self.size, 0), "coll." + name)

    def _finish_barrier(self, t: float) -> None:
        dt = self.cost.barrier_time(self.size)
        self._finish_coll("barrier", t, dt, dt)

    def _finish_allgather(self, t: float, nbytes: int) -> None:
        self._finish_coll(
            "allgather", t, self.cost.allgather_time(self.size, nbytes),
            self.cost.allgather_time(self.size, 0), "coll.allgather")

    def _finish_split(self, t: float) -> None:
        dt = self.cost.barrier_time(self.size)
        self._finish_coll("split", t, dt, dt)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        t, _ = self.staged(None, _max_clock)
        self._finish_barrier(t)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        def compute(stage: list) -> tuple:
            value = stage[root][0]
            return value, _max_clock(stage), payload_nbytes(value)

        (value, t, nbytes), _ = self.staged(
            obj if self.rank == root else None, compute)
        self._finish_tree_coll("bcast", t, nbytes)
        return value

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        def compute(stage: list) -> tuple:
            objs = [e[0] for e in stage]
            return objs, _max_clock(stage), max(map(payload_nbytes, objs))

        (objs, t, nbytes), _ = self.staged(obj, compute)
        self._finish_tree_coll("gather", t, nbytes)
        if self.rank == root:
            return objs
        return None

    def allgather_staged(self, obj: Any,
                         compute: Callable[[list[Any]], Any]) -> Any:
        """Allgather-accounted staged collective (fused-collective hook).

        ``compute(objs)`` sees the list of deposited payloads exactly
        once — on the designated (last-arriver) rank — and its result is
        shared by reference with every rank.  Clock and counter
        accounting are **identical** to :meth:`allgather` of the same
        payloads, so algorithm layers can fuse the "allgather + every
        rank re-derives the same aggregate" pattern into one vectorised
        pass without disturbing virtual time (the stable-partition
        layout of :mod:`repro.core.partition` is the canonical user).
        """
        def produce(stage: list) -> tuple:
            objs = [e[0] for e in stage]
            return compute(objs), _max_clock(stage), max(map(payload_nbytes,
                                                             objs))

        (shared, t, nbytes), _ = self.staged(obj, produce)
        self._finish_allgather(t, nbytes)
        return shared

    def allgather(self, obj: Any) -> list[Any]:
        objs = self.allgather_staged(obj, lambda objs: objs)
        return list(objs)  # private list per rank; elements stay shared

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("root must provide one object per rank")

        def compute(stage: list) -> tuple:
            return stage[root][0], _max_clock(stage)

        (sent, t), _ = self.staged(
            list(objs) if self.rank == root else None, compute)
        self._finish_tree_coll("scatter", t, payload_nbytes(sent[self.rank]))
        return sent[self.rank]

    @staticmethod
    def _fold(stage: list, op: Callable[[Any, Any], Any] | None) -> Any:
        """Rank-order reduction over the staged values (runs once)."""
        acc = stage[0][0]
        if op is None:
            for e in stage[1:]:
                acc = acc + e[0]
        else:
            for e in stage[1:]:
                acc = op(acc, e[0])
        return acc

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """All-reduce with a deterministic rank-order reduction."""
        def compute(stage: list) -> tuple:
            return self._fold(stage, op), _max_clock(stage)

        (acc, t), _ = self.staged(value, compute)
        self._finish_tree_coll("allreduce", t, payload_nbytes(value))
        return acc

    def reduce(self, value: Any, root: int = 0,
               op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Rooted reduction (deterministic rank order); None off-root."""
        def compute(stage: list) -> tuple:
            return self._fold(stage, op), _max_clock(stage)

        (acc, t), _ = self.staged(value, compute)
        self._finish_tree_coll("reduce", t, payload_nbytes(value))
        return acc if self.rank == root else None

    def scan(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Inclusive prefix reduction: rank r gets reduce(values[0..r])."""
        def compute(stage: list) -> tuple:
            prefix = [None] * len(stage)
            acc = stage[0][0]
            prefix[0] = acc
            for r in range(1, len(stage)):
                v = stage[r][0]
                acc = (acc + v) if op is None else op(acc, v)
                prefix[r] = acc
            return prefix, _max_clock(stage)

        (prefix, t), _ = self.staged(value, compute)
        self._finish_tree_coll("scan", t, payload_nbytes(value))
        return prefix[self.rank]

    def exscan(self, value: Any, zero: Any = 0,
               op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Exclusive prefix reduction: rank r gets reduce(values[0..r-1]).

        Rank 0 receives ``zero`` (MPI leaves it undefined; a neutral
        element is friendlier).  ``zero`` must be communicator-uniform:
        the prefix chain is computed once from rank 0's ``zero``.  The
        classic displacement computation:
        ``offset = comm.exscan(len(my_chunk))``.
        """
        def compute(stage: list) -> tuple:
            prefix = [None] * len(stage)
            acc = stage[0][0][1]  # rank 0's zero
            prefix[0] = acc
            for r in range(1, len(stage)):
                v = stage[r - 1][0][0]
                acc = (acc + v) if op is None else op(acc, v)
                prefix[r] = acc
            return prefix, _max_clock(stage)

        (prefix, t), _ = self.staged((value, zero), compute)
        self._finish_tree_coll("exscan", t, payload_nbytes(value))
        return prefix[self.rank]

    def dup(self) -> "Comm":
        """Duplicate the communicator (fresh context, same group).

        Lets libraries use private tag space / collective ordering, as
        MPI_Comm_dup does.
        """
        sub = self.split(0, key=self.rank)
        assert sub is not None
        return sub

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalised exchange of small per-destination objects."""
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs {self.size} objects, got {len(objs)}")
        me = self.rank

        def reader(stage: list) -> list[Any]:
            return [stage[src][0][me] for src in range(self.size)]

        t, received = self.staged(list(objs), _max_clock, reader)
        nbytes = max(payload_nbytes(o) for o in received) if received else 0
        dt = self.cost.alltoallv_time(
            self.size, nbytes, ranks_per_node=self.ranks_per_node)
        if self._tracer is None:
            self.set_clock(t + dt)
        else:
            self.trace_collective(
                "alltoall", t, dt, self.cost.alltoallv_time(
                    self.size, 0, ranks_per_node=self.ranks_per_node))
            self.trace_edges([payload_nbytes(o) for o in objs])
        self.count("coll.alltoall")
        return received

    @staticmethod
    def _size_scan(stage: list) -> tuple:
        """Shared alltoallv accounting: one vectorised pass over the
        p x p size matrix instead of O(p) Python scans on every rank.

        Per-rank send/receive totals exclude the diagonal (a rank's
        chunk to itself never crosses the wire) while the total bytes
        include it (the fabric-cap term of
        :meth:`CostModel.alltoallv_time` is calibrated on gross volume).
        """
        sizes = np.array([e[0][1] for e in stage], dtype=np.int64)
        diag = np.diagonal(sizes)
        send_tot = sizes.sum(axis=1) - diag
        recv_tot = sizes.sum(axis=0) - diag
        return (_max_clock(stage), int(send_tot.max()), int(recv_tot.max()),
                int(sizes.sum()), send_tot, recv_tot, sizes)

    def alltoallv(self, batches: Sequence[RecordBatch]) -> list[RecordBatch]:
        """Synchronous all-to-all of record batches (MPI_Alltoallv).

        ``batches[d]`` goes to rank ``d``; the return value is the list
        of batches received, indexed by source rank — already in source
        order, which is what the stable variant of SDS-Sort relies on.
        Received bytes are charged to this rank's memory tracker and
        may raise :class:`SimOOMError`.
        """
        if len(batches) != self.size:
            raise ValueError(f"alltoallv needs {self.size} batches, got {len(batches)}")
        sizes = [b.nbytes for b in batches]
        me = self.rank

        def reader(stage: list) -> list[RecordBatch]:
            return [stage[src][0][0][me] for src in range(self.size)]

        shared, received = self.staged((list(batches), sizes),
                                        self._size_scan, reader)
        self._finish_alltoallv(shared, sizes)
        return received

    def _finish_alltoallv(self, shared: tuple, sizes: Sequence[int]) -> None:
        """Per-rank alltoallv epilogue over a ``_size_scan`` result.

        Shared with the columnar backend: memory charge for the
        received bytes, LogGP cost application (or its traced twin with
        the per-destination ``sizes`` edge matrix), operation counters.
        """
        t, max_send, max_recv, total_bytes, send_tot, recv_tot, _ = shared
        me = self.rank
        recv_bytes = int(recv_tot[me])
        self.mem.alloc(recv_bytes)
        dt = self.cost.alltoallv_time(
            self.size, max(max_send, max_recv),
            ranks_per_node=self.ranks_per_node, total_bytes=total_bytes)
        if self._tracer is None:
            self.set_clock(t + dt)
        else:
            self.trace_collective(
                "alltoallv", t, dt, self.cost.alltoallv_time(
                    self.size, 0, ranks_per_node=self.ranks_per_node,
                    total_bytes=0))
            self.trace_edges(sizes)
        self.count("coll.alltoallv")
        self.count("bytes.recv", recv_bytes)
        self.count("bytes.sent", int(send_tot[me]))

    def alltoallv_async(self, batches: Sequence[RecordBatch]
                        ) -> list[tuple[int, RecordBatch, float]]:
        """Nonblocking all-to-all returning a deterministic arrival schedule.

        Returns ``[(source, batch, t_complete), ...]`` sorted by
        modelled completion time.  Data movement itself is staged (and
        memory-charged) up front; only the *timing* is asynchronous:
        chunks "arrive" one by one under the derated async bandwidth,
        letting the caller overlap merging per the paper's Section 2.6.
        The rank's clock is advanced only past the synchronisation
        point; callers finish the overlap clock arithmetic.
        """
        if len(batches) != self.size:
            raise ValueError(f"alltoallv needs {self.size} batches, got {len(batches)}")
        sizes = [b.nbytes for b in batches]
        me = self.rank

        def reader(stage: list) -> list[RecordBatch]:
            return [stage[src][0][0][me] for src in range(self.size)]

        shared, received = self.staged((list(batches), sizes),
                                        self._size_scan, reader)
        start = shared[0]
        recv_tot, size_matrix = shared[5], shared[6]
        inbound = size_matrix[:, me].tolist()  # bytes arriving per source
        recv_bytes = int(recv_tot[me])
        self.mem.alloc(recv_bytes)
        spec = self.machine
        bw = (spec.nic_bandwidth if self.ranks_per_node > 1
              else spec.single_stream_bandwidth)
        bw *= spec.async_bandwidth_factor
        # ring schedule: receive from rank+1, rank+2, ... wrapping around
        order = [(me + off) % self.size for off in range(1, self.size)]
        arrivals: list[tuple[int, RecordBatch, float]] = []
        t = start + spec.net_latency
        node_factor = min(self.ranks_per_node, self.size)
        for src in order:
            t += (inbound[src] * node_factor) / bw + spec.per_message_overhead
            arrivals.append((src, received[src], t))
        # own chunk is available immediately
        arrivals.insert(0, (me, received[me], start))
        dt = self.cost.async_progress_overhead(self.size)
        if self._tracer is None:
            self.set_clock(start + dt)
        else:
            # the byte time is overlapped by the caller against the
            # arrival schedule; only the progress CPU is charged here
            self.trace_collective("alltoallv_async", start, dt, dt)
            self.trace_edges(sizes)
        self.count("coll.alltoallv_async")
        self.count("bytes.recv", recv_bytes)
        return arrivals

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def split(self, color: int | None, key: int | None = None) -> "Comm | None":
        """MPI_Comm_split: group ranks by ``color``, order by ``(key, rank)``.

        ``color=None`` (MPI_UNDEFINED) opts out and returns ``None``.
        """
        mykey = self.rank if key is None else key
        ctx = self._ctx
        world = self._world

        def compute(stage: list) -> tuple:
            return split_contexts(stage, ctx, world), _max_clock(stage)

        # the contexts dict lives only in this generation's barrier
        # payload, so repeated splits can never observe a stale one
        (contexts, t), _ = self.staged((color, mykey), compute)
        newctx: CommContext | None = (contexts.get(color)
                                      if color is not None else None)
        self._finish_split(t)
        if newctx is None:
            return None
        return Comm(world, newctx, newctx.group.index(self.grank))

    def node_split(self) -> tuple["Comm", "Comm | None"]:
        """SdssRefineComm (Section 2.3): node-local and leader communicators.

        Returns ``(local, leaders)`` where ``local`` spans the ranks of
        this communicator sharing my node (MPI_COMM_TYPE_SHARED) and
        ``leaders`` connects rank 0 of every node (``None`` on
        non-leader ranks).
        """
        local = self.split(self._world.node_of(self.grank), key=self.rank)
        assert local is not None
        leader_color = 0 if local.rank == 0 else None
        leaders = self.split(leader_color, key=self.rank)
        return local, leaders

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Eager send to ``dest`` (communicator rank).

        Under a fault plan, transport faults for this message are
        resolved here deterministically (see
        :meth:`~repro.faults.plan.FaultPlan.p2p_event`).  Drops are
        *modelled, not enacted*: the reliable layer retransmits until
        delivery, so the payload crosses the wire exactly once while
        the sender's clock absorbs the detection timeouts and resend
        costs — protocols above never see a missing message and cannot
        deadlock.  Delays inflate the carried send timestamp;
        duplicates charge the sender one extra injection (the receiver
        discards its copy in :meth:`_complete_recv` from the same
        deterministic event, so no spurious payload enters the
        channel).
        """
        tr = self._tracer
        t0 = self.clock
        self.charge(self.machine.per_message_overhead)
        gdest = self._ctx.group[dest]
        sent_clock = None
        f = self._faults
        if f is not None and f.has_message_faults:
            key = (gdest, tag)
            seq = self._send_seq.get(key, 0)
            self._send_seq[key] = seq + 1
            ev = f.p2p_event(self.grank, gdest, tag, seq)
            if ev.lost:
                raise MessageLostError(
                    f"message {self.grank}->{gdest} (tag {tag}, seq {seq}) "
                    f"dropped more than {f.spec.retry.max_retries} times")
            if ev.drops:
                penalty = (f.spec.retry.detection_time(ev.drops)
                           + ev.drops * self.cost.p2p_time(
                               payload_nbytes(obj)))
                self._advance(penalty)
                self.count("faults.msg_dropped", ev.drops)
                self.count("retry.time", penalty)
                if tr is not None:
                    tr.instant(self.grank, "fault", "msg_dropped", self.clock,
                               {"dst": gdest, "drops": ev.drops})
            if ev.delay:
                sent_clock = self.clock + ev.delay
                self.count("faults.msg_delayed")
                if tr is not None:
                    tr.instant(self.grank, "fault", "msg_delayed", self.clock,
                               {"dst": gdest, "delay": ev.delay})
            if ev.duplicate:
                self._advance(self.machine.per_message_overhead)
                self.count("faults.msg_duplicated")
                if tr is not None:
                    tr.instant(self.grank, "fault", "msg_duplicated",
                               self.clock, {"dst": gdest})
        ch = self._world.channel(self.grank, gdest, tag)
        ch.put((obj, self.clock if sent_clock is None else sent_clock))
        self.count("p2p.send")
        self.count("bytes.sent", payload_nbytes(obj))
        if tr is not None:
            nbytes = payload_nbytes(obj)
            tr.span(self.grank, "p2p", f"send->{gdest}", t0, self.clock,
                    {"bytes": nbytes})
            tr.edge(self.grank, gdest, nbytes)

    def _try_recv(self, source: int, tag: int):
        ch = self._world.channel(self._ctx.group[source], self.grank, tag)
        return ch.get_nowait()

    def _complete_recv(self, gsrc: int, tag: int, obj: Any,
                       sent_clock: float) -> Any:
        tr = self._tracer
        if tr is None:
            arrival = sent_clock + self.cost.p2p_time(payload_nbytes(obj))
            self.set_clock(max(self.clock, arrival))
        else:
            nbytes = payload_nbytes(obj)
            flight = self.cost.p2p_time(nbytes)
            arrival = sent_clock + flight
            c0 = self.clock
            self.set_clock(max(self.clock, arrival))
            adv = self.clock - c0
            if adv > 0.0:
                # advance = (waiting on a late sender) + flight time;
                # split the in-flight part into its zero-byte latency
                # and byte-proportional remainder
                wait = max(0.0, adv - flight)
                rest = adv - wait
                lat = min(rest, self.cost.p2p_time(0))
                g = self.grank
                tr.span(g, "p2p", f"recv<-{gsrc}", c0, self.clock,
                        {"bytes": nbytes})
                if wait > 0.0:
                    tr.add(g, "cost.wait", wait)
                tr.add(g, "cost.latency", lat)
                if rest > lat:
                    tr.add(g, "cost.bandwidth", rest - lat)
        f = self._faults
        if f is not None and f.has_message_faults:
            key = (gsrc, tag)
            seq = self._recv_seq.get(key, 0)
            self._recv_seq[key] = seq + 1
            # channels are FIFO per (src, dst, tag), so the receiver's
            # private counter names the same message the sender drew —
            # both sides resolve the identical MessageEvent.
            ev = f.p2p_event(gsrc, self.grank, tag, seq)
            if ev.duplicate:
                self._advance(self.machine.per_message_overhead)
                self.count("faults.dup_discarded")
                if tr is not None:
                    tr.instant(self.grank, "fault", "dup_discarded",
                               self.clock, {"src": gsrc})
        self.count("p2p.recv")
        return obj

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking (abortable, event-driven) receive from ``source``.

        Wall-clock seconds spent blocked waiting for the message are
        accumulated in the ``p2p.wait`` counter.
        """
        gsrc = self._ctx.group[source]
        ch = self._world.channel(gsrc, self.grank, tag)
        got = ch.get_nowait()
        if got is None:
            t0 = time.perf_counter()
            got = ch.get(self._world.abort)
            self.count("p2p.wait", time.perf_counter() - t0)
        return self._complete_recv(gsrc, tag, *got)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Post a nonblocking receive; complete via ``test``/``wait``."""
        return Request(self, source, tag)

    def sendrecv(self, obj: Any, peer: int, tag: int = 0) -> Any:
        """Simultaneous exchange with ``peer`` (deadlock-free)."""
        self.send(obj, peer, tag)
        return self.recv(peer, tag)
