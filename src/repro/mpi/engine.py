"""SPMD launcher: run the same function on ``p`` simulated ranks.

``run_spmd(fn, p)`` is the simulation counterpart of
``mpiexec -n p python script.py``: it hands each of ``p`` rank threads
a :class:`~repro.mpi.comm.Comm`, and gathers results, virtual clocks,
phase breakdowns and memory statistics.

Rank threads come from a persistent :class:`SpmdPool` (grown on demand,
reused across ``run_spmd`` invocations), so benchmark sweeps that launch
hundreds of worlds pay thread start-up once instead of per data point.

Failure semantics: if any rank raises, the world aborts; sibling ranks
unwind with :class:`SimAbort` at their next blocking call, and the
engine either raises :class:`RankFailure` (default) or returns a result
object with ``failure`` set (``check=False``) — the latter is how
benches report the paper's HykSort OOM entries instead of crashing.
"""

from __future__ import annotations

import atexit
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..machine import LAPTOP, MachineSpec
from .comm import Comm, SimWorld
from .errors import RankFailure, RunCancelled, SimAbort

#: Per-thread stack size; rank programs are shallow, so a small stack
#: lets runs with thousands of ranks stay cheap.
_STACK_BYTES = 512 * 1024

#: Worlds at least this large run under a coarser GIL switch interval.
#: CPython's default 5 ms preemption quantum makes a thousand runnable
#: rank threads thrash: each forced GIL hand-off wakes another thread
#: for a sliver of bytecode, and the convoy multiplies host CPU by 3-4x
#: (measured at p=1024: ~25 s vs ~9 s for the same run).  Rank threads
#: block voluntarily at every collective, so coarse preemption costs
#: nothing in responsiveness.
_COARSE_SWITCH_RANKS = 64
_COARSE_SWITCH_INTERVAL = 0.05

# ``sys.setswitchinterval`` is process-global, so the coarse-mode toggle
# is refcounted here instead of living inside one pool's lock: two pools
# running concurrently would otherwise each save-and-restore, and the
# second restore could reinstate the *coarse* interval as "the original".
_switch_lock = threading.Lock()
_switch_depth = 0
_switch_saved = 0.0


def _coarse_enter() -> None:
    global _switch_depth, _switch_saved
    with _switch_lock:
        if _switch_depth == 0:
            _switch_saved = sys.getswitchinterval()
            if _switch_saved < _COARSE_SWITCH_INTERVAL:
                sys.setswitchinterval(_COARSE_SWITCH_INTERVAL)
        _switch_depth += 1


def _coarse_exit() -> None:
    global _switch_depth
    with _switch_lock:
        _switch_depth -= 1
        if _switch_depth == 0:
            sys.setswitchinterval(_switch_saved)


class _Latch:
    """Count-down completion latch for one SPMD run."""

    def __init__(self, parties: int):
        self._remaining = parties
        self._cond = threading.Condition()

    def count_down(self) -> None:
        with self._cond:
            self._remaining -= 1
            if self._remaining == 0:
                self._cond.notify_all()

    def wait(self) -> None:
        with self._cond:
            while self._remaining:
                self._cond.wait()


class _Worker(threading.Thread):
    """One pool thread hosting a simulated rank for the current run.

    Idles on a condition variable between runs (zero CPU); a submitted
    task is ``(fn, rank, latch)`` and the worker always counts the
    latch down, even if the rank program escapes the engine's own
    exception handling.
    """

    def __init__(self, index: int):
        super().__init__(name=f"spmd-worker-{index}", daemon=True)
        self._cond = threading.Condition()
        self._task: tuple[Callable[[int], None], int, _Latch] | None = None
        self._halt = False

    def submit(self, fn: Callable[[int], None], rank: int, latch: _Latch) -> None:
        with self._cond:
            self._task = (fn, rank, latch)
            self._cond.notify()

    def stop(self) -> None:
        with self._cond:
            self._halt = True
            self._cond.notify()

    def run(self) -> None:
        while True:
            with self._cond:
                while self._task is None and not self._halt:
                    self._cond.wait()
                if self._halt:
                    return
                fn, rank, latch = self._task
                self._task = None
            try:
                fn(rank)
            except BaseException:  # noqa: BLE001 - runner() already records
                pass  # never let a stray exception kill the pool thread
            finally:
                latch.count_down()


class SpmdPool:
    """Persistent pool of rank threads shared by ``run_spmd`` calls.

    The pool grows to the largest ``p`` it has served and never
    shrinks; workers are daemon threads with small stacks that sleep
    between runs, so an idle pool costs memory only.  One pool runs one
    world at a time (``run`` holds the pool lock for the whole
    invocation), so two worlds sharing a pool serialize rather than
    corrupt each other; nested ``run_spmd`` calls from inside a rank
    program must pass their own pool (or rely on the p==1 inline path).

    Concurrent borrowers (the sort-as-a-service warm-pool cache hands
    pools to scheduler threads) coordinate through the lease refcount:
    :meth:`lease`/:meth:`release` are thread-safe, ``leases`` tells a
    cache whether a pool is idle, and :meth:`shutdown` refuses while
    any lease is outstanding — a job can never have its rank threads
    torn down under it by another job's cleanup.
    """

    def __init__(self) -> None:
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        self._lease_lock = threading.Lock()
        self._leases = 0
        self._down = False

    @property
    def size(self) -> int:
        """Current number of pool threads."""
        return len(self._workers)

    @property
    def leases(self) -> int:
        """Outstanding lease count (0 = idle, safe to shut down)."""
        with self._lease_lock:
            return self._leases

    def lease(self) -> "SpmdPool":
        """Register a borrower; returns ``self`` for chaining.

        Leasing is advisory refcounting, not mutual exclusion: two
        borrowers may hold leases at once (their runs serialize on the
        run lock).  It exists so a pool cache can tell idle pools from
        busy ones and so :meth:`shutdown` cannot fire mid-job.
        """
        with self._lease_lock:
            if self._down:
                raise RuntimeError("pool has been shut down")
            self._leases += 1
        return self

    def release(self) -> None:
        """Drop one lease taken with :meth:`lease`."""
        with self._lease_lock:
            if self._leases <= 0:
                raise RuntimeError("release() without a matching lease()")
            self._leases -= 1

    def _grow(self, p: int) -> None:
        if len(self._workers) >= p:
            return
        old_stack = threading.stack_size(_STACK_BYTES)
        try:
            while len(self._workers) < p:
                w = _Worker(len(self._workers))
                w.start()
                self._workers.append(w)
        finally:
            threading.stack_size(old_stack)

    def run(self, fn: Callable[[int], None], p: int) -> None:
        """Execute ``fn(rank)`` concurrently for every rank in ``[0, p)``."""
        self.run_ranks(fn, range(p))

    def run_ranks(self, fn: Callable[[int], None],
                  ranks: Iterable[int]) -> None:
        """Execute ``fn(rank)`` concurrently for an explicit rank subset.

        The proc backend's workers host contiguous *blocks* of a larger
        world's rank ids on their local pools; ``run`` is the
        ``ranks == range(p)`` special case.
        """
        ranks = list(ranks)
        if not ranks:
            return
        with self._lock:
            coarse = len(ranks) >= _COARSE_SWITCH_RANKS
            if coarse:
                _coarse_enter()
            try:
                self._grow(len(ranks))
                latch = _Latch(len(ranks))
                for w, r in zip(self._workers, ranks):
                    w.submit(fn, r, latch)
                latch.wait()
            finally:
                if coarse:
                    _coarse_exit()

    def shutdown(self) -> None:
        """Stop and join all pool threads (tests / pool-cache eviction).

        Refuses while leases are outstanding: a warm-pool cache evicting
        this pool must not tear the rank threads down under a job that
        is still borrowing them.
        """
        with self._lease_lock:
            if self._leases:
                raise RuntimeError(
                    f"cannot shut down pool with {self._leases} outstanding "
                    "lease(s)")
            self._down = True
        with self._lock:
            for w in self._workers:
                w.stop()
            for w in self._workers:
                w.join()
            self._workers.clear()


_default_pool: SpmdPool | None = None
_default_pool_lock = threading.Lock()


def default_pool() -> SpmdPool:
    """The process-wide rank-thread pool used by :func:`run_spmd`."""
    global _default_pool
    if _default_pool is None:
        with _default_pool_lock:
            if _default_pool is None:
                _default_pool = SpmdPool()
                # join the daemon workers before interpreter teardown
                # starts tearing down the condition variables under them
                atexit.register(_default_pool.shutdown)
    return _default_pool


@dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    p: int
    results: list[Any]
    clocks: list[float]
    phase_times: list[dict[str, float]]
    counters: list[dict[str, float]]
    mem_peaks: list[int]
    failure: RankFailure | None = None
    traces: list[list[tuple[float, float, str]]] = field(default_factory=list)
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def elapsed(self) -> float:
        """Simulated makespan: the slowest rank's virtual clock."""
        return max(self.clocks) if self.clocks else 0.0

    def phase_breakdown(self) -> dict[str, float]:
        """Max-over-ranks virtual time per phase (the paper's stacked bars)."""
        names: set[str] = set()
        for pt in self.phase_times:
            names.update(pt)
        return {name: max(pt.get(name, 0.0) for pt in self.phase_times)
                for name in sorted(names)}


def _cancelled(failures: Sequence[tuple[int, BaseException]]) -> bool:
    return any(isinstance(exc, RunCancelled) for _, exc in failures)


def run_spmd(fn: Callable[..., Any], p: int, *,
             machine: MachineSpec = LAPTOP,
             mem_capacity: int | None = None,
             args: Sequence[Any] = (),
             kwargs: dict[str, Any] | None = None,
             check: bool = True,
             pool: Any = None,
             faults: Any = None,
             tracer: Any = None,
             backend: str = "thread",
             procs: int | None = None,
             cancel: Any = None,
             metrics: Any = None) -> SpmdResult:
    """Execute ``fn(comm, *args, **kwargs)`` on ``p`` simulated ranks.

    Parameters
    ----------
    fn:
        The rank program.  Called once per rank with that rank's
        :class:`Comm` as first argument.
    p:
        Number of ranks.
    machine:
        Hardware model for cost accounting (default: small LAPTOP).
    mem_capacity:
        Per-rank memory limit in bytes (``None`` = unlimited).  Pass
        e.g. ``machine.mem_per_rank`` scaled to the experiment's data
        scale to reproduce OOM behaviour.
    check:
        If True (default) raise :class:`RankFailure` when a rank fails;
        if False, return the partial :class:`SpmdResult` with
        ``failure`` set instead.
    pool:
        Pool to run on: an :class:`SpmdPool` for the thread backend
        (default: the process-wide :func:`default_pool`) or a
        :class:`~repro.mpi.procpool.ProcPool` for the proc backend
        (default: :func:`~repro.mpi.procpool.default_proc_pool`).  The
        sort-as-a-service scheduler injects warm cached pools here so
        concurrent jobs never contend on the shared defaults.
    faults:
        Optional compiled :class:`~repro.faults.plan.FaultPlan` (for
        ``p`` ranks) injected at the Comm hook points.  ``None`` — the
        default — leaves every code path bit-for-bit identical to a
        fault-free engine.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` (allocated for ``p``
        ranks) collecting virtual-time spans, cost-split counters and
        edge bytes.  ``None`` — the default — keeps every hook a single
        attribute check; the tracer is purely observational either way,
        so virtual clocks are identical with tracing on or off.
    backend:
        ``"thread"`` (default) hosts every rank as a pool thread in this
        process; ``"proc"`` shards the rank ids across worker processes
        (see :mod:`repro.mpi.procpool`); ``"flat"`` drives every rank
        from one interpreter loop with zero threads, running each
        phase's heavy work as batched columnar numpy over the whole
        world (see :mod:`repro.mpi.flatworld` — the rank program must
        expose a ``flat_run`` entry point).  Virtual clocks, results
        and trace counters are bit-for-bit identical across backends.
    procs:
        Worker-process count for ``backend="proc"`` (default: a scale-
        dependent heuristic).  Ignored by the thread backend.
    cancel:
        Optional :class:`threading.Event`; when it fires mid-run (a
        service timeout or an explicit cancel), the world aborts and
        the result carries a :class:`RankFailure` whose cause is
        :class:`RunCancelled`.  The thread backend (and the shared p==1
        inline path) watches it from a side thread; the flat backend
        polls it at every phase and collective boundary, so it stops
        within one phase.  The proc backend does not interrupt a run
        in flight.
    metrics:
        Optional telemetry sink (duck-typed: ``record_world(backend=,
        p=, cancelled=)``) counting worlds launched per executing
        backend and the cancellations that aborted them.  ``None`` —
        the default — is a single ``is None`` check, like ``tracer``:
        clocks and results are bit-for-bit identical either way.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if faults is not None and getattr(faults, "p", p) != p:
        raise ValueError(f"fault plan compiled for p={faults.p}, "
                         f"world has p={p}")
    kwargs = dict(kwargs or {})
    if backend == "proc":
        if p > 1:
            from .procpool import ProcPool, run_spmd_proc
            if metrics is not None:
                metrics.record_world(backend="proc", p=p)
            return run_spmd_proc(
                fn, p, machine=machine, mem_capacity=mem_capacity,
                args=args, kwargs=kwargs, check=check, faults=faults,
                tracer=tracer, procs=procs,
                pool=pool if isinstance(pool, ProcPool) else None)
        # p == 1 shares the inline path below (identical semantics,
        # nothing to shard)
    elif backend == "flat":
        if p > 1:
            from .flatworld import run_spmd_flat
            res = run_spmd_flat(
                fn, p, machine=machine, mem_capacity=mem_capacity,
                args=args, kwargs=kwargs, check=False, faults=faults,
                tracer=tracer, cancel=cancel)
            if metrics is not None:
                metrics.record_world(
                    backend="flat", p=p,
                    cancelled=(res.failure is not None
                               and _cancelled(res.failure.failures)))
            if res.failure is not None and check:
                raise res.failure from res.failure.cause
            return res
        # p == 1 shares the inline path below (one rank needs no
        # batching, and the thread path never spawns a thread for it)
    elif backend != "thread":
        raise ValueError(f"unknown backend {backend!r}; "
                         "options: 'thread', 'proc', 'flat'")
    world = SimWorld(p, machine, mem_capacity=mem_capacity, faults=faults,
                  tracer=tracer)
    results: list[Any] = [None] * p
    failures: list[tuple[int, BaseException]] = []
    failures_lock = threading.Lock()

    def runner(rank: int) -> None:
        comm = Comm(world, world.world_ctx, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except SimAbort:
            pass  # collateral unwind of someone else's failure
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            with failures_lock:
                failures.append((rank, exc))
            world.abort.set()

    done = threading.Event()

    def _cancel_watch() -> None:
        # Poll-free wait on the cancel event; ``done`` bounds the watch
        # so a completed run never keeps a thread pinned on an event
        # that may never fire.
        while not done.is_set():
            if cancel.wait(0.01):
                if not done.is_set():
                    with failures_lock:
                        failures.append((0, RunCancelled(
                            "run cancelled while in flight")))
                    world.abort.set()
                return

    watcher = None
    if cancel is not None:
        if cancel.is_set():  # cancelled before the world even started
            failures.append((0, RunCancelled("run cancelled before start")))
            world.abort.set()
        else:
            watcher = threading.Thread(target=_cancel_watch,
                                       name="spmd-cancel-watch", daemon=True)
            watcher.start()

    try:
        if world.abort.is_set:
            pool_threads = 0  # cancelled pre-start: nothing to run
        elif p == 1:
            runner(0)
            pool_threads = 0
        else:
            run_pool = pool if isinstance(pool, SpmdPool) else default_pool()
            run_pool.run(runner, p)
            pool_threads = run_pool.size
    finally:
        done.set()
        if watcher is not None:
            watcher.join()

    failure: RankFailure | None = None
    if failures:
        failures.sort(key=lambda rf: rf[0])
        failure = RankFailure(failures)
    if metrics is not None:
        metrics.record_world(backend="thread", p=p,
                             cancelled=_cancelled(failures))
    if failure is not None and check:
        raise failure from failure.cause

    return SpmdResult(
        p=p,
        results=results,
        clocks=list(world.clocks),
        phase_times=[dict(pt) for pt in world.phase_times],
        counters=[dict(c) for c in world.counters],
        mem_peaks=[m.peak for m in world.mem],
        failure=failure,
        traces=[list(t) for t in world.traces],
        extras={
            "backend": "thread",
            "workers": 1,
            "pool_threads": pool_threads,
            "shards": [[0, p]],
            "coarse_switch": p >= _COARSE_SWITCH_RANKS,
        },
    )
