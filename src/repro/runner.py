"""One-call experiment runner shared by tests, benches, examples and CLI.

Wraps the SPMD engine: generates a workload's shards, runs the chosen
algorithm on ``p`` simulated ranks, validates the output, and reports
the quantities the paper's tables and figures are made of (virtual
time, phase breakdown, per-rank loads, RDFA, throughput, OOM status).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from .baselines import (
    HykParams,
    bitonic_sort_batch,
    bitonic_sort_batch_world,
    hyksort,
    hyksort_secondary_key,
    hyksort_secondary_key_world,
    hyksort_world,
    psrs_sort,
    psrs_sort_world,
    radix_sort,
    radix_sort_world,
)
from .core import SdsParams, sds_sort, sds_sort_world
from .core.bitonic import is_power_of_two
from .machine import EDISON, MachineSpec
from .metrics import check_sorted, rdfa, tb_per_min
from .mpi import ColumnarWorld, Comm, run_spmd
from .mpi.errors import RunCancelled
from .records import RecordBatch, tag_provenance
from .workloads import Workload

#: Edison headroom: 64 GB / 24 ranks = 2.67 GB per rank against the
#: paper's 400 MB input shard — a 6.7x memory-capacity-to-input ratio.
#: Functional runs scale the capacity with the same ratio so OOM
#: behaviour matches the testbed's.
MEM_FACTOR = 6.7


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered distributed-sort algorithm.

    ``ctor`` is the collective entry point ``(comm, batch, ...)``.  When
    ``params_type`` is set, user options (merged over ``defaults``) are
    packed into one ``params_type(**opts)`` value and passed as the
    third positional argument; otherwise they are passed as keyword
    arguments.  ``stable`` declares that equal-key output order is
    guaranteed stable — the runner validates accordingly and benches /
    the CLI no longer need a separate stable-algorithm set.
    ``world_ctor`` is the algorithm's world-form entry point
    ``(world, comms, batches, ...)`` — the single implementation behind
    ``ctor`` that the columnar flat engine drives whole-world; an
    algorithm without one cannot run on ``backend="flat"``.
    """

    name: str
    ctor: Callable[..., Any]
    params_type: type | None = None
    defaults: dict[str, Any] = field(default_factory=dict)
    stable: bool = False
    summary: str = ""
    world_ctor: Callable[..., Any] | None = None
    #: ``(p, n_per_rank) -> reason`` for run shapes the algorithm always
    #: rejects (``None`` when it can run); checked at admission.
    constraint: Callable[[int, int], str | None] | None = None

    def invoke(self, comm: Comm, batch: RecordBatch,
               opts: dict[str, Any] | None = None) -> Any:
        """Run the algorithm collectively with ``opts`` over defaults."""
        merged = {**self.defaults, **(opts or {})}
        if self.params_type is not None:
            return self.ctor(comm, batch, self.params_type(**merged))
        return self.ctor(comm, batch, **merged)

    def invoke_world(self, world: Any, comms: list[Comm], batches: list,
                     opts: dict[str, Any] | None = None) -> list:
        """Run the algorithm's world form over every rank of ``world``."""
        if self.world_ctor is None:
            raise TypeError(f"algorithm {self.name!r} has no world-form "
                            "entry point")
        merged = {**self.defaults, **(opts or {})}
        if self.params_type is not None:
            return self.world_ctor(world, comms, batches,
                                   self.params_type(**merged))
        return self.world_ctor(world, comms, batches, **merged)


def _power_of_two_p(p: int, n_per_rank: int) -> str | None:
    return None if is_power_of_two(p) else f"needs a power-of-two p, got {p}"


def _nonempty_shards(p: int, n_per_rank: int) -> str | None:
    if p == 1 or n_per_rank >= 1:
        return None
    return f"cannot sample pivots from empty shards (n_per_rank=0 at p={p})"


ALGORITHMS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec(
            "sds", sds_sort, params_type=SdsParams,
            world_ctor=sds_sort_world,
            summary="SDS-Sort (the paper): skew-aware adaptive samplesort"),
        AlgorithmSpec(
            "sds-stable", sds_sort, params_type=SdsParams,
            defaults={"stable": True}, stable=True,
            world_ctor=sds_sort_world,
            summary="SDS-Sort with the stable partition/merge pipeline"),
        AlgorithmSpec(
            "psrs", psrs_sort, world_ctor=psrs_sort_world,
            constraint=_nonempty_shards,
            summary="classic PSRS: regular sampling, no skew handling"),
        AlgorithmSpec(
            "hyksort", hyksort, params_type=HykParams,
            world_ctor=hyksort_world,
            summary="HykSort: k-way hypercube samplesort (comparator)"),
        AlgorithmSpec(
            "hyksort-sk", hyksort_secondary_key, params_type=HykParams,
            stable=True, world_ctor=hyksort_secondary_key_world,
            summary="HykSort on (key, provenance): stability workaround"),
        AlgorithmSpec(
            "bitonic", bitonic_sort_batch, world_ctor=bitonic_sort_batch_world,
            constraint=_power_of_two_p,
            summary="full bitonic sort network (small-p baseline)"),
        AlgorithmSpec(
            "radix", radix_sort, world_ctor=radix_sort_world,
            summary="distributed LSD radix sort (integer keys)"),
    )
}


@dataclass
class RunResult:
    """Everything a bench needs from one distributed-sort run."""

    algorithm: str
    workload: str
    p: int
    n_per_rank: int
    record_bytes: int
    ok: bool
    oom: bool
    elapsed: float                       # simulated seconds (makespan)
    loads: list[int] = field(default_factory=list)
    phase_times: dict[str, float] = field(default_factory=dict)
    failure: str | None = None
    outputs: list[RecordBatch] | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def rdfa(self) -> float:
        """max/avg load; infinity on failed runs (the paper's convention)."""
        if not self.ok:
            return math.inf
        if not self.loads:  # hybrid points carry count-space rdfa instead
            return float(self.extras.get("rdfa", math.nan))
        return rdfa(self.loads)

    @property
    def total_bytes(self) -> int:
        return self.n_per_rank * self.p * self.record_bytes

    @property
    def throughput_tb_min(self) -> float:
        """Simulated sorting throughput in TB/min (0 for failed runs)."""
        if not self.ok or self.elapsed <= 0:
            return 0.0
        return tb_per_min(self.total_bytes, self.elapsed)


#: Counter prefixes aggregated into ``RunResult.extras["faults"]``.
_FAULT_COUNTER_PREFIXES = ("faults.", "retry.")

#: Every backend name :func:`run_sort` accepts.
BACKENDS = ("thread", "proc", "hybrid", "flat", "auto")


def resolve_backend(backend: str, algorithm: str,
                    algo_opts: dict[str, Any] | None = None
                    ) -> tuple[str, str]:
    """Resolve ``backend`` (possibly ``"auto"``) to a concrete engine.

    Returns ``(resolved, reason)``.  ``"auto"`` picks the columnar flat
    engine whenever the algorithm has a world-form entry point (every
    registered algorithm does — the flat engine drives the same
    implementation the rank threads run), and the thread engine
    otherwise.  Unknown names raise a ``ValueError`` listing the
    choices.
    """
    if backend != "auto":
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; options: "
                + ", ".join(repr(b) for b in BACKENDS))
        return backend, "explicitly requested"
    spec = ALGORITHMS.get(algorithm)
    if spec is not None and spec.world_ctor is not None:
        return "flat", ("world-form implementation drives the whole-world "
                        "batched path: columnar flat engine")
    return "thread", (f"algorithm {algorithm!r} has no world-form entry "
                      "point: thread engine")


def eligible_backends(algorithm: str) -> list[str]:
    """Concrete engines that can run ``algorithm`` (``auto`` excluded).

    ``thread`` and ``proc`` accept any per-rank callable; ``flat``
    needs the algorithm's world-form entry point; ``hybrid`` needs an
    analytic count-space load model in :mod:`repro.simfast`.
    """
    out = ["thread", "proc"]
    spec = ALGORITHMS.get(algorithm)
    if spec is not None and spec.world_ctor is not None:
        out.append("flat")
    from .simfast.scaling import _LOAD_METHODS
    if algorithm in _LOAD_METHODS:
        out.append("hybrid")
    return out


@dataclass(frozen=True)
class _SortProgram:
    """The per-rank program of :func:`run_sort`, as a picklable value.

    The proc backend ships the rank program to worker processes by
    pickle; a closure over ``run_sort``'s locals cannot travel, so the
    captured state lives in dataclass fields and the algorithm is
    re-resolved from :data:`ALGORITHMS` by name on the far side.
    """

    algorithm: str
    workload: Workload
    n_per_rank: int
    seed: int
    opts: dict[str, Any]

    def __call__(self, comm: Comm):
        shard = self.workload.shard(self.n_per_rank, comm.size, comm.rank,
                                    self.seed)
        shard = tag_provenance(shard, comm.rank)
        out = ALGORITHMS[self.algorithm].invoke(comm, shard, self.opts)
        return shard, out

    def flat_run(self, comms: list[Comm]):
        """Whole-world entry point for ``backend="flat"``.

        Drives the algorithm's world-form implementation over a
        columnar view of the world — the same code the rank threads
        execute, minus the threads.
        """
        spec = ALGORITHMS[self.algorithm]
        if spec.world_ctor is None:
            raise TypeError(
                "backend='flat' needs an algorithm with a world-form entry "
                f"point; {self.algorithm!r} has none (use backend='thread' "
                "or 'proc', or 'auto' to pick automatically)")
        world = ColumnarWorld(comms[0]._world)
        shards = []
        for c in comms:
            shard = self.workload.shard(self.n_per_rank, c.size, c.rank,
                                        self.seed)
            shards.append(tag_provenance(shard, c.rank))
        outcomes = spec.invoke_world(world, comms, shards, self.opts)
        results = [None if o is None else (shards[i], o)
                   for i, o in enumerate(outcomes)]
        return results, world.failures


def run_sort(algorithm: str, workload: Workload, *, n_per_rank: int, p: int,
             machine: MachineSpec = EDISON, seed: int = 0,
             mem_factor: float | None = MEM_FACTOR,
             validate: bool = True, keep_outputs: bool = False,
             algo_opts: dict[str, Any] | None = None,
             faults: Any = None, fault_seed: int = 0,
             trace: bool = False,
             backend: str = "thread", procs: int | None = None,
             pool: Any = None, cancel: Any = None,
             metrics: Any = None) -> RunResult:
    """Run one distributed sort end to end on the simulated machine.

    Parameters
    ----------
    algorithm: one of :data:`ALGORITHMS`.
    workload: dataset family; each rank generates its own shard.
    n_per_rank, p: weak-scaling shape (records per rank, ranks).
    mem_factor: per-rank memory capacity as a multiple of the input
        shard's bytes (default: Edison's 6.7x).  ``None`` disables OOM.
    validate: check sortedness/stability/multiset on success.
    keep_outputs: retain per-rank output batches on the result.
    faults: optional :class:`~repro.faults.spec.FaultSpec`; compiled
        against ``(p, fault_seed)`` into the deterministic plan the
        engine injects.  ``None`` (or an empty spec) runs fault-free.
    fault_seed: seed for the fault schedule, independent of the data
        ``seed`` so the same dataset can face different fault draws.
    trace: collect a virtual-time trace of the run; the resulting
        :class:`~repro.obs.report.TraceReport` lands in
        ``extras["trace"]``.  Tracing is purely observational — the
        simulated clocks are identical with it on or off.
    backend: ``"thread"`` (default), ``"proc"`` and ``"flat"`` run the
        functional engine — bit-for-bit identical results, with ranks
        hosted in this process, sharded over worker processes, or
        executed as whole-world columnar phases with zero rank threads
        respectively (every registered algorithm has the world-form
        entry point ``"flat"`` drives).  ``"auto"`` resolves to
        ``"flat"`` when the algorithm supports it and ``"thread"``
        otherwise; the resolution and the per-algorithm eligibility
        list are recorded in ``extras["backend"]``.  ``"hybrid"`` computes the point
        analytically at any ``p`` (up to 128Ki+) while functionally
        executing a deterministic rank sample for validation; see
        :func:`repro.simfast.hybrid_scaling_point`.
    procs: worker-process count for ``backend="proc"``.
    pool: optional warm pool to host the run — an
        :class:`~repro.mpi.engine.SpmdPool` (thread backend) or
        :class:`~repro.mpi.procpool.ProcPool` (proc backend).  The
        sort-as-a-service scheduler leases pools from its cache and
        injects them here so concurrent jobs reuse rank threads /
        worker interpreters across requests instead of cold-starting.
    cancel: optional :class:`threading.Event`; firing it mid-run aborts
        the world with a ``RunCancelled`` failure.  The thread backend
        watches it from a side thread, the flat backend polls it at
        every phase and collective boundary (at most one phase of
        overrun); the proc and hybrid backends do not interrupt a
        run in flight.
    metrics: optional telemetry sink (duck-typed — any object with
        ``record_run`` / ``record_world``, e.g.
        :class:`repro.service.metrics.ServiceMetrics`).  Records the
        run's algorithm/backend/outcome (``ok``, ``oom``,
        ``cancelled``, ``failed``) and its abort cause.  ``None`` — the
        default — keeps the hooks single ``is None`` checks, so direct
        runs are bit-for-bit unaffected (the tracer's contract).
    """
    requested = backend
    backend, why = resolve_backend(backend, algorithm, algo_opts)
    backend_info = {"requested": requested, "resolved": backend,
                    "reason": why,
                    "eligible": eligible_backends(algorithm)}
    if backend == "hybrid":
        res = _run_hybrid(algorithm, workload, n_per_rank=n_per_rank, p=p,
                          machine=machine, seed=seed, mem_factor=mem_factor,
                          algo_opts=algo_opts, faults=faults, trace=trace,
                          keep_outputs=keep_outputs)
        res.extras["backend"] = backend_info
        if metrics is not None:
            metrics.record_run(
                algorithm=algorithm, backend=backend,
                outcome="ok" if res.ok else
                ("oom" if res.oom else "failed"))
        return res
    try:
        spec = ALGORITHMS[algorithm]
    except KeyError:
        raise KeyError(f"unknown algorithm {algorithm!r}; "
                       f"options: {sorted(ALGORITHMS)}") from None
    opts = dict(algo_opts or {})
    stable = spec.stable
    fplan = (faults.compile(p, fault_seed)
             if faults is not None and not faults.empty else None)

    probe = workload.shard(max(1, min(n_per_rank, 64)), p, 0, seed)
    record_bytes = probe.record_bytes + 12  # + provenance columns
    capacity = (None if mem_factor is None
                else int(mem_factor * n_per_rank * record_bytes))

    prog = _SortProgram(algorithm, workload, n_per_rank, seed, opts)

    tracer = None
    if trace:
        from .obs import Tracer
        tracer = Tracer(p)
        tracer.meta.update({
            "algorithm": algorithm, "workload": workload.name,
            "p": p, "n_per_rank": n_per_rank, "seed": seed,
            "machine": machine.name,
            "faults": faults.as_dict() if fplan is not None else None,
        })

    res = run_spmd(prog, p, machine=machine, mem_capacity=capacity,
                   check=False, faults=fplan, tracer=tracer,
                   backend=backend, procs=procs, pool=pool, cancel=cancel,
                   metrics=metrics)

    if res.failure is not None:
        cause = res.failure.cause
        if metrics is not None:
            metrics.record_run(
                algorithm=algorithm, backend=backend,
                outcome=("cancelled" if isinstance(cause, RunCancelled)
                         else "oom" if isinstance(cause, MemoryError)
                         else "failed"),
                cause=cause)
        return RunResult(
            algorithm=algorithm, workload=workload.name, p=p,
            n_per_rank=n_per_rank, record_bytes=record_bytes,
            ok=False, oom=isinstance(cause, MemoryError), elapsed=0.0,
            failure=f"rank {res.failure.rank}: {cause!r}",
            extras={"backend": backend_info},
        )

    if metrics is not None:
        metrics.record_run(algorithm=algorithm, backend=backend,
                           outcome="ok")

    inputs = [r[0] for r in res.results]
    outcomes = [r[1] for r in res.results]
    outputs = [o.batch for o in outcomes]
    crashed_ranks = [r for r, o in enumerate(outcomes)
                     if o.info.get("crashed")]
    if validate:
        # degraded completion: a crashed rank's input left the world
        # with it — survivors must deliver *their* data sorted
        live_inputs = (inputs if not crashed_ranks
                       else [inp for r, inp in enumerate(inputs)
                             if r not in set(crashed_ranks)])
        check_sorted(live_inputs, outputs, stable=stable)

    # the decision trace lives on active ranks (a crashed rank's trace
    # stops at the crash and lacks the recovery record)
    traced = next((o for o in outcomes if o.active), outcomes[0])

    extras: dict[str, Any] = {
        "engine": dict(res.extras),
        "backend": backend_info,
        "mem_peaks": res.mem_peaks,
        "decisions": traced.info.get("decisions"),
        "p_active": sum(1 for o in outcomes if o.active),
        "bytes_sent": sum(c.get("bytes.sent", 0) for c in res.counters),
        "messages": sum(c.get("p2p.send", 0) for c in res.counters),
        "traces": res.traces,
    }
    if fplan is not None:
        agg: dict[str, float] = {}
        for c in res.counters:
            for k, v in c.items():
                if k.startswith(_FAULT_COUNTER_PREFIXES):
                    agg[k] = agg.get(k, 0.0) + v
        extras["faults"] = {k: agg[k] for k in sorted(agg)}
        extras["crashed_ranks"] = crashed_ranks
        extras["fault_plan"] = fplan.describe()
    if tracer is not None:
        from .obs import TraceReport
        extras["trace"] = TraceReport.from_run(
            tracer, clocks=res.clocks, engine_counters=res.counters)

    return RunResult(
        algorithm=algorithm, workload=workload.name, p=p,
        n_per_rank=n_per_rank, record_bytes=record_bytes,
        ok=True, oom=False, elapsed=res.elapsed,
        loads=[len(b) for b in outputs],
        phase_times=res.phase_breakdown(),
        outputs=outputs if keep_outputs else None,
        extras=extras,
    )


def _run_hybrid(algorithm: str, workload: Workload, *, n_per_rank: int,
                p: int, machine: MachineSpec, seed: int,
                mem_factor: float | None, algo_opts: dict[str, Any] | None,
                faults: Any, trace: bool,
                keep_outputs: bool) -> RunResult:
    """``backend="hybrid"``: analytic arithmetic + sampled validation.

    Giant-p points (4Ki..128Ki+) that the functional engine cannot host
    are computed from the count-space/cost models while a deterministic
    rank sample runs the functional per-rank pipeline; the agreement
    evidence lands in ``extras["hybrid"]``.  Faults, tracing, algorithm
    options and per-rank outputs are functional-engine features and are
    rejected rather than silently ignored.
    """
    from .simfast import hybrid_scaling_point

    unsupported = [name for name, on in (
        ("faults", faults is not None and not getattr(faults, "empty", False)),
        ("trace", trace), ("algo_opts", bool(algo_opts)),
        ("keep_outputs", keep_outputs)) if on]
    if unsupported:
        raise ValueError("hybrid backend computes analytically and cannot "
                         f"honour: {', '.join(unsupported)}")

    point = hybrid_scaling_point(
        algorithm, workload, n_per_rank=n_per_rank, p=p, machine=machine,
        seed=seed,
        mem_factor=math.inf if mem_factor is None else mem_factor)
    phases = point.phases
    return RunResult(
        algorithm=algorithm, workload=workload.name, p=p,
        n_per_rank=n_per_rank, record_bytes=point.record_bytes,
        ok=point.ok, oom=phases.oom, elapsed=phases.total,
        loads=[],  # p-sized load vectors live in count space, not here
        phase_times=phases.breakdown(),
        failure=None if point.ok else (
            "oom (modelled)" if phases.oom else "hybrid validation failed"),
        extras={
            "engine": {"backend": "hybrid", "workers": 0,
                       "sampled_ranks": point.validation["sampled_ranks"]},
            "hybrid": dict(point.validation),
            "max_load": point.max_load,
            "rdfa": point.rdfa,
        },
    )
