"""Service telemetry: the metric catalog and the engine-boundary hooks.

:class:`ServiceMetrics` owns one :class:`~repro.obs.telemetry.
MetricsRegistry` and one :class:`~repro.obs.rollup.CostRollup` per
:class:`~repro.service.scheduler.SortService` and registers the whole
catalog up front (see ``docs/observability.md`` for the full table):

* job lifecycle — ``sdssort_jobs_submitted_total{priority}``,
  ``sdssort_jobs_total{state,priority}`` (terminal outcomes);
* admission — ``sdssort_admission_decisions_total{code}``, the
  ``sdssort_admission_committed_bytes`` gauge;
* queue — ``sdssort_queue_depth{priority}``, ``sdssort_jobs_running``,
  wall-latency histograms ``sdssort_queue_wait_ms{priority}`` /
  ``sdssort_run_ms{priority}`` (counts deterministic, sums wall clock);
* warm pools — ``sdssort_pool_events_total{event}``;
* engine boundary — ``sdssort_runs_total{algorithm,backend,outcome}``,
  ``sdssort_run_aborts_total{cause}``,
  ``sdssort_engine_worlds_total{backend}``,
  ``sdssort_engine_cancels_total``.

Fixed label domains (priorities, terminal states, admission codes,
pool events) are pre-materialised at zero so a snapshot's row set
never depends on which events happened to fire first — part of the
determinism contract.  The engine-facing hooks (:meth:`record_run`,
:meth:`record_world`) are duck-typed: ``run_sort``/``run_spmd`` accept
any object with those methods via their ``metrics=`` parameter and do
nothing when it is ``None`` (the tracer's zero-overhead idiom).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..obs.rollup import CostRollup
from ..obs.telemetry import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from .admission import ADMISSION_CODES
from .queue import TERMINAL_STATES
from .spec import PRIORITIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.report import TraceReport
    from .queue import Job
    from .spec import JobSpec

__all__ = ["POOL_EVENTS", "RUN_OUTCOMES", "ServiceMetrics"]

#: Warm-pool cache events (``sdssort_pool_events_total{event}``).
POOL_EVENTS = ("hit", "miss", "evict")

#: Engine-run outcomes (``sdssort_runs_total{outcome}``).
RUN_OUTCOMES = ("ok", "oom", "cancelled", "failed")


class ServiceMetrics:
    """One service's registry + rollup, with typed recording methods."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.rollup = CostRollup()
        r = self.registry

        self.jobs_submitted = r.counter(
            "sdssort_jobs_submitted_total",
            "Jobs submitted, by priority class", labels=("priority",))
        self.jobs_total = r.counter(
            "sdssort_jobs_total",
            "Jobs reaching a terminal state, by state and priority",
            labels=("state", "priority"))
        self.admission_decisions = r.counter(
            "sdssort_admission_decisions_total",
            "Admission decisions, by typed code", labels=("code",))
        self.pool_events = r.counter(
            "sdssort_pool_events_total",
            "Warm-pool cache events (hit/miss/evict)", labels=("event",))
        self.runs = r.counter(
            "sdssort_runs_total",
            "Engine runs, by algorithm, resolved backend and outcome",
            labels=("algorithm", "backend", "outcome"))
        self.run_aborts = r.counter(
            "sdssort_run_aborts_total",
            "Engine-run aborts, by cause exception type",
            labels=("cause",))
        self.engine_worlds = r.counter(
            "sdssort_engine_worlds_total",
            "SPMD worlds launched, by executing backend",
            labels=("backend",))
        self.engine_cancels = r.counter(
            "sdssort_engine_cancels_total",
            "Cancellations that aborted an engine world")

        self.queue_depth = r.gauge(
            "sdssort_queue_depth",
            "Jobs waiting in the queue, by priority class",
            labels=("priority",))
        self.jobs_running = r.gauge(
            "sdssort_jobs_running", "Jobs currently executing")
        self.committed_bytes = r.gauge(
            "sdssort_admission_committed_bytes",
            "Modelled engine-peak bytes committed by queued+running jobs")

        self.queue_wait_ms = r.histogram(
            "sdssort_queue_wait_ms",
            "Wall milliseconds jobs waited before starting "
            "(counts deterministic, sum wall clock)",
            buckets=DEFAULT_LATENCY_BUCKETS_MS, labels=("priority",))
        self.run_wall_ms = r.histogram(
            "sdssort_run_ms",
            "Wall milliseconds jobs spent running "
            "(counts deterministic, sum wall clock)",
            buckets=DEFAULT_LATENCY_BUCKETS_MS, labels=("priority",))

        # pre-materialise every fixed label domain at zero: the row
        # set of a snapshot must not depend on event arrival order
        for priority in PRIORITIES:
            self.jobs_submitted.labels(priority=priority)
            self.queue_depth.labels(priority=priority)
            self.queue_wait_ms.labels(priority=priority)
            self.run_wall_ms.labels(priority=priority)
            for state in TERMINAL_STATES:
                self.jobs_total.labels(state=state, priority=priority)
        for code in ADMISSION_CODES:
            self.admission_decisions.labels(code=code)
        for event in POOL_EVENTS:
            self.pool_events.labels(event=event)
        self.engine_cancels.labels()
        self.jobs_running.set(0)
        self.committed_bytes.set(0)

    # -- scheduler-side hooks --------------------------------------
    def job_submitted(self, priority: str) -> None:
        self.jobs_submitted.labels(priority=priority).inc()

    def admission_decision(self, code: str) -> None:
        self.admission_decisions.labels(code=code).inc()

    def job_started(self, job: "Job") -> None:
        self.queue_wait_ms.labels(priority=job.priority).observe(
            job.queue_ms)

    def job_finished(self, job: "Job", *, was_running: bool) -> None:
        self.jobs_total.labels(state=job.status,
                               priority=job.priority).inc()
        if was_running:
            self.run_wall_ms.labels(priority=job.priority).observe(
                job.run_ms)

    def update_queue_gauges(self, *, depth_by_class: dict[str, int],
                            running: int, committed_bytes: int) -> None:
        for priority in PRIORITIES:
            self.queue_depth.labels(priority=priority).set(
                depth_by_class.get(priority, 0))
        self.jobs_running.set(running)
        self.committed_bytes.set(committed_bytes)

    def record_pool_event(self, event: str) -> None:
        self.pool_events.labels(event=event).inc()

    # -- engine-boundary hooks (duck-typed `metrics=` objects) -----
    def record_run(self, *, algorithm: str, backend: str, outcome: str,
                   cause: BaseException | None = None) -> None:
        """One ``run_sort`` finished: count it and its abort cause."""
        self.runs.labels(algorithm=algorithm, backend=backend,
                         outcome=outcome).inc()
        if cause is not None:
            self.run_aborts.labels(cause=type(cause).__name__).inc()

    def record_world(self, *, backend: str, p: int,
                     cancelled: bool = False) -> None:
        """One SPMD world launched inside the engine."""
        self.engine_worlds.labels(backend=backend).inc()
        if cancelled:
            self.engine_cancels.inc()

    # -- traced jobs ------------------------------------------------
    def fold_job_trace(self, spec: "JobSpec",
                       report: "TraceReport") -> None:
        self.rollup.fold(
            algorithm=spec.algorithm, workload=spec.workload,
            backend=spec.backend, p=spec.p,
            n_per_rank=spec.n_per_rank, seed=spec.seed,
            fault_seed=spec.fault_seed, report=report)

    # -- views -------------------------------------------------------
    def latency_summary(self) -> dict[str, Any]:
        """p50/p99 queue/run wall latency per priority class.

        Estimated from the histogram buckets (Prometheus
        ``histogram_quantile`` interpolation) — wall-clock values, so
        informational, never asserted.
        """
        out: dict[str, Any] = {}
        for priority in PRIORITIES:
            qw = self.queue_wait_ms.labels(priority=priority)
            rw = self.run_wall_ms.labels(priority=priority)
            out[priority] = {
                "queue_ms": {"count": qw.count,
                             "p50": round(qw.quantile(0.50), 3),
                             "p99": round(qw.quantile(0.99), 3)},
                "run_ms": {"count": rw.count,
                           "p50": round(rw.quantile(0.50), 3),
                           "p99": round(rw.quantile(0.99), 3)},
            }
        return out
