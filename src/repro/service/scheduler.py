"""Concurrent job scheduling with warm pools, drain, and timeouts.

:class:`SortService` is the long-lived object behind every front-end
(`sdssort serve`, `sdssort submit`, the in-process
:class:`~repro.service.client.ServiceClient`): it owns the
:class:`~repro.service.queue.JobQueue`, the
:class:`~repro.service.admission.AdmissionController`, the
:class:`~repro.service.pools.WarmPoolCache` and a fixed set of
:class:`Scheduler` worker threads that drain the queue concurrently.

Lifecycle (the drain state machine, see ``docs/service.md``)::

    ACCEPTING --drain()--> DRAINING --queue+running empty--> STOPPED

``drain`` stops admission immediately (submissions get a typed
``draining`` rejection), lets queued and running jobs finish, then
stops the workers; ``close`` additionally shuts the cached pools down.
Per-job timeouts cancel: expired queued jobs never start, and a
running job's deadline fires the job's cancel event, which the engine
turns into a ``RunCancelled`` abort (thread and flat backends) — either
way the job lands in the ``timeout`` state and releases its admission
budget.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Any

import logging

from ..runner import resolve_backend
from .admission import AdmissionController, AdmissionDecision
from .metrics import ServiceMetrics
from .pools import PoolLease, WarmPoolCache, make_cold_lease
from .queue import Job, JobQueue
from .slog import log_event, service_logger
from .spec import DEFAULT_PRIORITY, PRIORITIES, JobSpec, JobValidationError

#: Default scheduler concurrency (worker threads draining the queue).
DEFAULT_WORKERS = 2

_LOG = service_logger("service.scheduler")


class ServiceState(Enum):
    """The service lifecycle (transitions only move rightward)."""

    ACCEPTING = "accepting"
    DRAINING = "draining"
    STOPPED = "stopped"


class Scheduler(threading.Thread):
    """One worker draining the queue; runs jobs to completion."""

    def __init__(self, service: "SortService", index: int):
        super().__init__(name=f"sort-service-worker-{index}", daemon=True)
        self._service = service

    def run(self) -> None:
        svc = self._service
        while True:
            job = svc.queue.pop(timeout=0.05)
            if job is None:
                if svc._stop_workers.is_set():
                    return
                continue
            svc._execute(job)


class SortService:
    """The sort-as-a-service engine host.

    Parameters
    ----------
    workers:
        Concurrent jobs (scheduler threads).  Each runs its own leased
        pool, so concurrency never shares engine state across jobs.
    max_queue_depth, mem_budget_bytes:
        Admission bounds (see :class:`AdmissionController`); pass
        ``mem_budget_bytes=None`` to disable the memory gate.
    warm_pools:
        Reuse engine pools across same-shaped jobs (the cache).  Off,
        every job cold-starts a fresh pool — the benchmark baseline.
    max_pools:
        Idle-pool retention bound of the warm cache.
    telemetry:
        Keep a :class:`~repro.service.metrics.ServiceMetrics` (metric
        registry + cross-job cost rollup) updated through the job
        lifecycle and the engine boundary.  On by default — telemetry
        never touches result documents, so golden equivalence holds
        either way; ``False`` removes every hook (``self.metrics`` is
        ``None`` and the ``metrics`` op reports it as disabled).
    """

    def __init__(self, *, workers: int = DEFAULT_WORKERS,
                 max_queue_depth: int | None = None,
                 mem_budget_bytes: int | None = ...,  # type: ignore[assignment]
                 warm_pools: bool = True,
                 max_pools: int | None = None,
                 telemetry: bool = True):
        admission_kwargs: dict[str, Any] = {}
        if max_queue_depth is not None:
            admission_kwargs["max_queue_depth"] = max_queue_depth
        if mem_budget_bytes is not ...:
            admission_kwargs["mem_budget_bytes"] = mem_budget_bytes
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.metrics = ServiceMetrics() if telemetry else None
        self.queue = JobQueue()
        self.admission = AdmissionController(**admission_kwargs)
        self.pools = (WarmPoolCache(**({} if max_pools is None
                                       else {"max_pools": max_pools}),
                                    metrics=self.metrics)
                      if warm_pools else None)
        self.state = ServiceState.ACCEPTING
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()          # jobs dict + state + counters
        self._submit_lock = threading.Lock()   # serialises admission order
        self._seq = 0
        self._running = 0
        self._idle = threading.Condition(self._lock)
        self._stop_workers = threading.Event()
        self._counts = {"submitted": 0, "rejected": 0, "done": 0,
                        "failed": 0, "cancelled": 0, "timeout": 0}
        self._workers = [Scheduler(self, i) for i in range(workers)]
        for w in self._workers:
            w.start()

    # -- submission ---------------------------------------------------
    def submit(self, spec: JobSpec | dict[str, Any], *,
               priority: str = DEFAULT_PRIORITY,
               timeout_s: float | None = None) -> Job:
        """Admit one job (or reject it with a typed decision).

        Always returns a :class:`Job`: rejected submissions come back
        in the ``rejected`` state with ``job.admission`` (or
        ``job.error`` for validation failures) explaining why — the
        caller never has to catch anything to see backpressure.
        """
        if priority not in PRIORITIES:
            raise ValueError(f"unknown priority {priority!r}; "
                             f"options: {list(PRIORITIES)}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be None or > 0, "
                             f"got {timeout_s!r}")
        with self._submit_lock:
            with self._lock:
                self._seq += 1
                job = Job(id=f"j-{self._seq:06d}", spec=None,  # type: ignore
                          priority=priority, seq=self._seq,
                          timeout_s=timeout_s)
                self._jobs[job.id] = job
                self._counts["submitted"] += 1
                draining = self.state is not ServiceState.ACCEPTING
            if self.metrics is not None:
                self.metrics.job_submitted(priority)
            try:
                if isinstance(spec, dict):
                    spec = JobSpec.from_dict(spec)
                else:
                    spec.validate()
            except JobValidationError as exc:
                job.spec = spec if isinstance(spec, JobSpec) else JobSpec()
                self._reject(job, AdmissionDecision(
                    admitted=False, code="invalid", reason=str(exc),
                    estimated_bytes=0,
                    committed_bytes=self.admission.committed_bytes,
                    budget_bytes=self.admission.mem_budget_bytes,
                    queue_depth=self.queue.depth(),
                    max_queue_depth=self.admission.max_queue_depth,
                    headroom_bytes=(
                        None if self.admission.mem_budget_bytes is None
                        else self.admission.mem_budget_bytes
                        - self.admission.committed_bytes)))
                return job
            job.spec = spec
            decision = self.admission.admit(
                spec, queue_depth=self.queue.depth(), draining=draining)
            job.admission = decision
            if not decision.admitted:
                self._reject(job, decision)
                return job
            if self.metrics is not None:
                self.metrics.admission_decision(decision.code)
            self.queue.push(job)
            self._refresh_gauges()
            log_event(_LOG, "job_queued", job_id=job.id,
                      priority=priority, algorithm=spec.algorithm,
                      workload=spec.workload, backend=spec.backend,
                      p=spec.p, n_per_rank=spec.n_per_rank,
                      estimated_bytes=decision.estimated_bytes)
            return job

    def _reject(self, job: Job, decision: AdmissionDecision) -> None:
        job.admission = decision
        with self._lock:
            self._counts["rejected"] += 1
        job.finish("rejected", error=decision.reason)
        if self.metrics is not None:
            self.metrics.admission_decision(decision.code)
            self.metrics.job_finished(job, was_running=False)
        log_event(_LOG, "job_rejected", level=logging.WARNING,
                  job_id=job.id, priority=job.priority,
                  code=decision.code, reason=decision.reason,
                  estimated_bytes=decision.estimated_bytes,
                  headroom_bytes=decision.headroom_bytes)

    # -- execution (worker threads) -----------------------------------
    def _execute(self, job: Job) -> None:
        expired: tuple[str, str] | None = None
        with self._lock:
            if job.done_event.is_set():
                return  # cancel() finalised it between pop and here
            now = time.monotonic()
            if job.cancel_event.is_set():
                expired = ("cancelled", "cancelled while queued")
            elif job.deadline is not None and now >= job.deadline:
                expired = ("timeout", "expired in queue")
            else:
                job.status = "running"
                job.started_at = now
                self._running += 1
        if expired is not None:
            self._finalize(job, expired[0], error=expired[1])
            return
        if self.metrics is not None:
            self.metrics.job_started(job)
        self._refresh_gauges()
        log_event(_LOG, "job_started", job_id=job.id,
                  priority=job.priority, queue_ms=round(job.queue_ms, 3))

        resolved, _ = resolve_backend(job.spec.backend, job.spec.algorithm)
        lease: PoolLease
        if self.pools is not None:
            lease = self.pools.lease(resolved, job.spec.p, job.spec.procs)
        else:
            lease = make_cold_lease(resolved, job.spec.p, job.spec.procs)

        watchdog: threading.Timer | None = None
        if job.deadline is not None:
            def _fire() -> None:
                job.timed_out = True
                job.cancel_event.set()
            watchdog = threading.Timer(job.deadline - time.monotonic(), _fire)
            watchdog.daemon = True
            watchdog.start()

        try:
            result = job.spec.run(pool=lease.pool, cancel=job.cancel_event,
                                  metrics=self.metrics)
            job.result = result
            if self.metrics is not None and result.ok:
                report = result.extras.get("trace")
                if report is not None:
                    self.metrics.fold_job_trace(job.spec, report)
            if result.ok:
                status, error = "done", None
            elif job.timed_out:
                status, error = "timeout", result.failure
            elif job.cancel_event.is_set():
                status, error = "cancelled", result.failure
            else:
                status, error = "failed", result.failure
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            status, error = "failed", repr(exc)
        finally:
            if watchdog is not None:
                watchdog.cancel()
            lease.release()
        self._finalize(job, status, error=error, was_running=True)

    def _finalize(self, job: Job, status: str, *, error: str | None = None,
                  was_running: bool = False) -> None:
        """Move a job to a terminal state exactly once.

        Idempotent: a worker and a concurrent ``cancel`` may both reach
        here; only the first transition counts, finishes the job and
        releases its admission budget.
        """
        with self._lock:
            if was_running:
                self._running -= 1
                self._idle.notify_all()
            if job.done_event.is_set():
                self._refresh_gauges_locked()
                return
            self._counts[status] = self._counts.get(status, 0) + 1
            job.finish(status, error=error)
            self._idle.notify_all()
        if job.admission is not None:
            self.admission.release(job.admission)
        if self.metrics is not None:
            self.metrics.job_finished(job, was_running=was_running)
        self._refresh_gauges()
        log_event(_LOG, "job_finished",
                  level=(logging.INFO if status == "done"
                         else logging.WARNING),
                  job_id=job.id, status=status, priority=job.priority,
                  error=error, queue_ms=round(job.queue_ms, 3),
                  run_ms=round(job.run_ms, 3))

    def _refresh_gauges(self) -> None:
        """Re-derive the point-in-time gauges from the ground truth."""
        if self.metrics is None:
            return
        with self._lock:
            running = self._running
        self.metrics.update_queue_gauges(
            depth_by_class=self.queue.depth_by_class(), running=running,
            committed_bytes=self.admission.committed_bytes)

    def _refresh_gauges_locked(self) -> None:
        """Gauge refresh for call sites already holding ``_lock``."""
        if self.metrics is None:
            return
        self.metrics.update_queue_gauges(
            depth_by_class=self.queue.depth_by_class(),
            running=self._running,
            committed_bytes=self.admission.committed_bytes)

    # -- queries ------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job is terminal (or ``timeout`` elapses)."""
        job = self.get(job_id)
        job.done_event.wait(timeout)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job now, or abort a running one in flight."""
        job = self.get(job_id)
        with self._lock:
            if job.terminal:
                return job
            queued = job.status == "queued"
            job.cancel_event.set()
        if queued:
            # reap immediately rather than waiting for a worker's pop
            self._finalize(job, "cancelled", error="cancelled while queued")
        return job

    def stats(self) -> dict[str, Any]:
        with self._lock:
            counts = dict(self._counts)
            running = self._running
            state = self.state.value
        return {
            "state": state,
            "queued": self.queue.depth(),
            "running": running,
            "counts": counts,
            "admission": self.admission.stats(),
            "pools": self.pools.stats() if self.pools is not None
            else {"warm_pools": False},
            "telemetry": self.metrics is not None,
            # p50/p99 wall latency per priority class, from the
            # telemetry histograms (None with telemetry off)
            "latency": (self.metrics.latency_summary()
                        if self.metrics is not None else None),
        }

    # -- lifecycle ----------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, wait for in-flight work, stop the workers.

        Returns ``True`` when the service fully drained (always, unless
        ``timeout`` expired first).  Idempotent.
        """
        with self._lock:
            if self.state is ServiceState.ACCEPTING:
                self.state = ServiceState.DRAINING
                log_event(_LOG, "draining",
                          queued=self.queue.depth(), running=self._running)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self.queue.depth() or self._running:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(0.05 if remaining is None
                                else min(0.05, remaining))
        self._stop_workers.set()
        self.queue.wake_all()
        for w in self._workers:
            w.join()
        stopped = False
        with self._lock:
            stopped = self.state is not ServiceState.STOPPED
            self.state = ServiceState.STOPPED
        self._refresh_gauges()
        if stopped:
            log_event(_LOG, "stopped", counts=dict(self._counts))
        return True

    def close(self) -> None:
        """Drain, then release every cached pool.  Idempotent."""
        self.drain()
        if self.pools is not None:
            self.pools.shutdown()

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
