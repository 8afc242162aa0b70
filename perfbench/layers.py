"""Where the benchmark's spans go: one row per traced call site.

Each row names a span (the layer metric it feeds) and the attribute it
wraps.  Kernels and exchange computes are imported by name into other
modules, so they are wrapped at every importing module's attribute as
well as their home module's.  Phase spans wrap
``PHASE_REGISTRY[name].run``, the method every algorithm's pipeline
calls.
"""

from __future__ import annotations

import importlib
from typing import Any

from spans import SpanRecorder

#: Pipeline phases traced through ``PHASE_REGISTRY[name].run``.
PHASES = ("local_sort", "node_merge", "pivot_select", "partition",
          "exchange")

#: ``(span name, module, attribute path)`` for the batch (flat) engine.
BATCH_SITES: tuple[tuple[str, str, str], ...] = (
    ("runner", "repro.runner", "run_sort"),
    ("metrics.validate", "repro.runner", "check_sorted"),
    ("workloads.shard", "repro.workloads.base", "Workload.shard"),
    ("mpi.collective", "repro.mpi.flatworld", "ColumnarWorld.collective"),
    ("mpi.world_setup", "repro.mpi.flatworld", "make_world_comms"),
    ("core.decisions", "repro.core.pipeline", "RunContext.decisions"),
    ("core.exchange_compute", "repro.core.pipeline", "sync_exchange_compute"),
    ("core.exchange_compute", "repro.core.pipeline",
     "overlapped_exchange_compute"),
    ("core.exchange_compute", "repro.core.exchange", "sync_exchange_compute"),
    ("core.exchange_compute", "repro.core.exchange",
     "overlapped_exchange_compute"),
    ("kernels.merge", "repro.kernels.merge", "kway_merge_perm"),
    ("kernels.merge", "repro.kernels.merge", "merge_two_perm"),
    ("kernels.merge", "repro.kernels.runs", "merge_two_perm"),
    ("kernels.merge", "repro.kernels.patience", "kway_merge_perm"),
    ("kernels.merge", "repro.records.ops", "kway_merge_perm"),
    ("kernels.merge", "repro.records.ops", "merge_two_perm"),
    ("kernels.merge", "repro.baselines.bitonic_full", "merge_two_perm"),
    ("kernels.sort", "repro.core.pipeline", "batched_argsort_rows"),
    ("kernels.sort", "repro.core.exchange", "sequential_argsort"),
    ("kernels.sort", "repro.records.ops", "sequential_argsort"),
)

#: ``ServiceMetrics`` hooks the scheduler and engine call (telemetry).
TELEMETRY_HOOKS = ("job_submitted", "admission_decision", "job_started",
                   "job_finished", "update_queue_gauges",
                   "record_pool_event", "record_run", "record_world",
                   "fold_job_trace")

#: Sites wrapped inside the service daemon (connection and worker
#: threads).  Engine layers inside the daemon's rank threads are not
#: traced.
SERVICE_SITES: tuple[tuple[str, str, str], ...] = (
    ("service.admission", "repro.service.admission",
     "AdmissionController.admit"),
    ("service.lease", "repro.service.pools", "WarmPoolCache.lease"),
    ("service.doc", "repro.service.daemon", "job_envelope"),
) + tuple(("service.telemetry", "repro.service.metrics",
           f"ServiceMetrics.{hook}") for hook in TELEMETRY_HOOKS)


def _owner(module: str, path: str) -> tuple[Any, str] | None:
    obj: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj, attr


def install(recorder: SpanRecorder, sites: tuple[tuple[str, str, str], ...],
            *, phases: bool = False) -> list[str]:
    """Wrap every site (and the registered phases); return missing sites."""
    missing = []
    for name, module, path in sites:
        found = _owner(module, path)
        if found is None or not recorder.wrap(*found, name):
            missing.append(f"{module}.{path}")
    if phases:
        from repro.core.pipeline import PHASE_REGISTRY
        for phase in PHASES:
            cls = PHASE_REGISTRY.get(phase)
            if cls is None or not recorder.wrap(cls, "run", f"core.{phase}"):
                missing.append(f"PHASE_REGISTRY[{phase!r}].run")
    return missing
