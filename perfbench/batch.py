"""Batch workloads: flat-engine sorts back to back in this process.

A workload is a list of sort configurations.  A *round* is one sort of
each configuration, and round ``i`` sorts the data of seed ``seed+i``.
Round 0 is the warm-up (part of set-up), later rounds are timed until
``--seconds`` have passed.  Every sort validates its output
(sortedness, key multiset, and stability for stable algorithms).

Why each workload exists, which layers it stresses and which it
bypasses, is recorded beside its configurations in :data:`WORKLOADS`
and in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import resource
import time
from dataclasses import dataclass, field
from typing import Any

from repro import runner
from repro.workloads import by_name

from layers import BATCH_SITES, install
from spans import SpanRecorder, layer_totals
from stats import HostSpeed, digest, median, summary


@dataclass(frozen=True)
class SortConfig:
    """One ``run_sort(..., backend="flat")`` call of a round."""

    label: str
    algorithm: str
    workload: str
    p: int
    n_per_rank: int
    workload_opts: dict[str, Any] = field(default_factory=dict)
    algo_opts: dict[str, Any] = field(default_factory=dict)
    mem_factor: float | None = runner.MEM_FACTOR

    @property
    def records(self) -> int:
        return self.p * self.n_per_rank


WORKLOADS: dict[str, list[SortConfig]] = {
    # Per-rank Python-object layer at large p: node merge fires (tau_m)
    # and the leaders absorb their node's data, which the default
    # memory limit refuses by design, hence no limit.  Exchange and
    # pivot selection are cheap here.
    "wide": [
        SortConfig("sds-uniform-p16384", "sds", "uniform", 16384, 64,
                   mem_factor=None),
    ],
    # Full-p all-to-all: bitonic pivot selection and the collectives
    # over every rank, synchronous exchange with dense p x p count
    # matrices.  tau_o and tau_s are pinned to p so SDS takes the sync
    # exchange and the sort ordering at p=2048; PSRS takes the gather
    # pivots and the classic partition.  Node merge is off.
    "fanout": [
        SortConfig("sds-uniform-p2048-sync", "sds", "uniform", 2048, 64,
                   algo_opts={"node_merge_enabled": False,
                              "tau_o": 2048, "tau_s": 2048}),
        SortConfig("psrs-uniform-p2048", "psrs", "uniform", 2048, 64),
    ],
    # Kernel and data volume on skewed, duplicate-heavy keys: shard
    # generation, local sort and validation dominate.  The same layers
    # run unstable (fast partition, overlapped exchange) and stable
    # (stable partition, sync exchange).
    "deep": [
        SortConfig("sds-zipf0.7-p256", "sds", "zipf", 256, 10000,
                   workload_opts={"alpha": 0.7},
                   algo_opts={"node_merge_enabled": False}),
        SortConfig("sds-stable-ptf-p256", "sds-stable", "ptf", 256, 10000,
                   algo_opts={"node_merge_enabled": False}),
    ],
}


@dataclass
class SortRecord:
    config: SortConfig
    seed: int
    ok: bool
    error: str | None = None
    virtual: dict[str, Any] | None = None
    counters: dict[str, Any] | None = None


def run_one(cfg: SortConfig, seed: int) -> SortRecord:
    """Sort once, validated; never raises for a failed sort."""
    try:
        # through the module attribute, so a traced run sees run_sort
        res = runner.run_sort(
            cfg.algorithm, by_name(cfg.workload, **cfg.workload_opts),
            n_per_rank=cfg.n_per_rank, p=cfg.p, seed=seed,
            mem_factor=cfg.mem_factor,
            algo_opts=dict(cfg.algo_opts), backend="flat", validate=True)
    except Exception as exc:  # noqa: BLE001 - a failed sort is a result
        return SortRecord(cfg, seed, False,
                          error=f"{type(exc).__name__}: {exc}")
    if not res.ok:
        return SortRecord(cfg, seed, False, error=res.failure)
    decisions = [(d["decision"], d["choice"])
                 for d in res.extras.get("decisions") or []]
    virtual = {
        "config": cfg.label, "seed": seed, "makespan": res.elapsed,
        "loads": res.loads, "phases": sorted(res.phase_times.items()),
        "decisions": decisions,
    }
    counters = {
        "mpi.bytes_sent": int(res.extras["bytes_sent"]),
        "mpi.messages": int(res.extras["messages"]),
        "sim.rdfa": res.rdfa,
        "sim.max_mem_peak_bytes": int(max(res.extras["mem_peaks"])),
        "sim.makespan_s": res.elapsed,
        "decision_path": "/".join(f"{k}={v}" for k, v in decisions),
    }
    return SortRecord(cfg, seed, True, virtual=virtual,
                      counters=counters)


def run_round(configs: list[SortConfig], seed: int,
              recorder: SpanRecorder | None = None
              ) -> tuple[float, list[SortRecord]]:
    """One sort of each configuration; traced when ``recorder`` is given.

    A traced sort runs inside a ``bench.sort`` root span whose trace id
    names the sort, so the root's self time is the part of the sort's
    wall that no layer span covers.
    """
    t0 = time.perf_counter()
    records = []
    for cfg in configs:
        if recorder is None:
            records.append(run_one(cfg, seed))
            continue
        recorder.trace = f"{cfg.label}/seed{seed}"
        with recorder.span("bench.sort"):
            records.append(run_one(cfg, seed))
    return time.perf_counter() - t0, records


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_batch(name: str, *, seed: int, seconds: float, trace: bool,
              import_s: float, host: HostSpeed, spans_path: str
              ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one batch workload; returns ``(result line, report)``.

    ``host`` is probed after every round; the end-to-end timings are
    scaled by its :meth:`~stats.HostSpeed.scale` and the raw figures
    go to the report.  Untraced, every timed round runs plain code.
    Traced, each timed round runs twice on the same data, untraced then
    traced, so ``bench.trace_overhead`` compares like with like; the
    per-layer numbers are means per traced round, and the spans are
    written to ``spans_path`` at the end.
    """
    configs = WORKLOADS[name]
    records: list[SortRecord] = []

    warm_wall, warm = run_round(configs, seed)
    host.sample()
    records += warm
    setup_s = import_s + warm_wall

    walls: list[float] = []
    traced_walls: list[float] = []
    recorder = SpanRecorder()
    missing: list[str] = []
    first_timed: list[SortRecord] = []
    start = time.perf_counter()
    i = 1
    while not walls or time.perf_counter() - start < seconds:
        wall, recs = run_round(configs, seed + i)
        host.sample()
        walls.append(wall)
        records += recs
        if i == 1:
            first_timed = recs
        if trace:
            missing = install(recorder, BATCH_SITES, phases=True)
            try:
                twall, trecs = run_round(configs, seed + i, recorder)
            finally:
                recorder.uninstall()
            traced_walls.append(twall)
            records += trecs
        i += 1

    failed = [r for r in records if not r.ok]
    # the digest and work counters cover rounds 0 and 1, which every
    # run executes, so two runs of one seed compare bit for bit
    fixed = warm + first_timed
    counters: dict[str, dict[str, Any]] = {}
    for r in fixed:
        if r.counters is None:
            continue
        c = counters.setdefault(r.config.label, {})
        for k, v in r.counters.items():
            c.setdefault(k, []).append(v)
    virtual_digest = digest([r.virtual for r in fixed])

    timed_records = sum(cfg.records for cfg in configs) * len(walls)
    raw = {
        "setup_s": setup_s,
        "records_per_s": timed_records / sum(walls),
        "round_wall_s": summary(walls),
    }
    scale = host.scale()
    report: dict[str, Any] = {
        "virtual_digest": virtual_digest,
        "counters": counters,
        "rounds_timed": len(walls),
        "raw": raw,
        "host.scale": scale,
        "host.probes": len(host.samples),
        "sorts_attempted": len(records),
        "error_rate": len(failed) / len(records),
        "errors": [f"{r.config.label} seed {r.seed}: {r.error}"
                   for r in failed],
        "configs": [dataclasses.asdict(cfg) for cfg in configs],
    }
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (setup_s * scale, "s"),
        "records_per_s": (raw["records_per_s"] / scale, "1/s"),
        "latency_ms.p50": (raw["round_wall_s"]["p50"] * 1e3 * scale, "ms"),
        "latency_ms.p90": (raw["round_wall_s"]["p90"] * 1e3 * scale, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if trace:
        totals = layer_totals(recorder.spans)
        covered = sum(t["self_s"] for t in totals.values())
        metrics = layer_metrics(totals, len(traced_walls))
        metrics["bench.trace_overhead"] = (
            median(traced_walls) / median(walls), "ratio")
        # shares of the traced sorts' wall; bench.sort holds the part no
        # layer span covers, so the shares add up to one
        report["layer_shares"] = {n: t["self_s"] / covered
                                  for n, t in sorted(totals.items())}
        report["traced_round_wall_s"] = summary(traced_walls)
        report["reconcile"] = {
            "traced_rounds_wall_s": sum(traced_walls),
            "layer_self_plus_remainder_s": covered}
        report["sites_missing"] = missing
        recorder.dump(spans_path, sites_missing=missing)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, report


#: Batch layer metrics: ``metric -> (span name, "self_s" | "calls")``.
BATCH_LAYER_METRICS: dict[str, tuple[str, str]] = {
    **{f"core.{ph}_s": (f"core.{ph}", "self_s")
       for ph in ("local_sort", "node_merge", "pivot_select", "partition",
                  "exchange")},
    "core.exchange_compute_s": ("core.exchange_compute", "self_s"),
    "core.decisions_s": ("core.decisions", "self_s"),
    "core.decisions_calls": ("core.decisions", "calls"),
    "kernels.merge_s": ("kernels.merge", "self_s"),
    "kernels.merge_calls": ("kernels.merge", "calls"),
    "kernels.sort_s": ("kernels.sort", "self_s"),
    "kernels.sort_calls": ("kernels.sort", "calls"),
    "mpi.collective_s": ("mpi.collective", "self_s"),
    "mpi.collective_calls": ("mpi.collective", "calls"),
    "mpi.world_setup_s": ("mpi.world_setup", "self_s"),
    "workloads.shard_s": ("workloads.shard", "self_s"),
    "workloads.shard_calls": ("workloads.shard", "calls"),
    "metrics.validate_s": ("metrics.validate", "self_s"),
    "runner.self_s": ("runner", "self_s"),
}


def layer_metrics(totals: dict[str, dict[str, float]], rounds: int
                  ) -> dict[str, tuple[float, str]]:
    """Per-traced-round layer metrics from :func:`spans.layer_totals`."""
    return {metric: (totals.get(name, {}).get(kind, 0) / rounds,
                     "count" if kind == "calls" else "s")
            for metric, (name, kind) in BATCH_LAYER_METRICS.items()}
