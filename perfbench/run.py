"""SDS-Sort benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The batch workloads (``wide``,
``fanout``, ``deep``; see ``batch.py``) sort in this process on the
columnar flat engine; ``service`` (see ``service.py``) drives the
``sdssort serve`` daemon in a subprocess.  With ``--trace 0`` the last
line of output carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  The line before it is a
report: the virtual-time digest, the deterministic work counters, the
host calibration and the figures behind each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from stats import HostSpeed, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("wide", "fanout", "deep", "service")

#: Every end-to-end metric and its unit (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric and its unit (``--trace 1``).  A workload
#: that bypasses a layer reports 0 for it.
PER_LAYER = {
    "core.local_sort_s": "s",
    "core.node_merge_s": "s",
    "core.pivot_select_s": "s",
    "core.partition_s": "s",
    "core.exchange_s": "s",
    "core.exchange_compute_s": "s",
    "core.decisions_s": "s",
    "core.decisions_calls": "count",
    "kernels.merge_s": "s",
    "kernels.merge_calls": "count",
    "kernels.sort_s": "s",
    "kernels.sort_calls": "count",
    "mpi.collective_s": "s",
    "mpi.collective_calls": "count",
    "mpi.world_setup_s": "s",
    "workloads.shard_s": "s",
    "workloads.shard_calls": "count",
    "metrics.validate_s": "s",
    "runner.self_s": "s",
    "service.admission_s": "s",
    "service.lease_s": "s",
    "service.doc_s": "s",
    "service.telemetry_s": "s",
    "service.queue_wait_ms.p50": "ms",
    "service.run_ms.p50": "ms",
    "service.run_ms.p90": "ms",
    "service.pool_hit_ratio": "ratio",
    "bench.gen_lag_ms.p90": "ms",
    "bench.trace_overhead": "ratio",
}

#: Interpreter start-ups timed for the import part of batch set-up.
IMPORT_SAMPLES = 3


def import_seconds() -> float:
    """Median wall of a fresh interpreter importing the sort stack."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    walls = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import repro.runner, repro.workloads"],
                       env=env, check=True, timeout=120)
        walls.append(time.perf_counter() - t0)
    return median(walls)


def complete(result: dict, trace: bool) -> dict:
    """Give ``result`` exactly the metrics of its kind, in order.

    A per-layer metric of a layer the workload bypasses reads 0; every
    end-to-end metric must have been measured.
    """
    names = PER_LAYER if trace else END_TO_END
    got = result["metrics"]
    unknown = got.keys() - names.keys()
    missing = names.keys() - got.keys()
    if unknown or (missing and not trace):
        raise RuntimeError(f"metric set mismatch: unknown {sorted(unknown)}"
                           f", missing {sorted(missing)}")
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit})
        for name, unit in names.items()}
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no sort package at {SRC}/repro; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)

    # the calibration loop: a fixed numpy sort timed at the start
    host = HostSpeed()
    host.sample(repeat=5)
    calib_s = median(host.samples)
    if args.workload == "service":
        from service import run_service
        result, report = run_service(root=ROOT, workdir=workdir,
                                     seed=args.seed, seconds=args.seconds,
                                     trace=bool(args.trace))
    else:
        from batch import run_batch
        result, report = run_batch(args.workload, seed=args.seed,
                                   seconds=args.seconds,
                                   trace=bool(args.trace),
                                   import_s=import_seconds(), host=host,
                                   spans_path=os.path.join(
                                       workdir, f"spans-{args.workload}-"
                                       f"{args.seed}.json"))
    complete(result, bool(args.trace))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host.calib_s": calib_s, **report}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
