"""Command-line front-end: run sorts, scaling studies, and tuning.

Installed as ``sdssort`` (or run as ``python -m repro``)::

    sdssort sort --algorithm sds --workload zipf --alpha 0.9 --p 32
    sdssort sort --fault-spec drop --fault-seed 3 --explain
    sdssort sort --trace run.json --json
    sdssort trace run.json              # summarize an exported trace
    sdssort trace before.json after.json  # diff two traces
    sdssort chaos --p 64 --seeds 0..4
    sdssort scaling --workload uniform --algorithms sds,hyksort
    sdssort rdfa --p 512,8192,131072
    sdssort tune --machine edison
    sdssort info
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .core.tuning import derive_tau_m, derive_tau_o, derive_tau_s
from .machine import PRESETS, get_machine
from .metrics import rdfa
from .runner import ALGORITHMS, run_sort
from .simfast import UniverseModel, countspace_loads, fmt_p, weak_scaling_series
from .workloads import by_name


def _workload(args: argparse.Namespace):
    kwargs = {}
    if args.workload == "zipf":
        kwargs["alpha"] = args.alpha
    return by_name(args.workload, **kwargs)


def _universe_model(name: str, alpha: float) -> UniverseModel:
    if name == "uniform":
        return UniverseModel.uniform()
    if name == "zipf":
        return UniverseModel.zipf(alpha)
    if name == "ptf":
        return UniverseModel.point_mass(0.2802, name="ptf")
    if name == "cosmology":
        return UniverseModel.power_law_clusters(0.0073)
    raise SystemExit(f"no count-space model for workload {name!r}")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _positive_int(text: str) -> int:
    """argparse type: integer >= 1 (clear error, no engine traceback)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type: integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _seed_list(text: str) -> list[int]:
    """Seeds as ``0..4`` (inclusive range) or ``0,3,7`` (explicit list)."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            start, stop = int(lo), int(hi)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a seed range (expected e.g. 0..4)")
        if stop < start:
            raise argparse.ArgumentTypeError(
                f"empty seed range {text!r}")
        return list(range(start, stop + 1))
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a seed list (expected e.g. 0,1,2 or 0..4)")


def _fault_spec(text: str):
    """A chaos preset name or an inline JSON FaultSpec."""
    import json

    from .faults.chaos import PRESETS as FAULT_PRESETS
    from .faults.spec import FaultSpec

    if text in FAULT_PRESETS:
        return FAULT_PRESETS[text]
    if text.lstrip().startswith("{"):
        try:
            return FaultSpec.from_dict(json.loads(text))
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(f"bad fault spec: {exc}")
    raise argparse.ArgumentTypeError(
        f"unknown fault preset {text!r} (options: "
        f"{', '.join(sorted(FAULT_PRESETS))}) and not inline JSON")


def _sort_json_doc(args: argparse.Namespace, machine, r) -> dict:
    """The ``sort --json`` document (schema ``sdssort.sort/v4``).

    One builder (`repro.service.jsondoc.sort_doc`) serves both this
    direct path and service job results; direct runs carry zero
    queue/run latency in the v4 ``timing`` block.
    """
    from .service.jsondoc import sort_doc

    return sort_doc(r, machine=machine.name, seed=args.seed,
                    fault_seed=args.fault_seed)


def cmd_sort(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    opts = {}
    if args.algorithm.startswith("sds"):
        if args.no_node_merge:
            opts["node_merge_enabled"] = False
        if args.sync:
            opts["tau_o"] = 0
    # hybrid carries no rank timelines, so it cannot honour tracing;
    # --json still works there (the doc reports the validation evidence).
    want_trace = ((args.trace is not None or args.json)
                  and args.backend != "hybrid")
    r = run_sort(args.algorithm, _workload(args), n_per_rank=args.n,
                 p=args.p, machine=machine, seed=args.seed,
                 mem_factor=None if args.no_mem_limit else args.mem_factor,
                 algo_opts=opts, faults=args.fault_spec,
                 fault_seed=args.fault_seed, trace=want_trace,
                 backend=args.backend, procs=args.procs)
    report = r.extras.get("trace")
    if args.trace is not None and report is not None:
        from .obs import write_chrome_trace
        write_chrome_trace(report, args.trace)
    if args.json:
        import json
        print(json.dumps(_sort_json_doc(args, machine, r),
                         indent=2, sort_keys=True))
        return 0 if r.ok else 1
    print(f"algorithm : {r.algorithm}")
    print(f"workload  : {r.workload}  (N = {args.n * args.p:,} records)")
    print(f"machine   : {machine.name}, p = {args.p}")
    if not r.ok:
        print(f"status    : FAILED ({'OOM' if r.oom else 'error'})")
        print(f"            {r.failure}")
        return 1
    engine = r.extras.get("engine", {})
    resolved = r.extras.get("backend") or {}
    if engine.get("backend") == "flat":
        why = (f" — {resolved['reason']}"
               if resolved.get("requested") == "auto" else "")
        print(f"backend   : flat (batched columnar phases, 0 threads){why}")
    elif engine.get("backend") == "proc":
        print(f"backend   : proc ({engine['workers']} workers, "
              f"shards {engine['shards']})")
    elif engine.get("backend") == "hybrid":
        hyb = r.extras.get("hybrid", {})
        print(f"backend   : hybrid (analytic at p={args.p}, functional "
              f"sample ranks {hyb.get('sampled_ranks')})")
        print(f"validated : max-load rel err "
              f"{hyb.get('max_load_rel_err', 0.0):.3f}, RDFA rel err "
              f"{hyb.get('rdfa_rel_err', 0.0):.3f} "
              f"(tolerance {hyb.get('tolerance', 0.0):.2f})")
    print("status    : ok (validated)")
    print(f"sim time  : {r.elapsed:.6f} s  "
          f"({r.throughput_tb_min:,.2f} TB/min at scale)")
    print(f"RDFA      : {r.rdfa:.4f}")
    if args.fault_spec is not None and "faults" in r.extras:
        counters = r.extras["faults"]
        crashed = r.extras.get("crashed_ranks", [])
        injected = sum(v for k, v in counters.items()
                       if k.startswith("faults."))
        print(f"faults    : {injected:.0f} injected "
              f"(fault seed {args.fault_seed}), "
              f"retry time {counters.get('retry.time', 0.0):.6f} s, "
              f"crashed ranks {crashed if crashed else 'none'}")
    if r.phase_times:
        print("phases    :")
        for name, t in sorted(r.phase_times.items(), key=lambda kv: -kv[1]):
            print(f"  {name:16s} {t:.6f} s")
    if getattr(args, "explain", False):
        from .core.plan import explain_lines
        decisions = r.extras.get("decisions") or []
        print("decisions :" if decisions else "decisions : (none recorded)")
        for line in explain_lines(decisions):
            print(f"  {line}")
    if args.trace is not None and report is not None:
        from .obs import comm_heat, phase_flame
        print()
        print(phase_flame(report))
        print()
        print(comm_heat(report))
        print(f"\ntrace written to {args.trace}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import diff_traces, summarize_trace

    if len(args.files) == 1:
        lines = summarize_trace(args.files[0])
    elif len(args.files) == 2:
        lines = diff_traces(args.files[0], args.files[1])
    else:
        raise SystemExit(
            "trace takes one file (summarize) or two files (diff)")
    for line in lines:
        print(line)
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    model = _universe_model(args.workload, args.alpha)
    algos = args.algorithms.split(",")
    series = {
        alg: weak_scaling_series(alg, model, args.n, args.p,
                                 machine=machine,
                                 record_bytes=args.record_bytes)
        for alg in algos
    }
    header = f"{'p':>6s}" + "".join(f" {alg:>12s}" for alg in algos)
    print(header)
    for i, p in enumerate(args.p):
        cells = []
        for alg in algos:
            pt = series[alg][i]
            cells.append("OOM" if pt.oom else f"{pt.total:.2f}s")
        print(f"{fmt_p(p):>6s}" + "".join(f" {c:>12s}" for c in cells))
    print("\nthroughput at largest p:")
    for alg in algos:
        pt = series[alg][-1]
        tput = "-" if pt.oom else f"{pt.throughput_tb_min():,.1f} TB/min"
        print(f"  {alg:12s} {tput}")
    if args.plot:
        from .viz import line_chart
        data = {
            alg: [(float(pt.p), math.inf if pt.oom else pt.total)
                  for pt in series[alg]]
            for alg in algos
        }
        print()
        print(line_chart(data, logx=True, title="weak scaling (model)",
                         ylabel="t(s)", xlabel="processes (log)"))
    return 0


def cmd_rdfa(args: argparse.Namespace) -> int:
    model = _universe_model(args.workload, args.alpha)
    methods = ["hyksort", "classic", "fast", "stable"]
    print(f"workload={args.workload} n/rank={args.n:,}")
    print(f"{'p':>8s}" + "".join(f" {m:>10s}" for m in methods))
    for p in args.p:
        cells = []
        for m in methods:
            loads = countspace_loads(model, args.n, p, method=m, seed=p)
            factor = loads.max() / args.n
            if 1 + factor > args.mem_factor:
                cells.append("inf(OOM)")
            else:
                cells.append(f"{rdfa(loads):.4f}")
        print(f"{fmt_p(p):>8s}" + "".join(f" {c:>10s}" for c in cells))
    return 0


def cmd_breakdown(args: argparse.Namespace) -> int:
    from .viz import stacked_bars

    machine = get_machine(args.machine)
    bars = {}
    for alg in args.algorithms.split(","):
        opts = ({"node_merge_enabled": False, "tau_o": 0}
                if alg.startswith("sds") else {})
        r = run_sort(alg, _workload(args), n_per_rank=args.n, p=args.p,
                     machine=machine, mem_factor=None, algo_opts=opts)
        if not r.ok:
            bars[alg] = {"OOM": 0.0}
            continue
        keep = ("pivot_selection", "exchange", "local_ordering", "local_sort")
        bars[alg] = {k: v for k, v in r.phase_times.items() if k in keep}
    print(stacked_bars(bars, title=f"phase breakdown, {args.workload}, "
                                   f"p={args.p} (simulated seconds)"))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    mb = 2**20
    tm = derive_tau_m(machine)
    to = derive_tau_o(machine)
    ts = derive_tau_s(machine)
    print(f"derived thresholds for {machine.name}:")
    print(f"  tau_m = {tm / mb:.0f} MB/node" if tm < 2**61
          else "  tau_m = always merge")
    print(f"  tau_o = {to} processes")
    print(f"  tau_s = {ts} processes")
    print("(paper's Edison values: ~160 MB, ~4096, ~4000)")
    return 0


_FIGURES = ("fig5a", "fig5b", "fig5c", "fig7", "fig8", "table3")


def cmd_figure(args: argparse.Namespace) -> int:
    from .simfast import (
        UniverseModel,
        countspace_loads,
        crossover,
        fig5a_merging,
        fig5b_overlap,
        fig5c_local_order,
        weak_scaling_series,
    )
    from .viz import line_chart

    machine = get_machine(args.machine)
    mb = 2**20
    name = args.name

    if name in ("fig5a", "fig5b", "fig5c"):
        if name == "fig5a":
            pts = fig5a_merging(machine, [m * mb for m in
                                          (4, 16, 64, 160, 256, 1024, 4096)])
            series = {"merged": [(pt.x / mb, pt.a) for pt in pts],
                      "unmerged": [(pt.x / mb, pt.b) for pt in pts]}
            label, paper, unit = "tau_m", "~160 MB", "MB/node"
            x = (crossover(pts) or 0) / mb
        elif name == "fig5b":
            ps = [512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
            pts = fig5b_overlap(machine, ps)
            series = {"overlap": [(pt.x, pt.a) for pt in pts],
                      "no-overlap": [(pt.x, pt.b) for pt in pts]}
            label, paper, unit = "tau_o", "~4096", "processes"
            x = crossover(pts) or 0
        else:
            ps = [512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
            pts = fig5c_local_order(machine, ps)
            series = {"sort": [(pt.x, pt.a) for pt in pts],
                      "merge": [(pt.x, pt.b) for pt in pts]}
            label, paper, unit = "tau_s", "~4000", "processes"
            x = crossover(pts) or 0
        print(line_chart(series, logx=True, title=f"{name} ({machine.name})",
                         ylabel="t(s)"))
        print(f"\ncrossover ({label}): {x:,.0f} {unit}   (paper: {paper})")
        return 0

    if name in ("fig7", "fig8"):
        model = (UniverseModel.uniform() if name == "fig7"
                 else UniverseModel.zipf(0.7))
        ps = [512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072]
        series = {}
        for alg in ("sds", "sds-stable", "hyksort"):
            pts = weak_scaling_series(alg, model, 100_000_000, ps,
                                      machine=machine)
            series[alg] = [(float(pt.p), math.inf if pt.oom else pt.total)
                           for pt in pts]
        print(line_chart(series, logx=True,
                         title=f"{name}: weak scaling, "
                               f"{'uniform' if name == 'fig7' else 'zipf'}",
                         ylabel="t(s)", xlabel="processes (log)"))
        if name == "fig8":
            print("\n(HykSort absent: OOM at every p, as in the paper)")
        return 0

    # table3
    uni, zpf = UniverseModel.uniform(), UniverseModel.zipf(0.7)
    print(f"{'p':>8s} {'Uni/SDS':>9s} {'Zipf/SDS':>9s} {'Zipf/Hyk':>10s}")
    for p in (512, 4096, 32768, 131072):
        u = countspace_loads(uni, 100_000_000, p, seed=p)
        z = countspace_loads(zpf, 100_000_000, p, seed=p)
        h = countspace_loads(zpf, 100_000_000, p, method="hyksort", seed=p)
        hy = ("inf(OOM)" if 1 + h.max() / 100_000_000 > 6.7
              else f"{rdfa(h):.3f}")
        print(f"{fmt_p(p):>8s} {rdfa(u):>9.4f} {rdfa(z):>9.4f} {hy:>10s}")
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    from .io import DatasetCatalog

    cat = DatasetCatalog(args.root)
    if args.action == "list":
        names = cat.names()
        if not names:
            print("(no datasets)")
        for name in names:
            info = cat.describe(name)
            print(f"{name:20s} workload={info['workload']} p={info['p']} "
                  f"n/rank={info['n_per_rank']} seed={info['seed']}")
        return 0
    if args.action == "create":
        if not args.name:
            raise SystemExit("--name is required for create")
        cat.materialize(args.name, _workload(args), n_per_rank=args.n,
                        p=args.p, seed=args.seed, overwrite=args.overwrite)
        print(f"created {args.name}: {args.p} shards x {args.n} records "
              f"under {cat.root}")
        return 0
    if args.action == "delete":
        if not args.name:
            raise SystemExit("--name is required for delete")
        cat.delete(args.name)
        print(f"deleted {args.name}")
        return 0
    raise SystemExit(f"unknown dataset action {args.action!r}")


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .faults.chaos import run_chaos
    from .faults.report import render_report

    machine = get_machine(args.machine)
    report = run_chaos(
        p=args.p, n_per_rank=args.n, seeds=args.seeds,
        specs=args.specs.split(",") if args.specs else None,
        algorithms=args.algorithms.split(","),
        workload=args.workload, machine=machine,
        backend=args.backend, procs=args.procs)
    for line in render_report(report):
        print(line)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
        print(f"\nfull report written to {args.json}")
    summary = report.summary()
    return 0 if summary["recovery_rate"] == 1.0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import (SortService, configure_logging, serve_socket,
                          serve_stdio)

    # structured logging to stderr (stdout belongs to the protocol);
    # the daemon's "listening" event replaces the old ready print
    configure_logging(args.log_level, json_lines=args.log_json)
    service = SortService(
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        mem_budget_bytes=(None if args.no_mem_budget
                          else int(args.mem_budget_mb * 2**20)),
        warm_pools=not args.cold_pools,
        max_pools=args.max_pools,
        telemetry=not args.no_telemetry)
    if args.socket:
        serve_socket(service, args.socket)
    else:
        # stdio transport: stdout carries only protocol lines
        serve_stdio(service, sys.stdin, sys.stdout)
    return 0


def _submit_spec(args: argparse.Namespace) -> dict:
    """The JobSpec wire dict a ``submit`` invocation describes."""
    import json

    if args.spec is not None:
        doc = json.loads(args.spec)
        if not isinstance(doc, dict):
            raise SystemExit("--spec must be a JSON object")
        return doc
    algo_opts = {}
    if args.algorithm.startswith("sds"):
        if args.no_node_merge:
            algo_opts["node_merge_enabled"] = False
        if args.sync:
            algo_opts["tau_o"] = 0
    workload_opts = {"alpha": args.alpha} if args.workload == "zipf" else {}
    faults = None
    if args.fault_spec is not None:
        faults = args.fault_spec.as_dict()
    return {
        "algorithm": args.algorithm,
        "workload": args.workload,
        "workload_opts": workload_opts,
        "p": args.p,
        "n_per_rank": args.n,
        "backend": args.backend,
        "procs": args.procs,
        "machine": args.machine,
        "seed": args.seed,
        "mem_factor": None if args.no_mem_limit else args.mem_factor,
        "algo_opts": algo_opts,
        "faults": faults,
        "fault_seed": args.fault_seed,
        "trace": args.job_trace,
        "explain": args.explain,
    }


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceError, SocketClient

    try:
        client = SocketClient(args.socket)
    except OSError as exc:
        raise SystemExit(f"cannot reach daemon at {args.socket}: {exc}")
    with client:
        try:
            if args.stats:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            if args.metrics is not None:
                out = client.metrics(format=args.metrics)
                if args.metrics == "prometheus":
                    print(out, end="")
                else:
                    print(json.dumps(out, indent=2, sort_keys=True))
                return 0
            if args.drain:
                out = client.drain()
                # the daemon exits after replying, so this response is
                # the final stats report and the last possible scrape
                final = {"stats": out["stats"]}
                if "metrics" in out:
                    final["metrics"] = out["metrics"]
                print(json.dumps(final, indent=2, sort_keys=True))
                return 0
            if args.status is not None:
                env = client.status(args.status)
            elif args.cancel is not None:
                env = client.cancel(args.cancel)
            else:
                env = client.submit(_submit_spec(args),
                                    priority=args.priority,
                                    timeout_s=args.timeout_s)
                if env["status"] == "rejected":
                    print(json.dumps(env, indent=2, sort_keys=True))
                    return 2
                if not args.no_wait:
                    env = client.result(env["job_id"])
        except ServiceError as exc:
            raise SystemExit(f"daemon error: {exc}")
        print(json.dumps(env, indent=2, sort_keys=True))
        return 0 if env["status"] in ("done", "queued", "running") else 1


def _metric_value(doc: dict, kind: str, name: str, **labels: str) -> float:
    """One sample's value from a metrics/v1 doc (0 when absent)."""
    want = {k: str(v) for k, v in labels.items()}
    for row in doc[kind]:
        if row["name"] == name and row["labels"] == want:
            return row["value"]
    return 0.0


def _metric_group(doc: dict, kind: str, name: str) -> list[dict]:
    return [row for row in doc[kind] if row["name"] == name]


def top_lines(stats: dict, metrics: dict) -> list[str]:
    """Render one ``sdssort top`` frame from a stats + metrics scrape."""
    counts = stats["counts"]
    lines = [
        f"sdssort top — state={stats['state']}  "
        f"queued={stats['queued']}  running={stats['running']}",
        "jobs: " + "  ".join(
            f"{k}={counts.get(k, 0)}"
            for k in ("submitted", "done", "failed", "cancelled",
                      "timeout", "rejected")),
        "",
        f"{'queue':<13s} {'depth':>5s} {'waits':>6s} {'q p50':>8s} "
        f"{'q p99':>8s} {'r p50':>8s} {'r p99':>8s}  (wall ms)",
    ]
    latency = stats.get("latency") or {}
    for priority in ("interactive", "batch", "bulk"):
        depth = _metric_value(metrics, "gauges", "sdssort_queue_depth",
                              priority=priority)
        lat = latency.get(priority) or {}
        q = lat.get("queue_ms") or {}
        r = lat.get("run_ms") or {}
        lines.append(
            f"  {priority:<11s} {int(depth):>5d} {q.get('count', 0):>6d} "
            f"{q.get('p50', 0.0):>8.2f} {q.get('p99', 0.0):>8.2f} "
            f"{r.get('p50', 0.0):>8.2f} {r.get('p99', 0.0):>8.2f}")

    runs = _metric_group(metrics, "counters", "sdssort_runs_total")
    if any(row["value"] for row in runs):
        lines += ["", f"{'runs':<24s} {'outcome':>10s} {'count':>6s}"]
        for row in sorted(runs, key=lambda r: sorted(r["labels"].items())):
            if not row["value"]:
                continue
            lbl = row["labels"]
            lines.append(f"  {lbl['algorithm'] + '/' + lbl['backend']:<22s} "
                         f"{lbl['outcome']:>10s} {int(row['value']):>6d}")

    adm = stats["admission"]
    lines += [
        "",
        "admission: " + "  ".join(
            f"{row['labels']['code']}={int(row['value'])}"
            for row in _metric_group(metrics, "counters",
                                     "sdssort_admission_decisions_total")),
        f"committed: {adm['committed_bytes']:,} B of "
        + (f"{adm['budget_bytes']:,} B" if adm["budget_bytes"] is not None
           else "(no budget)")
        + "   pools: " + "  ".join(
            f"{row['labels']['event']}={int(row['value'])}"
            for row in _metric_group(metrics, "counters",
                                     "sdssort_pool_events_total")),
    ]

    rollup = metrics["rollup"]
    if rollup["traced_jobs"]:
        cost = rollup["totals"]["cost"]
        lines += [
            "",
            f"fleet cost rollup ({rollup['traced_jobs']} traced job(s), "
            f"virtual seconds):",
            "  " + "  ".join(f"{k.removeprefix('cost.')}={v:.3f}"
                             for k, v in cost.items()),
        ]
        for group in rollup["groups"]:
            lines.append(f"  {group['algorithm']}/{group['workload']}: "
                         f"{group['jobs']} job(s), "
                         f"elapsed={group['elapsed']:.3f}s")
            phases = sorted(group["phases"], key=lambda ph: -ph["share"])
            for ph in phases[:6]:
                lines.append(f"    {ph['name']:<28s} "
                             f"{ph['total_seconds']:>10.3f}s "
                             f"{ph['share'] * 100:>5.1f}%")
    return lines


def cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from .service import ServiceError, SocketClient

    frame = 0
    while True:
        try:
            with SocketClient(args.socket) as client:
                stats = client.stats()
                metrics = client.metrics()
        except OSError as exc:
            raise SystemExit(f"cannot reach daemon at {args.socket}: {exc}")
        except ServiceError as exc:
            raise SystemExit(f"daemon error: {exc}")
        if frame:
            print()
        print("\n".join(top_lines(stats, metrics)))
        frame += 1
        if args.iterations is not None and frame >= args.iterations:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_info(args: argparse.Namespace) -> int:
    print("algorithms:")
    for name in sorted(ALGORITHMS):
        spec = ALGORITHMS[name]
        mark = " [stable]" if spec.stable else ""
        print(f"  {name:12s} {spec.summary}{mark}")
    print("workloads : uniform, zipf (--alpha), runs, nearly-sorted, "
          "ptf, cosmology")
    print("machines  :")
    for name, spec in sorted(PRESETS.items()):
        print(f"  {name:16s} {spec.cores_per_node} cores/node, "
              f"{spec.mem_per_node / 2**30:.0f} GB/node, "
              f"NIC {spec.nic_bandwidth / 1e9:.0f} GB/s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdssort",
        description="SDS-Sort (HPDC'16) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sort", help="run one distributed sort end to end")
    ps.add_argument("--algorithm", default="sds", choices=sorted(ALGORITHMS))
    ps.add_argument("--workload", default="uniform")
    ps.add_argument("--alpha", type=float, default=0.7,
                    help="Zipf exponent (zipf workload only)")
    ps.add_argument("--n", type=_nonneg_int, default=2000,
                    help="records per rank")
    ps.add_argument("--p", type=_positive_int, default=16,
                    help="simulated ranks")
    ps.add_argument("--machine", default="edison")
    ps.add_argument("--backend", default="thread",
                    choices=["thread", "proc", "hybrid", "flat", "auto"],
                    help="engine backend: rank threads in-process, rank "
                         "blocks sharded over worker processes "
                         "(bit-for-bit identical), analytic+sampled "
                         "hybrid for giant p (4Ki..128Ki+), whole-world "
                         "batched columnar phases with no rank threads "
                         "(bit-for-bit identical, SDS algorithms only), "
                         "or auto (flat when eligible, else thread)")
    ps.add_argument("--procs", type=_positive_int, default=None,
                    help="worker processes for --backend proc "
                         "(default: scale heuristic)")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--mem-factor", type=_positive_float, default=6.7,
                    help="per-rank memory capacity as multiple of input")
    ps.add_argument("--no-mem-limit", action="store_true")
    ps.add_argument("--no-node-merge", action="store_true")
    ps.add_argument("--sync", action="store_true",
                    help="force the synchronous exchange (tau_o = 0)")
    ps.add_argument("--fault-spec", type=_fault_spec, default=None,
                    metavar="PRESET|JSON",
                    help="inject faults: a chaos preset name or an inline "
                         "JSON FaultSpec")
    ps.add_argument("--fault-seed", type=int, default=0,
                    help="seed of the fault schedule (independent of the "
                         "data seed)")
    ps.add_argument("--explain", action="store_true",
                    help="print every adaptive decision the sort made "
                         "(thresholds, measured values, winners)")
    ps.add_argument("--trace", default=None, metavar="PATH",
                    help="record a virtual-time trace, write it as "
                         "Chrome/Perfetto trace-event JSON to PATH, and "
                         "print the phase-flame / comm-heat summary")
    ps.add_argument("--json", action="store_true",
                    help="machine-readable JSON result on stdout "
                         "(schema sdssort.sort/v4; implies tracing)")
    ps.set_defaults(fn=cmd_sort)

    ptr = sub.add_parser(
        "trace",
        help="summarize one exported trace file, or diff two")
    ptr.add_argument("files", nargs="+", metavar="TRACE",
                     help="trace-event JSON written by sort --trace")
    ptr.set_defaults(fn=cmd_trace)

    pc = sub.add_parser("scaling", help="weak-scaling model series (Fig 7/8)")
    pc.add_argument("--workload", default="uniform")
    pc.add_argument("--alpha", type=float, default=0.7)
    pc.add_argument("--algorithms", default="sds,sds-stable,hyksort")
    pc.add_argument("--n", type=int, default=100_000_000)
    pc.add_argument("--record-bytes", type=int, default=4)
    pc.add_argument("--p", type=_int_list,
                    default=[512, 1024, 2048, 4096, 8192, 16384, 32768,
                             65536, 131072])
    pc.add_argument("--machine", default="edison")
    pc.add_argument("--plot", action="store_true",
                    help="render the series as an ASCII chart")
    pc.set_defaults(fn=cmd_scaling)

    pb = sub.add_parser(
        "breakdown",
        help="functional run with a Figure 9/10-style phase-bar chart")
    pb.add_argument("--workload", default="ptf")
    pb.add_argument("--alpha", type=float, default=0.7)
    pb.add_argument("--n", type=int, default=1500)
    pb.add_argument("--p", type=int, default=48)
    pb.add_argument("--machine", default="edison")
    pb.add_argument("--algorithms", default="hyksort,sds,sds-stable")
    pb.set_defaults(fn=cmd_breakdown)

    pr = sub.add_parser("rdfa", help="count-space RDFA table (Table 3/4)")
    pr.add_argument("--workload", default="zipf")
    pr.add_argument("--alpha", type=float, default=0.7)
    pr.add_argument("--n", type=int, default=100_000_000)
    pr.add_argument("--p", type=_int_list, default=[512, 8192, 131072])
    pr.add_argument("--mem-factor", type=float, default=6.7)
    pr.set_defaults(fn=cmd_rdfa)

    pt = sub.add_parser("tune", help="derive tau_m/tau_o/tau_s for a machine")
    pt.add_argument("--machine", default="edison")
    pt.set_defaults(fn=cmd_tune)

    pf = sub.add_parser("figure",
                        help="render one of the paper's figures as ASCII")
    pf.add_argument("name", choices=list(_FIGURES))
    pf.add_argument("--machine", default="edison")
    pf.set_defaults(fn=cmd_figure)

    pd = sub.add_parser("dataset", help="materialise / list stored datasets")
    pd.add_argument("action", choices=["create", "list", "delete"])
    pd.add_argument("--root", default="datasets")
    pd.add_argument("--name")
    pd.add_argument("--workload", default="uniform")
    pd.add_argument("--alpha", type=float, default=0.7)
    pd.add_argument("--n", type=int, default=1000)
    pd.add_argument("--p", type=int, default=4)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--overwrite", action="store_true")
    pd.set_defaults(fn=cmd_dataset)

    px = sub.add_parser(
        "chaos",
        help="run a seeded fault matrix and report resilience")
    px.add_argument("--p", type=_positive_int, default=64,
                    help="simulated ranks")
    px.add_argument("--n", type=_nonneg_int, default=256,
                    help="records per rank")
    px.add_argument("--seeds", type=_seed_list, default=[0, 1, 2],
                    help="fault/data seeds: 0..4 (inclusive) or 0,1,2")
    px.add_argument("--specs", default=None,
                    help="comma-separated chaos presets (default: all)")
    px.add_argument("--algorithms", default="sds,sds-stable")
    px.add_argument("--workload", default="uniform")
    px.add_argument("--machine", default="edison")
    px.add_argument("--backend", default="thread",
                    choices=["thread", "proc", "flat"],
                    help="engine backend (report hash is backend-invariant)")
    px.add_argument("--procs", type=_positive_int, default=None,
                    help="worker processes for --backend proc")
    px.add_argument("--json", default=None, metavar="PATH",
                    help="also write the full report as JSON")
    px.set_defaults(fn=cmd_chaos)

    pv = sub.add_parser(
        "serve",
        help="run the sort service daemon (JSON-lines over stdio or a "
             "Unix socket; see docs/service.md)")
    pv.add_argument("--socket", default=None, metavar="PATH",
                    help="serve on a Unix socket instead of stdio")
    pv.add_argument("--workers", type=_positive_int, default=2,
                    help="concurrent jobs (scheduler threads)")
    pv.add_argument("--max-queue-depth", type=_positive_int, default=64,
                    help="queued-job bound; beyond it submissions get a "
                         "typed queue-full rejection")
    pv.add_argument("--mem-budget-mb", type=_positive_float, default=4096,
                    help="admission memory budget: total modelled engine "
                         "peak across queued+running jobs (MiB)")
    pv.add_argument("--no-mem-budget", action="store_true",
                    help="disable the memory admission gate")
    pv.add_argument("--cold-pools", action="store_true",
                    help="disable warm-pool reuse (every job cold-starts "
                         "its engine pool)")
    pv.add_argument("--max-pools", type=_positive_int, default=8,
                    help="idle engine pools retained by the warm cache")
    pv.add_argument("--no-telemetry", action="store_true",
                    help="disable the metrics registry and cost rollup "
                         "(the metrics op reports telemetry disabled)")
    pv.add_argument("--log-level", default="info",
                    choices=["debug", "info", "warning", "error"],
                    help="structured-log threshold (records go to stderr)")
    pv.add_argument("--log-json", action="store_true",
                    help="emit log records as JSON lines instead of text")
    pv.set_defaults(fn=cmd_serve)

    pm = sub.add_parser(
        "submit",
        help="submit a job to a running serve daemon and print the "
             "sdssort.job/v1 envelope")
    pm.add_argument("--socket", required=True, metavar="PATH",
                    help="Unix socket of the serve daemon")
    pm.add_argument("--spec", default=None, metavar="JSON",
                    help="full JobSpec as inline JSON (overrides the "
                         "per-field flags)")
    pm.add_argument("--algorithm", default="sds", choices=sorted(ALGORITHMS))
    pm.add_argument("--workload", default="uniform")
    pm.add_argument("--alpha", type=float, default=0.7)
    pm.add_argument("--n", type=_nonneg_int, default=2000,
                    help="records per rank")
    pm.add_argument("--p", type=_positive_int, default=16,
                    help="simulated ranks")
    pm.add_argument("--machine", default="edison")
    pm.add_argument("--backend", default="auto",
                    choices=["thread", "proc", "hybrid", "flat", "auto"],
                    help="engine (default auto: the flat engine for every "
                         "registered algorithm)")
    pm.add_argument("--procs", type=_positive_int, default=None)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--mem-factor", type=_positive_float, default=6.7)
    pm.add_argument("--no-mem-limit", action="store_true")
    pm.add_argument("--no-node-merge", action="store_true")
    pm.add_argument("--sync", action="store_true")
    pm.add_argument("--fault-spec", type=_fault_spec, default=None,
                    metavar="PRESET|JSON")
    pm.add_argument("--fault-seed", type=int, default=0)
    pm.add_argument("--job-trace", action="store_true",
                    help="record a virtual-time trace; its digest rides "
                         "in the result document")
    pm.add_argument("--explain", action="store_true",
                    help="include the decision explanation in the result")
    pm.add_argument("--priority", default="batch",
                    choices=["interactive", "batch", "bulk"])
    pm.add_argument("--timeout-s", type=_positive_float, default=None,
                    help="cancel the job if not finished in this many "
                         "wall seconds")
    pm.add_argument("--no-wait", action="store_true",
                    help="print the queued envelope instead of blocking "
                         "for the result")
    pm.add_argument("--status", default=None, metavar="JOB_ID",
                    help="query one job instead of submitting")
    pm.add_argument("--cancel", default=None, metavar="JOB_ID",
                    help="cancel one job instead of submitting")
    pm.add_argument("--stats", action="store_true",
                    help="print service stats instead of submitting")
    pm.add_argument("--metrics", default=None, nargs="?", const="json",
                    choices=["json", "prometheus"],
                    help="scrape telemetry instead of submitting "
                         "(sdssort.metrics/v1 JSON, or Prometheus text)")
    pm.add_argument("--drain", action="store_true",
                    help="drain the daemon (finish queued+running jobs, "
                         "then it exits)")
    pm.set_defaults(fn=cmd_submit)

    pp = sub.add_parser(
        "top",
        help="live dashboard for a running serve daemon: queue depth, "
             "latency percentiles, run outcomes and the fleet phase-"
             "cost rollup")
    pp.add_argument("--socket", required=True, metavar="PATH",
                    help="Unix socket of the serve daemon")
    pp.add_argument("--interval", type=_positive_float, default=2.0,
                    help="seconds between frames")
    pp.add_argument("--iterations", type=_positive_int, default=None,
                    help="render this many frames then exit "
                         "(default: until interrupted)")
    pp.set_defaults(fn=cmd_top)

    pi = sub.add_parser("info", help="list algorithms, workloads, machines")
    pi.set_defaults(fn=cmd_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
