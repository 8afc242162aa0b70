"""The ``service`` workload: an open-loop job stream against the daemon.

The daemon runs as ``sdssort serve --socket PATH --workers 2`` in its
own process, so generator and daemon never share an interpreter lock.
One generator connection submits jobs on a fixed schedule: job ``k``
is due ``k / RATE_PER_S`` seconds after the stream starts, whether or
not earlier jobs have finished (an open loop, as independent users
would submit).  The mix has exact shares in every block of jobs, so it
does not drift with the seed.  Specs leave backend, telemetry and warm
pools at their defaults: the daemon serves what a user's submission
gets.

Job latency runs from when the job was *due* to when its finished
envelope reaches the client, composed as

    (submit acknowledged - due) + envelope ``timing.total_ms``
    (daemon-side submit to finish) + a measured ``result`` round trip

because one blocking ``result`` call per job, in submission order,
would charge head-of-line waits to jobs that an interactive job
overtook.  The daemon creates the job while it handles the submit
request, so counting up to the acknowledgement can only overstate the
latency, by at most the submit round trip, which is reported beside
the latencies.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any

from repro.service.client import SocketClient
from repro.service.jsondoc import comparable

from spans import layer_totals, load_spans
from stats import digest, median, percentile, summary

#: Jobs per second the generator submits.
RATE_PER_S = 3.0

#: Jobs per block of the schedule; the mix shares are exact in each.
BLOCK = 20

#: Latency limit per priority class (ms), for ``slo_attainment``.
SLO_MS = {"interactive": 1000.0, "batch": 5000.0}

#: Daemons booted for set-up; the last one serves the stream.
SETUP_BOOTS = 3

#: Seconds a daemon gets to start listening or to exit after a drain.
DAEMON_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class MixClass:
    label: str
    share: float
    priority: str
    spec: dict[str, Any]

    @property
    def records(self) -> int:
        return self.spec["p"] * self.spec["n_per_rank"]


MIX: tuple[MixClass, ...] = (
    MixClass("sds-uniform-p16", 0.50, "interactive",
             {"algorithm": "sds", "workload": "uniform", "p": 16,
              "n_per_rank": 2000}),
    MixClass("sds-stable-ptf-p16", 0.20, "interactive",
             {"algorithm": "sds-stable", "workload": "ptf", "p": 16,
              "n_per_rank": 2000}),
    MixClass("psrs-zipf-p64", 0.15, "batch",
             {"algorithm": "psrs", "workload": "zipf", "p": 64,
              "n_per_rank": 2000}),
    MixClass("sds-cosmology-p64-nomerge", 0.15, "batch",
             {"algorithm": "sds", "workload": "cosmology", "p": 64,
              "n_per_rank": 2000,
              "algo_opts": {"node_merge_enabled": False}}),
)


@dataclass(frozen=True)
class ScheduledJob:
    index: int
    due_s: float
    cls: MixClass
    seed: int

    def spec(self) -> dict[str, Any]:
        return {**self.cls.spec, "seed": self.seed}


def exact_counts(n: int, shares: list[float]) -> list[int]:
    """Split ``n`` by ``shares`` exactly (largest remainder, ties first)."""
    raw = [n * s / sum(shares) for s in shares]
    counts = [int(r) for r in raw]
    by_remainder = sorted(range(len(shares)),
                          key=lambda i: (counts[i] - raw[i], i))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    return counts


def interleave(counts: list[int]) -> list[int]:
    """Class indices with each class spread evenly (smooth round robin)."""
    total = sum(counts)
    credit = [0] * len(counts)
    order = []
    for _ in range(total):
        for i, k in enumerate(counts):
            credit[i] += k
        pick = max(range(len(counts)), key=lambda i: (credit[i], -i))
        credit[pick] -= total
        order.append(pick)
    return order


def schedule(n_jobs: int, rate: float, seed: int) -> list[ScheduledJob]:
    """The open-loop stream: exact mix shares, order set by ``seed``.

    Each block of :data:`BLOCK` jobs holds the exact mix shares (a
    last, partial block is split by largest remainder), each class
    spread evenly over the block; the seed picks where in that pattern
    the stream starts.  A free shuffle lets the heavy jobs bunch
    differently on every seed, which moved the median latency by a
    quarter between seeds.
    """
    pattern = interleave(exact_counts(BLOCK, [c.share for c in MIX]))
    offset = random.Random(seed).randrange(BLOCK)
    classes: list[MixClass] = []
    for start in range(0, n_jobs, BLOCK):
        size = min(BLOCK, n_jobs - start)
        if size == BLOCK:
            block = [pattern[(offset + j) % BLOCK] for j in range(BLOCK)]
        else:
            block = interleave(exact_counts(size, [c.share for c in MIX]))
        classes += [MIX[i] for i in block]
    return [ScheduledJob(k, k / rate, c, job_seed(seed, k))
            for k, c in enumerate(classes)]


def job_seed(seed: int, k: int) -> int:
    """Data seed of stream job ``k`` (warm-up jobs use ``k < 0``)."""
    return seed * 10_000 + 16 + k


class Daemon:
    """One ``sdssort serve`` subprocess on a Unix socket in the checkout.

    The socket path is relative to the checkout root (the working
    directory of both processes), which keeps it under the kernel's
    socket path length limit wherever the checkout lives.
    """

    def __init__(self, root: str, workdir: str, tag: str,
                 spans_path: str | None = None):
        self.socket = os.path.relpath(
            os.path.join(workdir, f"serve-{os.getpid()}-{tag}.sock"), root)
        serve = ["serve", "--socket", self.socket, "--workers", "2"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable,
                   os.path.join(root, "perfbench", "launcher.py"),
                   "--spans", spans_path, *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH"))
            if p)
        self.log = open(os.path.join(workdir, f"serve-{tag}.log"), "w",
                        encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.log)
        self.client: SocketClient | None = None

    def connect(self) -> SocketClient:
        """Wait until the daemon listens; return a connected client."""
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}"
                                   f" before listening (see {self.log.name})")
            try:
                self.client = SocketClient(self.socket)
                return self.client
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident memory (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def drain(self) -> dict[str, Any]:
        """Finish all work, take the final metrics scrape, wait for exit."""
        response = self.client.drain()
        self.close()
        return response

    def close(self) -> None:
        """Disconnect, stop the process if still running, and reap it."""
        if self.client is not None:
            self.client.close()
            self.client = None
        try:
            self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()


def boot(root: str, workdir: str, tag: str, seed: int,
         spans_path: str | None = None
         ) -> tuple[Daemon, float, list[dict[str, Any]]]:
    """Start a daemon and run one warm-up job per mix class.

    Returns the daemon, the set-up wall (boot to last warm-up job
    back) and the warm-up envelopes.
    """
    t0 = time.monotonic()
    daemon = Daemon(root, workdir, tag, spans_path)
    try:
        client = daemon.connect()
        warm = []
        for j, cls in enumerate(MIX):
            env = client.submit({**cls.spec, "seed": job_seed(seed, -1 - j)},
                                priority=cls.priority)
            warm.append(client.result(env["job_id"], wait=True,
                                      timeout=DAEMON_TIMEOUT_S))
    except BaseException:
        if daemon.proc.poll() is None:
            daemon.proc.terminate()
        daemon.close()
        raise
    return daemon, time.monotonic() - t0, warm


def drive(client: SocketClient, jobs: list[ScheduledJob]
          ) -> list[dict[str, Any]]:
    """Submit ``jobs`` on schedule, then collect every finished envelope."""
    out: list[dict[str, Any]] = []
    t0 = time.monotonic() + 0.05
    for job in jobs:
        due = t0 + job.due_s
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        env = client.submit(job.spec(), priority=job.cls.priority)
        acked = time.monotonic()
        out.append({"job": job, "id": env["job_id"], "lag_s": sent - due,
                    "submit_rtt_s": acked - sent, "acked_s": acked - due})
    for o in out:
        client.result(o["id"], wait=True, timeout=DAEMON_TIMEOUT_S)
    for o in out:
        t = time.monotonic()
        o["env"] = client.result(o["id"], wait=False)
        o["fetch_rtt_s"] = time.monotonic() - t
        o["latency_ms"] = ((o["acked_s"] + o["fetch_rtt_s"]) * 1e3
                           + o["env"]["timing"]["total_ms"])
    return out


def is_done(env: dict[str, Any]) -> bool:
    return env["status"] == "done" and bool((env.get("result") or {})
                                            .get("ok"))


def scrape_counts(metrics: dict[str, Any], name: str, label: str
                  ) -> dict[str, int]:
    return {row["labels"][label]: int(row["value"])
            for row in metrics.get("counters", []) if row["name"] == name}


def stream_stats(stream: list[dict[str, Any]]) -> dict[str, Any]:
    """End-to-end figures of one finished stream."""
    latencies = [o["latency_ms"] for o in stream]
    ok = [o for o in stream if is_done(o["env"])]
    span_s = max(o["job"].due_s + o["latency_ms"] / 1e3 for o in stream)
    slo_met = sum(1 for o in ok
                  if o["latency_ms"] <= SLO_MS[o["job"].cls.priority])
    return {
        "job_latency_ms": summary(latencies),
        "by_class_latency_ms": {
            c.label: summary([o["latency_ms"] for o in stream
                              if o["job"].cls is c]) for c in MIX},
        "jobs_per_s": len(ok) / span_s,
        "records_per_s": sum(o["job"].cls.records for o in ok) / span_s,
        "slo_attainment": slo_met / len(stream),
        "gen_lag_ms": summary([o["lag_s"] * 1e3 for o in stream]),
        "submit_rtt_ms": summary([o["submit_rtt_s"] * 1e3 for o in stream]),
        "fetch_rtt_ms": summary([o["fetch_rtt_s"] * 1e3 for o in stream]),
        "queue_ms": summary([o["env"]["timing"]["queue_ms"] for o in stream]),
        "run_ms": summary([o["env"]["timing"]["run_ms"] for o in stream]),
    }


def run_service(*, root: str, workdir: str, seed: int, seconds: float,
                trace: bool) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the service workload; returns ``(result line, report)``.

    Timings are raw host walls.  The host probe that scales the batch
    timings runs in this process, not the daemon's, and did not see
    the slow spells of the daemon: in ten runs on a 2-core VM, two ran
    50% slower at a normal probe speed, and scaling widened the spread
    of the median latency from 0.19 to 0.40.

    Traced, the stream is split in two halves with the same jobs: the
    first against an untraced daemon, the second against a daemon
    started through ``launcher.py`` with the service layers wrapped.
    """
    n_jobs = max(1, int(seconds * RATE_PER_S))
    if trace:
        n_jobs //= 2
    jobs = schedule(n_jobs, RATE_PER_S, seed)
    envelopes: list[dict[str, Any]] = []
    setup_walls: list[float] = []
    daemons: list[Daemon] = []
    try:
        for b in range(SETUP_BOOTS):
            daemon, wall, warm = boot(root, workdir, f"setup{b}", seed)
            daemons.append(daemon)
            setup_walls.append(wall)
            envelopes += warm
            if b < SETUP_BOOTS - 1:
                daemon.drain()
        stream = drive(daemon.client, jobs)
        rss_mb = daemon.peak_rss_mb()
        final = daemon.drain()

        traced = None
        if trace:
            spans_path = os.path.join(workdir, f"spans-service-{seed}.json")
            tdaemon, _, twarm = boot(root, workdir, "traced", seed,
                                     spans_path=spans_path)
            daemons.append(tdaemon)
            envelopes += twarm
            traced = drive(tdaemon.client, jobs)
            tfinal = tdaemon.drain()
            envelopes += [o["env"] for o in traced]
    finally:
        for d in daemons:
            if d.proc.poll() is None:
                d.proc.terminate()
            d.close()

    envelopes += [o["env"] for o in stream]
    failed = [e for e in envelopes if not is_done(e)]
    stats = stream_stats(stream)
    metrics_doc = final.get("metrics") or {}
    report: dict[str, Any] = {
        "virtual_digest": digest([
            comparable(o["env"]["result"]) if is_done(o["env"])
            else o["env"]["status"] for o in stream]),
        "counters": {
            "jobs_scheduled": len(jobs),
            "mix": {c.label: sum(1 for j in jobs if j.cls is c) for c in MIX},
            # the daemon's own counters: they include its warm-up jobs
            "admission_decisions": scrape_counts(
                metrics_doc, "sdssort_admission_decisions_total", "code"),
            "pool_events": scrape_counts(
                metrics_doc, "sdssort_pool_events_total", "event"),
        },
        "rate_per_s": RATE_PER_S,
        "slo_ms": SLO_MS,
        "setup_walls_s": setup_walls,
        "latency_composition": "(ack - due) + envelope total_ms + result rtt",
        **stats,
        "error_rate": len(failed) / len(envelopes),
        "errors": [f"{e['job_id']}: {e['status']} {e.get('error')}"
                   for e in failed],
    }
    lat = stats["job_latency_ms"]
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (median(setup_walls), "s"),
        "records_per_s": (stats["records_per_s"], "1/s"),
        "latency_ms.p50": (lat["p50"], "ms"),
        "latency_ms.p90": (lat["p90"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if trace:
        metrics, extra = service_layers(spans_path, stream, traced, tfinal)
        report.update(extra)
    result = {
        "correct": not failed,
        "attempted": len(envelopes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, report


def service_layers(spans_path: str, untraced: list[dict[str, Any]],
                   traced: list[dict[str, Any]], final: dict[str, Any]
                   ) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """Per-job service layer metrics from the traced daemon's spans."""
    spans, meta = load_spans(spans_path)
    totals = layer_totals(spans)
    jobs = len(traced) + len(MIX)  # the traced daemon's warm-up jobs too
    pools = scrape_counts(final.get("metrics") or {},
                          "sdssort_pool_events_total", "event")
    leases = pools.get("hit", 0) + pools.get("miss", 0)
    timing = [o["env"]["timing"] for o in traced]
    run_ms = [t["run_ms"] for t in timing]
    untraced_run_ms = [o["env"]["timing"]["run_ms"] for o in untraced]

    def per_job(name: str) -> tuple[float, str]:
        return totals.get(name, {}).get("self_s", 0.0) / jobs, "s"

    metrics: dict[str, tuple[float, str]] = {
        "service.admission_s": per_job("service.admission"),
        "service.lease_s": per_job("service.lease"),
        "service.doc_s": per_job("service.doc"),
        "service.telemetry_s": per_job("service.telemetry"),
        "service.queue_wait_ms.p50": (
            percentile([t["queue_ms"] for t in timing], 50), "ms"),
        "service.run_ms.p50": (percentile(run_ms, 50), "ms"),
        "service.run_ms.p90": (percentile(run_ms, 90), "ms"),
        "service.pool_hit_ratio": (
            pools.get("hit", 0) / leases if leases else 0.0, "ratio"),
        "bench.gen_lag_ms.p90": (
            percentile([o["lag_s"] * 1e3 for o in untraced + traced], 90),
            "ms"),
        "bench.trace_overhead": (
            percentile(run_ms, 50) / percentile(untraced_run_ms, 50),
            "ratio"),
    }
    extra = {
        "traced_jobs": len(traced),
        "sites_missing": meta.get("sites_missing", []),
        "layer_calls": {n: t["calls"] for n, t in sorted(totals.items())},
        "pool_leases": leases,
        "traced_run_ms": summary(run_ms),
        "untraced_run_ms": summary(untraced_run_ms),
    }
    return metrics, extra
