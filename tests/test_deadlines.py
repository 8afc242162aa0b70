"""Deadlines on the flat engine, and the service's ``auto`` default.

The flat engine polls the run's cancel event at every phase and
collective boundary.  A fired event becomes a rank-0 ``RunCancelled``
failure and the world stops at that boundary, so a cancelled run
overruns its deadline by at most one phase.  Service jobs default to
``backend="auto"`` (the flat engine), and their results equal the
thread engine's in every field but the ``engine`` block.
"""

import threading

import pytest

from repro.cli import build_parser
from repro.machine import EDISON
from repro.mpi import run_spmd
from repro.mpi.errors import RankFailure, RunCancelled
from repro.runner import ALGORITHMS, _SortProgram, resolve_backend, run_sort
from repro.service import JobSpec, ServiceClient, comparable, sort_doc
from repro.service.metrics import ServiceMetrics
from repro.workloads import Workload, uniform
from repro.workloads.synthetic import uniform_batch


class SetAfter:
    """A cancel event that reads set from its ``(k + 1)``-th poll on."""

    def __init__(self, k: int):
        self.k = k
        self.polls = 0

    def is_set(self) -> bool:
        self.polls += 1
        return self.polls > self.k


def _flat(algorithm: str, cancel, p: int = 32):
    prog = _SortProgram(algorithm, uniform(), 200, 0, {})
    return run_spmd(prog, p, machine=EDISON, backend="flat", check=False,
                    cancel=cancel)


def _phases(res) -> list[list[str]]:
    return [[name for _, _, name in trace] for trace in res.traces]


class TestFlatDeadlines:
    @pytest.mark.parametrize("algorithm",
                             ["sds", "sds-stable", "psrs", "hyksort",
                              "bitonic", "radix"])
    def test_stops_at_the_next_boundary(self, algorithm):
        never = SetAfter(10**9)
        ref = _flat(algorithm, never)
        assert ref.failure is None
        want = _phases(ref)
        assert never.polls > 2  # pre-start check plus in-run boundaries
        recorded = []
        for k in range(never.polls):
            event = SetAfter(k)
            res = _flat(algorithm, event)
            assert isinstance(res.failure.cause, RunCancelled), k
            assert res.failure.rank == 0
            # the first poll that reads set stops the world: no poll,
            # and so no phase or collective, follows it
            assert event.polls == k + 1
            got = _phases(res)
            for rank, names in enumerate(got):
                assert names == want[rank][:len(names)], (k, rank)
            recorded.append(max(map(len, got)))
        # between two consecutive polls at most one phase starts, so
        # an event that fires between them costs at most one phase
        assert recorded[0] == 0
        assert all(0 <= b - a <= 1 for a, b in zip(recorded, recorded[1:]))

    def test_cancel_counts_as_engine_cancel(self):
        metrics = ServiceMetrics()
        r = run_sort("sds", uniform(), n_per_rank=200, p=32,
                     backend="flat", cancel=SetAfter(3), metrics=metrics)
        assert not r.ok and "RunCancelled" in r.failure
        counters = metrics.registry.snapshot()["counters"]

        def total(name, **labels):
            return sum(row["value"] for row in counters
                       if row["name"] == name
                       and all(row["labels"].get(k) == v
                               for k, v in labels.items()))

        assert total("sdssort_engine_cancels_total") == 1
        assert total("sdssort_engine_worlds_total", backend="flat") == 1
        assert total("sdssort_runs_total", backend="flat",
                     outcome="cancelled") == 1

    def test_unfired_event_leaves_results_identical(self):
        plain = run_sort("sds", uniform(), n_per_rank=300, p=32,
                         backend="flat")
        watched = run_sort("sds", uniform(), n_per_rank=300, p=32,
                           backend="flat", cancel=threading.Event())
        assert plain.ok and watched.ok
        assert plain.elapsed == watched.elapsed
        assert plain.phase_times == watched.phase_times
        assert plain.extras["decisions"] == watched.extras["decisions"]

    @pytest.mark.parametrize("backend", ["thread", "flat"])
    def test_preset_event_aborts_before_shard_generation(self, backend):
        calls = []

        def counted(n, rng):
            calls.append(n)
            return uniform_batch(n, rng)

        event = threading.Event()
        event.set()
        r = run_sort("sds", Workload("counted", counted), n_per_rank=100,
                     p=16, backend=backend, cancel=event)
        assert not r.ok
        assert "run cancelled before start" in r.failure
        assert len(calls) == 1  # run_sort's record-width probe only

    def test_preset_event_never_enters_flat_run(self):
        class Program:
            entered = False

            def flat_run(self, comms):
                Program.entered = True
                return [None] * len(comms), []

        event = threading.Event()
        event.set()
        res = run_spmd(Program(), 8, backend="flat", check=False,
                       cancel=event)
        assert not Program.entered
        assert isinstance(res.failure.cause, RunCancelled)
        with pytest.raises(RankFailure, match="RunCancelled"):
            run_spmd(Program(), 8, backend="flat", cancel=event)

    def test_large_default_job_times_out(self):
        with ServiceClient(workers=1) as c:
            env = c.run(JobSpec(p=4096, n_per_rank=256), timeout_s=0.2)
        assert env["status"] == "timeout"
        assert "RunCancelled" in (env["error"] or "")


#: The four job classes of the service benchmark's open-loop mix.
MIX = [
    {"algorithm": "sds", "workload": "uniform", "p": 16,
     "n_per_rank": 2000},
    {"algorithm": "sds-stable", "workload": "ptf", "p": 16,
     "n_per_rank": 2000},
    {"algorithm": "psrs", "workload": "zipf", "p": 64, "n_per_rank": 2000},
    {"algorithm": "sds", "workload": "cosmology", "p": 64,
     "n_per_rank": 2000, "algo_opts": {"node_merge_enabled": False}},
]


def _without_engine(doc: dict) -> dict:
    return {k: v for k, v in comparable(doc).items() if k != "engine"}


class TestAutoDefault:
    def test_jobspec_and_submit_default_to_auto(self):
        assert JobSpec().backend == "auto"
        args = build_parser().parse_args(["submit", "--socket", "s"])
        assert args.backend == "auto"
        for name in ALGORITHMS:
            assert resolve_backend(JobSpec(algorithm=name).backend,
                                   name)[0] == "flat"

    def test_run_sort_default_stays_thread(self):
        r = run_sort("sds", uniform(), n_per_rank=100, p=4)
        assert r.extras["engine"]["backend"] == "thread"

    @pytest.mark.parametrize("fields", MIX,
                             ids=[f"{m['algorithm']}-{m['workload']}"
                                  for m in MIX])
    def test_mix_class_runs_flat_and_matches_thread(self, fields):
        spec = JobSpec.from_dict({**fields, "seed": 7})
        with ServiceClient(workers=1) as c:
            env = c.run(spec)
        assert env["status"] == "done", env["error"]
        assert env["backend"] == "auto"
        engine = env["result"]["engine"]
        assert engine["backend"] == "flat"
        assert engine["resolved_backend"]["resolved"] == "flat"
        thread = JobSpec.from_dict({**fields, "seed": 7,
                                    "backend": "thread"})
        direct = sort_doc(thread.run(), machine=thread.machine,
                          seed=thread.seed)
        assert direct["engine"]["backend"] == "thread"
        assert _without_engine(env["result"]) == _without_engine(direct)
