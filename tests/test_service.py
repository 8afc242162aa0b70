"""The sort service: specs, admission, scheduling, and determinism.

The load-bearing contract is bit-identical equivalence: any stream of
JobSpecs run through the service — serially, concurrently, or
interleaved with chaos and traced jobs, on warm pools or cold — must
produce exactly the result documents direct ``run_sort`` calls would,
modulo the wall-clock fields ``comparable()`` strips.
"""

import threading
import time

import pytest

from repro.mpi.engine import SpmdPool
from repro.service import (
    AdmissionController,
    Job,
    JobQueue,
    JobSpec,
    JobValidationError,
    ServiceClient,
    ServiceState,
    SortService,
    comparable,
    estimate_job_bytes,
    job_envelope,
    sort_doc,
)


def direct_doc(spec: JobSpec) -> dict:
    """The sort/v4 doc a plain ``run_sort`` of this spec produces."""
    r = spec.run()
    return comparable(sort_doc(r, machine=spec.machine, seed=spec.seed,
                               fault_seed=spec.fault_seed,
                               explain=spec.explain))


def service_doc(envelope: dict) -> dict:
    assert envelope["status"] == "done", \
        f"job {envelope['job_id']}: {envelope['status']} ({envelope['error']})"
    return comparable(envelope["result"])


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = JobSpec(algorithm="sds-stable", workload="zipf",
                       workload_opts={"alpha": 1.1}, p=8, n_per_rank=300,
                       backend="flat", seed=7, faults=None, trace=True)
        again = JobSpec.from_dict(spec.as_dict())
        assert again == spec

    def test_faults_accept_preset_name(self):
        spec = JobSpec.from_dict({"faults": "straggler", "p": 8,
                                  "n_per_rank": 200})
        assert spec.faults is not None and not spec.faults.empty

    @pytest.mark.parametrize("bad", [
        {"algorithm": "quicksort3"},
        {"backend": "gpu"},
        {"p": 0},
        {"n_per_rank": -1},
        {"machine": "frontier"},
        {"workload": "lognormal"},
        {"workload": "zipf", "workload_opts": {"beta": 2}},
        {"mystery_knob": 1},
        {"backend": "hybrid", "trace": True},
        {"backend": "hybrid", "faults": "straggler"},
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(JobValidationError):
            JobSpec.from_dict(bad)

    @pytest.mark.parametrize("bad, words", [
        ({"algorithm": "bitonic", "p": 12, "n_per_rank": 100},
         "power-of-two p"),
        ({"algorithm": "psrs", "p": 4, "n_per_rank": 0}, "empty shards"),
    ])
    def test_engine_rejected_shapes_fail_validation(self, bad, words):
        with pytest.raises(JobValidationError, match=words):
            JobSpec(**bad).validate()
        assert not JobSpec(**bad).run().ok  # what admission now spares

    @pytest.mark.parametrize("ok", [
        {"algorithm": "psrs", "p": 1, "n_per_rank": 0},
        {"algorithm": "sds", "p": 8, "n_per_rank": 0},
        {"algorithm": "bitonic", "p": 16, "n_per_rank": 0},
    ])
    def test_engine_accepted_edge_shapes_stay_admitted(self, ok):
        spec = JobSpec(**ok).validate()
        assert spec.run().ok

    def test_run_is_the_direct_path(self):
        spec = JobSpec(p=8, n_per_rank=300, seed=4)
        r = spec.run()
        assert r.ok and r.p == 8


class TestAdmission:
    def test_estimate_is_deterministic_and_positive(self):
        spec = JobSpec(p=16, n_per_rank=2000)
        est = estimate_job_bytes(spec)
        assert est > 0
        assert est == estimate_job_bytes(spec)

    def test_estimate_scales_with_p(self):
        small = estimate_job_bytes(JobSpec(p=4, n_per_rank=1000))
        large = estimate_job_bytes(JobSpec(p=64, n_per_rank=1000))
        assert large > small

    def test_over_budget_is_typed_backpressure(self):
        ctrl = AdmissionController(mem_budget_bytes=1)
        d = ctrl.admit(JobSpec(p=8, n_per_rank=1000), queue_depth=0)
        assert not d.admitted and d.code == "over-budget"
        assert "budget" in d.reason
        assert d.estimated_bytes > d.budget_bytes

    def test_queue_full_is_typed(self):
        ctrl = AdmissionController(max_queue_depth=2)
        d = ctrl.admit(JobSpec(p=4, n_per_rank=100), queue_depth=2)
        assert not d.admitted and d.code == "queue-full"

    def test_commit_and_release_balance(self):
        ctrl = AdmissionController()
        spec = JobSpec(p=8, n_per_rank=500)
        d1 = ctrl.admit(spec, queue_depth=0)
        d2 = ctrl.admit(spec, queue_depth=1)
        assert d1.admitted and d2.admitted
        assert ctrl.committed_bytes == \
            d1.estimated_bytes + d2.estimated_bytes
        ctrl.release(d1)
        ctrl.release(d2)
        assert ctrl.committed_bytes == 0

    def test_budget_frees_as_jobs_release(self):
        spec = JobSpec(p=8, n_per_rank=500)
        est = estimate_job_bytes(spec)
        ctrl = AdmissionController(mem_budget_bytes=est + est // 2)
        d1 = ctrl.admit(spec, queue_depth=0)
        d2 = ctrl.admit(spec, queue_depth=1)
        assert d1.admitted and not d2.admitted
        ctrl.release(d1)
        d3 = ctrl.admit(spec, queue_depth=0)
        assert d3.admitted


class TestJobQueue:
    def _job(self, seq, priority="batch"):
        return Job(id=f"j-{seq}", spec=JobSpec(), priority=priority, seq=seq)

    def test_priority_classes_beat_fifo(self):
        q = JobQueue()
        q.push(self._job(1, "bulk"))
        q.push(self._job(2, "batch"))
        q.push(self._job(3, "interactive"))
        q.push(self._job(4, "interactive"))
        order = [q.pop(timeout=0.1).seq for _ in range(4)]
        assert order == [3, 4, 2, 1]

    def test_pop_skips_cancelled(self):
        q = JobQueue()
        a, b = self._job(1), self._job(2)
        q.push(a)
        q.push(b)
        a.finish("cancelled")
        assert q.pop(timeout=0.1) is b
        assert q.depth() == 0

    def test_pop_times_out_empty(self):
        assert JobQueue().pop(timeout=0.01) is None


class TestSpmdPoolLeases:
    def test_lease_release_refcount(self):
        pool = SpmdPool()
        assert pool.leases == 0
        assert pool.lease() is pool
        pool.lease()
        assert pool.leases == 2
        pool.release()
        pool.release()
        assert pool.leases == 0
        pool.shutdown()

    def test_shutdown_refuses_leased_pool(self):
        pool = SpmdPool()
        pool.lease()
        with pytest.raises(RuntimeError, match="outstanding lease"):
            pool.shutdown()
        pool.release()
        pool.shutdown()

    def test_lease_after_shutdown_refused(self):
        pool = SpmdPool()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.lease()

    def test_unmatched_release_refused(self):
        with pytest.raises(RuntimeError):
            SpmdPool().release()

    def test_concurrent_lease_hygiene(self):
        """Many threads lease/run/release one pool without losing counts."""
        pool = SpmdPool()
        spec = JobSpec(p=8, n_per_rank=200)
        errors = []

        def worker(seed):
            try:
                for _ in range(3):
                    pool.lease()
                    try:
                        r = JobSpec(p=8, n_per_rank=200, seed=seed).run(
                            pool=pool)
                        assert r.ok
                    finally:
                        pool.release()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert pool.leases == 0
        pool.shutdown()
        del spec


class TestServiceLifecycle:
    def test_submit_run_result(self):
        with ServiceClient(workers=2) as c:
            env = c.run(JobSpec(p=8, n_per_rank=300, seed=2))
            assert env["status"] == "done"
            assert env["schema"] == "sdssort.job/v1"
            assert env["result"]["schema"] == "sdssort.sort/v4"
            assert env["result"]["timing"]["run_ms"] > 0
            assert env["timing"]["total_ms"] >= env["timing"]["run_ms"]
            assert env["admission"]["code"] == "admitted"

    def test_invalid_spec_rejected_typed(self):
        with ServiceClient() as c:
            env = c.submit({"algorithm": "nope"})
            assert env["status"] == "rejected"
            assert env["admission"]["code"] == "invalid"
            assert "nope" in env["error"]

    @pytest.mark.parametrize("bad", [
        {"algorithm": "bitonic", "p": 12, "n_per_rank": 100},
        {"algorithm": "psrs", "p": 4, "n_per_rank": 0},
    ])
    def test_engine_rejected_shape_is_invalid_not_failed(self, bad):
        with ServiceClient() as c:
            env = c.submit(bad)
            assert env["status"] == "rejected"
            assert env["admission"]["code"] == "invalid"
            assert bad["algorithm"] in env["error"]

    def test_over_budget_rejected_typed(self):
        with ServiceClient(mem_budget_bytes=1000) as c:
            env = c.submit(JobSpec(p=32, n_per_rank=50_000))
            assert env["status"] == "rejected"
            assert env["admission"]["code"] == "over-budget"

    def test_queue_full_rejected_typed(self):
        svc = SortService(workers=1, max_queue_depth=1)
        try:
            first = svc.submit(JobSpec(p=16, n_per_rank=50_000))
            # fill the single queue slot while the first job runs
            deadline = time.monotonic() + 5
            filler = None
            while time.monotonic() < deadline:
                j = svc.submit(JobSpec(p=4, n_per_rank=100))
                if j.status == "queued":
                    filler = j
                    break
                time.sleep(0.005)
            assert filler is not None
            over = svc.submit(JobSpec(p=4, n_per_rank=100))
            assert over.status == "rejected"
            assert over.admission.code == "queue-full"
            assert first is not None
        finally:
            svc.close()

    def test_failed_job_reports_engine_failure(self):
        with ServiceClient() as c:
            # this shape OOMs inside the simulation (rank-0 gather)
            env = c.run(JobSpec(algorithm="hyksort", workload="zipf",
                                workload_opts={"alpha": 2.1},
                                p=16, n_per_rank=800))
            assert env["status"] == "failed"
            assert env["result"]["ok"] is False
            assert env["result"]["oom"] is True

    def test_timeout_cancels_running_job(self):
        with ServiceClient(workers=1) as c:
            env = c.run(JobSpec(p=16, n_per_rank=50_000), timeout_s=0.03)
            assert env["status"] == "timeout"
            assert "RunCancelled" in (env["error"] or "")
            # the service stays healthy afterwards
            ok = c.run(JobSpec(p=4, n_per_rank=200))
            assert ok["status"] == "done"

    def test_cancel_queued_job(self):
        with ServiceClient(workers=1) as c:
            slow = c.submit(JobSpec(p=16, n_per_rank=50_000))
            queued = c.submit(JobSpec(p=4, n_per_rank=100))
            c.cancel(queued["job_id"])
            assert c.result(queued["job_id"])["status"] == "cancelled"
            assert c.result(slow["job_id"])["status"] == "done"

    def test_interactive_overtakes_bulk(self):
        svc = SortService(workers=1)
        try:
            svc.submit(JobSpec(p=16, n_per_rank=50_000))  # occupies worker
            bulk = svc.submit(JobSpec(p=4, n_per_rank=100, seed=1),
                              priority="bulk")
            inter = svc.submit(JobSpec(p=4, n_per_rank=100, seed=2),
                               priority="interactive")
            svc.wait(bulk.id)
            svc.wait(inter.id)
            assert inter.started_at < bulk.started_at
        finally:
            svc.close()

    def test_drain_state_machine(self):
        svc = SortService(workers=2)
        jobs = [svc.submit(JobSpec(p=8, n_per_rank=300, seed=s))
                for s in range(4)]
        assert svc.state is ServiceState.ACCEPTING
        assert svc.drain(timeout=30)
        assert svc.state is ServiceState.STOPPED
        for j in jobs:
            assert j.status == "done"
        late = svc.submit(JobSpec(p=4, n_per_rank=100))
        assert late.status == "rejected"
        assert late.admission.code == "draining"
        svc.close()

    def test_stats_shape(self):
        with ServiceClient() as c:
            c.run(JobSpec(p=8, n_per_rank=200, backend="thread"))
            st = c.stats()
            assert st["state"] == "accepting"
            assert st["counts"]["done"] == 1
            assert st["admission"]["committed_bytes"] == 0
            assert st["pools"]["misses"] >= 1


class TestWarmPools:
    def test_warm_rerun_hits_cache_and_matches(self):
        spec = JobSpec(p=8, n_per_rank=400, seed=5, backend="thread")
        with ServiceClient(workers=1) as c:
            first = c.run(spec)
            second = c.run(spec)
            assert c.stats()["pools"]["hits"] >= 1
            assert service_doc(first) == service_doc(second)

    def test_pool_reuse_does_not_leak_state(self):
        """A job replayed after 20 other jobs on the same pools is
        bit-identical to its first run and to the direct path."""
        probe = JobSpec(p=8, n_per_rank=400, seed=9)
        with ServiceClient(workers=2) as c:
            first = service_doc(c.run(probe))
            for s in range(20):
                alg = "sds-stable" if s % 3 else "sds"
                env = c.run(JobSpec(algorithm=alg, p=8,
                                    n_per_rank=100 + 17 * s, seed=s))
                assert env["status"] == "done"
            again = service_doc(c.run(probe))
        assert first == again == direct_doc(probe)

    def test_cold_service_matches_warm(self):
        spec = JobSpec(p=8, n_per_rank=300, seed=3)
        with ServiceClient(warm_pools=False) as cold, \
                ServiceClient() as warm:
            assert service_doc(cold.run(spec)) == \
                service_doc(warm.run(spec)) == direct_doc(spec)


def acceptance_stream() -> list[JobSpec]:
    """50 mixed jobs: 3 algorithms x 2 backends x 2 workloads x 4
    seeds, plus one traced and one chaos job."""
    stream = []
    for algorithm in ("sds", "sds-stable", "psrs"):
        for backend in ("thread", "flat"):
            for workload, opts in (("uniform", {}),
                                   ("zipf", {"alpha": 1.1})):
                for seed in range(4):
                    stream.append(JobSpec(
                        algorithm=algorithm, workload=workload,
                        workload_opts=opts, p=8,
                        n_per_rank=150 + 25 * seed, backend=backend,
                        seed=seed))
    stream.append(JobSpec(p=8, n_per_rank=300, seed=1, trace=True))
    stream.append(JobSpec.from_dict({"p": 8, "n_per_rank": 250,
                                     "faults": "mixed", "fault_seed": 3}))
    assert len(stream) == 50
    return stream


class TestAcceptanceRoundTrip:
    """ISSUE 9 acceptance: >= 50 mixed jobs through the in-process
    client, bit-identical to direct ``run_sort`` runs."""

    @pytest.fixture(scope="class")
    def direct(self):
        return [direct_doc(spec) for spec in acceptance_stream()]

    def test_serial_service_matches_direct(self, direct):
        stream = acceptance_stream()
        with ServiceClient(workers=1) as c:
            got = [service_doc(c.run(spec)) for spec in stream]
        assert got == direct

    def test_concurrent_service_matches_direct(self, direct):
        stream = acceptance_stream()
        with ServiceClient(workers=4) as c:
            envs = [c.submit(spec) for spec in stream]
            got = [service_doc(c.result(e["job_id"])) for e in envs]
        assert got == direct

    def test_interleaved_submitters_match_direct(self, direct):
        """Four threads submitting slices concurrently — arrival order
        is nondeterministic, results must not be."""
        stream = acceptance_stream()
        results: dict[int, dict] = {}
        errors = []

        with ServiceClient(workers=4) as c:
            def submitter(offset):
                try:
                    for i in range(offset, len(stream), 4):
                        results[i] = service_doc(c.run(stream[i]))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=submitter, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert [results[i] for i in range(len(stream))] == direct

    def test_acceptance_stream_is_mixed(self):
        stream = acceptance_stream()
        assert len(stream) >= 50
        assert {s.algorithm for s in stream} >= {"sds", "sds-stable", "psrs"}
        assert {s.backend for s in stream} >= {"thread", "flat"}
        assert any(s.trace for s in stream)
        assert any(s.faults is not None and not s.faults.empty
                   for s in stream)


class TestEnvelope:
    def test_envelope_shape(self):
        with ServiceClient() as c:
            env = c.run(JobSpec(p=8, n_per_rank=200))
        for key in ("schema", "job_id", "status", "priority", "algorithm",
                    "workload", "p", "n_per_rank", "backend", "admission",
                    "timing", "error", "result"):
            assert key in env, key
        assert env["job_id"].startswith("j-")

    def test_comparable_strips_volatile_fields(self):
        spec = JobSpec(p=8, n_per_rank=200)
        doc = sort_doc(spec.run(), machine=spec.machine, seed=spec.seed,
                       queue_ms=12.5, run_ms=99.0)
        stripped = comparable(doc)
        assert "timing" not in stripped
        assert "pool_threads" not in stripped["engine"]
        assert doc["timing"] == {"queue_ms": 12.5, "run_ms": 99.0}

    def test_job_envelope_without_result(self):
        with ServiceClient() as c:
            env = c.submit(JobSpec(p=8, n_per_rank=200))
            assert env["result"] is None
            job = c.service.wait(env["job_id"])
            assert job_envelope(job, include_result=False)["result"] is None
            assert job_envelope(job)["result"] is not None
