"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import os
import types

import pytest

import run
import service
from batch import SortConfig, run_one
from spans import SpanRecorder, layer_totals, load_spans, self_times
from stats import digest, percentile, summary

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def two_site_modules():
    """``home`` defines a kernel and a caller; ``user`` imports both."""
    home = types.ModuleType("home")
    exec("def kernel(x):\n    return x + 1\n\n"
         "def composite(x):\n    return kernel(x) + kernel(x)\n",
         home.__dict__)
    user = types.ModuleType("user")
    user.kernel = home.kernel          # from home import kernel
    user.composite = home.composite    # from home import composite
    return home, user


# -- spans -----------------------------------------------------------------

def test_self_time_excludes_nested_children():
    rec = SpanRecorder(clock=ticking_clock())
    with rec.span("outer"):            # 0 .. 7
        with rec.span("inner"):        # 1 .. 2
            pass
        with rec.span("inner"):        # 3 .. 6
            with rec.span("leaf"):     # 4 .. 5
                pass
    # finished spans are listed as they close
    own = [(s.name, s.start, t) for s, t in self_times(rec.spans)]
    assert own == [("inner", 1.0, 1.0), ("leaf", 4.0, 1.0),
                   ("inner", 3.0, 2.0), ("outer", 0.0, 3.0)]
    inner1, leaf, inner2, outer = rec.spans
    assert sum(t for *_, t in own) == outer.duration
    assert (outer.parent, inner1.parent, inner2.parent, leaf.parent) \
        == (-1, outer.id, outer.id, inner2.id)


def test_wrappers_at_two_import_sites_share_one_layer():
    home, user = two_site_modules()
    original = home.kernel
    rec = SpanRecorder(clock=ticking_clock())
    assert rec.wrap(home, "kernel", "k")
    assert rec.wrap(user, "kernel", "k")
    assert rec.wrap(home, "composite", "c")
    assert rec.wrap(home, "kernel", "k")      # twice: a no-op
    assert not rec.wrap(user, "missing", "k")

    # composite looks kernel up in home's namespace: nested spans
    assert home.composite(1) == 4              # c 0..5, k 1..2, k 3..4
    assert user.kernel(1) == 2                 # k 6..7 via the other site
    assert user.composite(1) == 4              # unwrapped site: k 8..9, 10..11
    totals = layer_totals(rec.spans)
    assert totals["c"] == {"self_s": 3.0, "calls": 1}
    assert totals["k"] == {"self_s": 5.0, "calls": 5}
    # self times partition the wall the outermost spans cover, once
    roots = [s for s in rec.spans if s.parent < 0]
    assert sum(t["self_s"] for t in totals.values()) \
        == sum(s.duration for s in roots) == 8.0

    rec.uninstall()
    assert home.kernel is original and user.kernel is original
    assert home.composite(1) == 4
    assert len(rec.spans) == 6


def test_wrapping_a_class_method_keeps_binding(tmp_path):
    class Box:
        def __init__(self, v):
            self.v = v

        def get(self):
            return self.v

    rec = SpanRecorder(clock=ticking_clock())
    assert rec.wrap(Box, "get", "box.get")
    rec.trace = "job-1"
    assert Box(7).get() == 7
    path = str(tmp_path / "spans.json")
    rec.dump(path, sites_missing=["x.y"])
    spans, meta = load_spans(path)
    assert [(s.name, s.duration, s.trace) for s in spans] == [
        ("box.get", 1.0, "job-1")]
    assert meta == {"sites_missing": ["x.y"]}
    rec.uninstall()
    assert "get" in vars(Box) and Box(3).get() == 3


# -- percentiles -----------------------------------------------------------

def test_percentile_nearest_rank_edges():
    assert percentile([5.0], 50) == 5.0
    assert percentile([5.0], 100) == 5.0
    assert percentile([3, 1, 2], 1) == 1
    assert percentile([4, 1, 3, 2], 50) == 2      # even n: lower middle
    assert percentile(list(range(1, 11)), 90) == 9
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile([2, 2, 2], 90) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summary_states_the_sample_count():
    s = summary([1.0, 2.0, 3.0, 10.0])
    assert s == {"n": 4, "mean": 4.0, "p50": 2.0, "p90": 10.0}


# -- open-loop schedule ----------------------------------------------------

def test_schedule_due_times_and_exact_shares():
    jobs = service.schedule(75, 3.0, seed=9)
    assert [j.index for j in jobs] == list(range(75))
    assert [j.due_s for j in jobs] == [k / 3.0 for k in range(75)]
    shares = [c.share for c in service.MIX]
    for start in range(0, 60, service.BLOCK):
        block = jobs[start:start + service.BLOCK]
        assert [sum(j.cls is c for j in block) for c in service.MIX] \
            == service.exact_counts(service.BLOCK, shares) == [10, 4, 3, 3]
    tail = jobs[60:]
    assert [sum(j.cls is c for j in tail) for c in service.MIX] \
        == service.exact_counts(15, shares) == [8, 3, 2, 2]
    assert len({j.seed for j in jobs}) == 75


def test_schedule_depends_only_on_seed():
    def key(jobs):
        return [(j.due_s, j.cls.label, j.seed) for j in jobs]
    assert key(service.schedule(40, 3.0, 5)) == key(service.schedule(40, 3.0, 5))
    assert key(service.schedule(40, 3.0, 5)) != key(service.schedule(40, 3.0, 6))


def test_exact_counts_always_sums_to_n():
    for n in range(0, 60):
        counts = service.exact_counts(n, [0.5, 0.2, 0.15, 0.15])
        assert sum(counts) == n and min(counts) >= 0


def test_interleave_spreads_every_class():
    order = service.interleave([10, 4, 3, 3])
    assert sorted(order) == [0] * 10 + [1] * 4 + [2] * 3 + [3] * 3
    for cls in (2, 3):
        slots = [i for i, c in enumerate(order) if c == cls]
        assert min(b - a for a, b in zip(slots, slots[1:])) >= 5


# -- virtual digest --------------------------------------------------------

def test_virtual_digest_repeats_for_one_seed():
    configs = [SortConfig("sds-uniform", "sds", "uniform", 16, 300),
               SortConfig("stable-ptf", "sds-stable", "ptf", 16, 300,
                          algo_opts={"node_merge_enabled": False})]

    def run_digest(seed):
        records = [run_one(cfg, seed) for cfg in configs]
        assert all(r.ok for r in records), [r.error for r in records]
        return digest([r.virtual for r in records]), records

    first, records = run_digest(3)
    again, _ = run_digest(3)
    other, _ = run_digest(4)
    assert first == again != other
    assert records[1].counters["decision_path"].endswith(
        "partition=stable/exchange=sync/local_ordering=merge")


# -- the benchmark's declared metrics --------------------------------------

def test_metric_sets_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_complete_zero_fills_only_bypassed_layers():
    traced = run.complete({"metrics": {
        "runner.self_s": {"value": 0.5, "unit": "s"}}}, trace=True)
    assert list(traced["metrics"]) == list(run.PER_LAYER)
    assert traced["metrics"]["service.doc_s"]["value"] == 0
    with pytest.raises(RuntimeError):
        run.complete({"metrics": {"setup_s": {"value": 1.0, "unit": "s"}}},
                     trace=False)
