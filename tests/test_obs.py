"""Tests for ``repro.obs``: spans, metrics, sinks, and the guarantees
instrumentation must keep.

The load-bearing properties:

* span nesting/timing/tags behave (parents contain children, ids link
  up, errors tag the span on the way out);
* the JSONL sink stays parseable under SIGKILL (whole-line atomic
  appends; at most one torn trailing line per killed writer);
* histogram buckets sit exactly on the documented log2 edges, so
  registries merged across processes always align;
* metrics merged from a sharded multi-process run equal a
  single-process run of the same sweep (the merge-equivalence
  property that makes cross-process aggregation trustworthy);
* a disarmed tracer costs nothing observable: no sink, no counters,
  and byte-identical simulation results (the parity half also lives in
  ``tests/test_parity.py``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import obs
from repro.config import tiny_scale
from repro.exp import (
    ResultCache,
    RunSpec,
    Runner,
    ShardSpec,
    merge_caches,
    run_shard,
    shard_root,
)
from repro.obs import (
    NUM_BUCKETS,
    Histogram,
    MetricsRegistry,
    Tracer,
    bucket_bounds,
    bucket_index,
)
from repro.obs.report import format_tree, load_trace, summarize
from repro.sched.strex import StrexScheduler
from repro.sim.api import simulate
from repro.workloads import WORKLOADS

FORK = multiprocessing.get_start_method() == "fork"
needs_fork = pytest.mark.skipif(
    not FORK, reason="kill-injection needs the fork start method")


def tiny_specs(n_schedulers=2) -> list:
    schedulers = ("base", "strex", "slicc", "hybrid")[:n_schedulers]
    return [
        RunSpec(workload="tpcc", scheduler=s, cores=2, transactions=3,
                seed=7, scale="tiny")
        for s in schedulers
    ]


# ---------------------------------------------------------------------
# Span properties
# ---------------------------------------------------------------------

class TestSpans:
    def test_nesting_links_parent_and_child(self):
        tracer = Tracer()
        with tracer.span("outer", kind="sweep") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.children == [inner]
        assert outer.span_id != inner.span_id
        assert outer.span_id.startswith(f"{os.getpid()}-")

    def test_timing_is_monotonic_and_contains_children(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.005)
        assert inner.dur_s > 0
        assert outer.dur_s >= inner.dur_s
        assert outer.start_s <= inner.start_s

    def test_tags_and_counters(self):
        tracer = Tracer()
        with tracer.span("s", a=1, dropped=None) as span:
            span.tag(b="x", also_dropped=None)
            span.add("hits")
            span.add("hits", 2)
        assert span.tags == {"a": 1, "b": "x"}
        assert span.counters == {"hits": 3}

    def test_exception_tags_error_and_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("failing"):
                    raise ValueError("boom")
        names = [s.name for s in tracer.ring]
        assert names == ["failing", "outer"]
        failing = tracer.ring[0]
        assert failing.tags["error"] == "ValueError"
        # Both spans closed: the stack is clean for the next root.
        assert tracer.current() is None

    def test_tracer_add_hits_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.add("n")
            with tracer.span("inner") as inner:
                tracer.add("n", 4)
        assert outer.counters == {"n": 1}
        assert inner.counters == {"n": 4}
        tracer.add("n")  # no open span: silently dropped

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(ring_capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.ring] == ["s2", "s3", "s4"]


# ---------------------------------------------------------------------
# The JSONL sink
# ---------------------------------------------------------------------

class TestSink:
    def test_spans_and_metrics_round_trip(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=sink)
        with tracer.span("outer", label="x") as outer:
            outer.add("k", 2)
            with tracer.span("inner"):
                pass
        tracer.metrics.inc("c", 3)
        tracer.metrics.observe("h", 10)
        tracer.flush_metrics()
        data = load_trace(sink)
        assert data.torn == 0
        # Children are written before parents (written at close).
        assert [s.name for s in data.spans] == ["inner", "outer"]
        outer_rec = data.spans[1]
        assert outer_rec.counters == {"k": 2}
        assert outer_rec.tags == {"label": "x"}
        assert data.spans[0].parent_id == outer_rec.span_id
        assert data.metrics.counters == {"c": 3}
        assert data.metrics.histograms["h"].count == 1

    def test_flush_writes_deltas_not_snapshots(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=sink)
        tracer.metrics.inc("c", 2)
        tracer.flush_metrics()
        tracer.metrics.inc("c", 5)
        tracer.flush_metrics()
        tracer.flush_metrics()  # nothing new: no third record
        lines = sink.read_text().strip().splitlines()
        deltas = [json.loads(line)["counters"]["c"] for line in lines]
        assert deltas == [2, 5]
        # Summing every record reproduces the cumulative value.
        assert load_trace(sink).metrics.counters == {"c": 7}

    def test_reader_skips_torn_trailing_line(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=sink)
        for i in range(3):
            with tracer.span(f"s{i}", payload="x" * 64):
                pass
        blob = sink.read_bytes()
        sink.write_bytes(blob[: len(blob) - 40])  # tear the last line
        data = load_trace(sink)
        assert data.torn == 1
        assert [s.name for s in data.spans] == ["s0", "s1"]

    def test_reader_skips_garbage_and_wrong_kind(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=sink)
        with tracer.span("good"):
            pass
        with open(sink, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"kind": "mystery"}\n')
            handle.write('{"kind": "span"}\n')  # span without an id
        data = load_trace(sink)
        assert [s.name for s in data.spans] == ["good"]
        assert data.torn == 3

    @needs_fork
    def test_sink_stays_parseable_after_sigkill(self, tmp_path):
        """A writer killed mid-stream tears at most its last line."""
        sink = tmp_path / "trace.jsonl"
        ready = tmp_path / "ready"

        def writer() -> None:
            tracer = Tracer(sink=sink)
            i = 0
            while True:
                with tracer.span(f"w{i}", pad="y" * 256) as span:
                    span.add("i", i)
                if i == 20:
                    ready.write_text("go")
                i += 1

        process = multiprocessing.get_context("fork").Process(
            target=writer)
        process.start()
        deadline = time.time() + 30
        while not ready.exists():
            time.sleep(0.005)
            assert time.time() < deadline, "writer never warmed up"
        os.kill(process.pid, signal.SIGKILL)
        process.join()

        # Another process appending afterwards must not be corrupted
        # by whatever the killed writer left behind...
        survivor = Tracer(sink=sink)
        with survivor.span("survivor"):
            pass
        # ...but the torn tail means the file may interleave a partial
        # line before the survivor's record; every *complete* line
        # parses and the reader recovers everything else.
        data = load_trace(sink)
        assert data.torn <= 1
        assert len(data.spans) >= 21
        assert data.spans[-1].name == "survivor"
        complete = [
            line
            for line in sink.read_bytes().split(b"\n")[:-1]
            if line.startswith(b"{") and line.endswith(b"}")
        ]
        for line in complete:
            json.loads(line)


# ---------------------------------------------------------------------
# Histogram bucket edges
# ---------------------------------------------------------------------

class TestHistogramBuckets:
    @pytest.mark.parametrize("value,bucket", [
        (-5, 0), (0, 0), (0.5, 0), (0.999, 0),
        (1, 1), (1.5, 1), (1.999, 1),
        (2, 2), (3, 2), (3.999, 2),
        (4, 3), (1024, 11), (1025, 11),
        (2 ** 40, 41),
        (2 ** 62, 63), (2 ** 80, 63), (float("inf"), 63),
        (float("nan"), 0),
    ])
    def test_bucket_edges(self, value, bucket):
        assert bucket_index(value) == bucket

    def test_bounds_invert_the_index(self):
        for idx in range(1, NUM_BUCKETS - 1):
            lo, hi = bucket_bounds(idx)
            assert bucket_index(lo) == idx
            assert bucket_index(hi - 1e-9 * hi) == idx
        assert bucket_bounds(0) == (0.0, 1.0)
        assert bucket_bounds(NUM_BUCKETS - 1)[1] == float("inf")

    def test_histogram_counts_and_merge(self):
        a, b = Histogram(), Histogram()
        for v in (0, 1, 2, 3):
            a.observe(v)
        for v in (3, 1024):
            b.observe(v)
        a.merge(b)
        assert a.count == 6
        assert a.total == 1033
        assert a.buckets == {0: 1, 1: 1, 2: 3, 11: 1}

    def test_registry_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        b.inc("only_b")
        a.set_gauge("g", 1.5)
        b.set_gauge("g", 0.5)
        a.observe("h", 2)
        b.observe("h", 2)
        a.merge(b)
        assert a.counters == {"c": 5, "only_b": 1}
        assert a.gauges == {"g": 1.5}  # max, order-independent
        assert a.histograms["h"].buckets == {2: 2}

    def test_registry_round_trips_through_dict(self):
        reg = MetricsRegistry()
        reg.inc("c", 7)
        reg.set_gauge("g", 2.25)
        reg.observe("h", 5)
        clone = MetricsRegistry.from_dict(
            json.loads(json.dumps(reg.to_dict())))
        assert clone.to_dict() == reg.to_dict()


# ---------------------------------------------------------------------
# Cross-process merge equivalence
# ---------------------------------------------------------------------

#: Counters that must be partition-invariant: each sweep cell is
#: simulated exactly once no matter how the sweep is split across
#: processes.  (Wall-time histograms are *not* in this set: timing
#: varies run to run even when the work is identical.)
DETERMINISTIC_COUNTERS = (
    "exp.cells.executed", "sim.runs", "sim.events", "sim.instructions",
)


class TestCrossProcessMergeEquivalence:
    def metrics_for(self, sink) -> dict:
        merged = load_trace(sink).metrics
        return {
            name: merged.counters.get(name, 0)
            for name in DETERMINISTIC_COUNTERS
        }

    @needs_fork
    def test_merged_shards_equal_single_process(self, tmp_path,
                                                monkeypatch):
        specs = tiny_specs(4)

        solo_sink = tmp_path / "solo.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(solo_sink))
        Runner(cache=ResultCache(tmp_path / "solo-cache")).run(specs)
        solo = self.metrics_for(solo_sink)

        shard_sink = tmp_path / "shards.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(shard_sink))
        shared = tmp_path / "shard-cache"
        roots = []
        for index in range(3):
            shard = ShardSpec(index, 3)
            roots.append(shard_root(shared, shard))
            run_shard(specs, shard, roots[-1], jobs=2)
        merge_caches(shared, roots)
        sharded = self.metrics_for(shard_sink)

        assert solo == sharded
        assert solo["exp.cells.executed"] == len(specs)
        assert solo["sim.runs"] == len(specs)
        assert solo["sim.events"] > 0


# ---------------------------------------------------------------------
# Disarmed overhead guard
# ---------------------------------------------------------------------

class TestDisarmed:
    @pytest.fixture(autouse=True)
    def no_trace_env(self, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)

    def test_no_tracer_and_null_span(self):
        assert obs.tracer() is None
        span = obs.span("anything", tag=1)
        assert span is obs.NULL_SPAN
        assert not span.armed
        with span as inner:
            inner.add("c")
            inner.tag(x=1)
        # Module-level helpers are all no-ops.
        obs.add("c")
        obs.metric_inc("m")
        obs.metric_observe("h", 1.0)
        obs.metric_gauge("g", 1.0)
        obs.flush()

    def test_instrumented_stack_leaves_no_state(self, tmp_path,
                                                monkeypatch):
        """Counters stay zero and nothing is written when disarmed."""
        monkeypatch.chdir(tmp_path)  # any stray sink would land here
        Runner(cache=ResultCache(tmp_path / "cache")).run(tiny_specs())
        assert obs.tracer() is None
        # Arm a fresh in-memory tracer afterwards: had the disarmed
        # run leaked state anywhere, it would show up here.
        with obs.use(Tracer()) as tracer:
            assert not tracer.metrics
            assert not tracer.ring
        leftovers = [
            p for p in tmp_path.iterdir() if p.suffix == ".jsonl"
        ]
        assert leftovers == []

    def test_disarmed_run_is_byte_identical_to_armed(self, tmp_path,
                                                     monkeypatch):
        config = tiny_scale(num_cores=2)
        suite = WORKLOADS["tpcc"](config.l1i_blocks, 7)
        traces = suite.generate_mix(4, seed=7)
        plain = simulate(config, traces, "strex", "tpcc")
        monkeypatch.setenv(
            obs.TRACE_ENV, str(tmp_path / "armed.jsonl"))
        armed = simulate(config, traces, "strex", "tpcc")
        assert plain.to_dict() == armed.to_dict()


# ---------------------------------------------------------------------
# Kernel-call counter
# ---------------------------------------------------------------------

class TestKernelCalls:
    def test_strex_makes_one_kernel_call_per_slice(self, monkeypatch):
        """The progress floor lives in the kernel: every STREX slice
        is exactly one ``run_events`` call, however many early switch
        requests it absorbs."""
        slices = []
        original = StrexScheduler.run_slice

        def counted(self, core):
            slices.append(core)
            original(self, core)

        monkeypatch.setattr(StrexScheduler, "run_slice", counted)
        config = tiny_scale(num_cores=2)
        suite = WORKLOADS["tpcc"](config.l1i_blocks, 7)
        traces = suite.generate_mix(6, seed=7)
        with obs.use(Tracer()) as tracer:
            simulate(config, traces, "strex", "tpcc")
        (run,) = [s for s in tracer.ring if s.name == "sim.run"]
        assert run.counters["kernel_calls"] == len(slices) > 0
        assert tracer.metrics.counters["sim.kernel_calls"] == len(slices)


# ---------------------------------------------------------------------
# Report plumbing over real runs
# ---------------------------------------------------------------------

class TestReport:
    def test_summary_reconciles_with_manifest(self, tmp_path,
                                              monkeypatch):
        """Span totals must agree with the manifest's own accounting:
        cells executed/hit per the trace == rows the manifest holds,
        and one sim.run span per executed simulation cell."""
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(sink))
        specs = tiny_specs()
        runner = Runner(cache=ResultCache(tmp_path / "cache"))
        runner.run(specs)
        runner.run(specs)  # warm rerun: all hits
        summary = summarize(load_trace(sink))
        rows = runner.manifest.read()
        hits = sum(1 for row in rows if row.hit)
        misses = sum(1 for row in rows if not row.hit)
        assert summary["sweep"]["misses"] == misses == len(specs)
        assert summary["sweep"]["hits"] == hits == len(specs)
        assert summary["spans"]["cell"]["count"] == misses
        assert summary["kernel"]["runs"] == misses
        assert summary["metrics"]["counters"]["exp.cells.executed"] \
            == misses
        assert summary["metrics"]["counters"]["exp.cells.hit"] == hits
        cells = {row["cell"] for row in summary["cells"]}
        assert cells == {spec.describe() for spec in specs}

    def test_tree_renders_each_process(self, tmp_path, monkeypatch):
        sink = tmp_path / "trace.jsonl"
        monkeypatch.setenv(obs.TRACE_ENV, str(sink))
        Runner(cache=ResultCache(tmp_path / "cache")).run(tiny_specs())
        text = format_tree(load_trace(sink))
        assert "sweep" in text
        assert "cell" in text
        assert "sim.run" in text
