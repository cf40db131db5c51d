"""Fast-path support machinery.

Covers the pieces the specialized kernel leans on but that parity runs
alone don't pin down: non-power-of-two set geometry, invalidation
against the flat O(1) layout, the trace-level memos, the runner's
workload-trace memo, manifest retention, and the perf microbenchmark.
"""

import json
import multiprocessing
import random
from array import array

import pytest

from repro.cache.cache import Cache, CacheStats
from repro.config import CacheConfig, tiny_scale
from repro.exp import runner as runner_mod
from repro.exp.manifest import Manifest, ManifestEntry
from repro.exp.spec import RunSpec
from repro.sched.base import BaselineScheduler
from repro.sim.engine import SimulationEngine
from repro.trace.trace import TransactionTrace
from repro.verify.reference import ReferenceCache
from repro.workloads import WORKLOADS

POLICIES = ("lru", "fifo", "random", "lip", "bip", "dip",
            "srrip", "brrip")


def _pair(size=768, assoc=4, replacement="lru"):
    """A (fast, reference) cache pair with identical geometry and RNG."""
    config = CacheConfig(size, assoc=assoc, replacement=replacement)
    fast = Cache(config, rng=random.Random(7))
    ref = ReferenceCache(config, rng=random.Random(7))
    return fast, ref


def _assert_same_state(fast: Cache, ref: ReferenceCache) -> None:
    assert set(fast.resident_blocks()) == set(ref.resident_blocks())
    assert fast.stats.snapshot() == ref.stats.snapshot()
    for block in fast.resident_blocks():
        assert fast.tag_of(block) == ref.tag_of(block)


class TestNonPowerOfTwoGeometry:
    """768 B / 4-way / 64 B blocks gives 3 sets — the modulo path."""

    def test_set_index_uses_modulo(self):
        fast, ref = _pair()
        assert fast.num_sets == 3
        assert not fast._power_of_two
        for block in (0, 1, 2, 3, 7, 100, 12345):
            assert fast.set_index(block) == block % 3
            assert fast.set_index(block) == ref.set_index(block)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_differential_stream(self, policy):
        fast, ref = _pair(replacement=policy)
        rng = random.Random(42)
        for _ in range(600):
            block = rng.randrange(24)
            assert fast.access(block) == ref.access(block)
        _assert_same_state(fast, ref)

    @pytest.mark.parametrize("policy", ("lru", "fifo", "dip"))
    def test_victim_callbacks_match(self, policy):
        fast_victims, ref_victims = [], []
        config = CacheConfig(768, assoc=4, replacement=policy)
        fast = Cache(config, rng=random.Random(7),
                     victim_callback=lambda b, t: fast_victims.append(b))
        ref = ReferenceCache(
            config, rng=random.Random(7),
            victim_callback=lambda b, t: ref_victims.append(b))
        rng = random.Random(9)
        for _ in range(400):
            block = rng.randrange(30)
            assert fast.access(block) == ref.access(block)
        assert fast_victims == ref_victims


class TestInvalidate:
    """Invalidation against the flat layout and age policies."""

    @pytest.mark.parametrize("policy", ("lru", "fifo", "srrip"))
    def test_invalidate_frees_way_before_eviction(self, policy):
        fast, _ = _pair(size=1024, assoc=4, replacement=policy)
        set0 = [block * fast.num_sets for block in range(4)]
        for block in set0:
            fast.access(block)
        assert fast.invalidate(set0[1])
        assert not fast.invalidate(set0[1])
        evictions_before = fast.stats.evictions
        fast.access(99 * fast.num_sets)  # fills the freed way
        assert fast.stats.evictions == evictions_before
        assert fast.contains(set0[0]) and fast.contains(set0[2])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_interleaved_invalidate_differential(self, policy):
        fast, ref = _pair(size=1024, assoc=4, replacement=policy)
        rng = random.Random(11)
        for step in range(500):
            block = rng.randrange(48)
            if step % 17 == 16:
                assert fast.invalidate(block) == ref.invalidate(block)
            else:
                assert fast.access(block) == ref.access(block)
        _assert_same_state(fast, ref)


def _trace():
    return TransactionTrace(
        txn_id=1, txn_type="payment",
        iblocks=[5, 6, 5, 9, 130],
        ilens=[4, 2, 7, 1, 3],
        dblocks=[-1, 12, -1, -1, 40],
        dwrites=[0, 1, 0, 0, 0],
    )


class TestTraceMemos:
    def test_unique_iblocks_memoized(self):
        trace = _trace()
        first = trace.unique_iblocks()
        assert first == frozenset({5, 6, 9, 130})
        assert trace.unique_iblocks() is first

    def test_footprint_units(self):
        assert _trace().footprint_units(8) == 4 / 8

    def test_packed_events_contents_and_memo(self):
        trace = _trace()
        packed = trace.packed_events(0.5, 4)
        assert packed == [
            (5, 2.0, 4, -1, 0, 1),
            (6, 1.0, 2, 12, 1, 2),
            (5, 3.5, 7, -1, 0, 1),
            (9, 0.5, 1, -1, 0, 1),
            (130, 1.5, 3, 40, 0, 2),
        ]
        assert trace.packed_events(0.5, 4) is packed
        # A different (cpi, num_sets) key builds a fresh list.
        assert trace.packed_events(1.0, 4) is not packed

    def test_set_indices_power_of_two_and_modulo(self):
        trace = _trace()
        assert trace.iblock_set_indices(4) == [1, 2, 1, 1, 2]
        assert trace.iblock_set_indices(3) == [2, 0, 2, 0, 1]
        assert trace.iblock_set_indices(3) \
            is trace.iblock_set_indices(3)

    def test_instruction_prefix(self):
        trace = _trace()
        prefix = trace.instruction_prefix()
        assert list(prefix) == [0, 4, 6, 13, 14, 17]
        assert prefix[-1] == trace.total_instructions
        assert trace.instruction_prefix() is prefix


class TestInternedViews:
    """The age loop's views store each distinct event once."""

    @staticmethod
    def _repeating_trace():
        return TransactionTrace(
            txn_id=2, txn_type="payment",
            iblocks=[5, 6, 5, 5, 6, 5],
            ilens=[4, 2, 4, 4, 2, 3],
            dblocks=[-1, 12, -1, -1, 12, -1],
            dwrites=[0, 1, 0, 0, 1, 0],
        )

    def test_equal_events_share_one_tuple(self):
        packed = self._repeating_trace().packed_events(0.5, 3)
        assert packed[0] is packed[2] is packed[3]
        assert packed[1] is packed[4]
        assert packed[5] is not packed[0]
        assert len({id(event) for event in packed}) == 3
        assert packed[0] == (5, 2.0, 4, -1, 0, 2)

    def test_packing_leaves_set_index_memo_empty(self):
        trace = self._repeating_trace()
        trace.packed_events(0.5, 4)
        trace.packed_events(0.5, 3)
        assert trace._set_indices == {}

    def test_prefix_is_int64_array_of_builtin_ints(self):
        prefix = self._repeating_trace().instruction_prefix()
        assert isinstance(prefix, array)
        assert prefix.typecode == "q"
        assert all(type(value) is int for value in prefix)
        assert json.loads(json.dumps(prefix[-1] - prefix[1])) == 15


class TestPackedEventsOnlyForAgeEngines:
    """Only the age loop reads packed events.

    A fast-kernel engine on a non-age L1 policy without a prefetcher
    runs the general loop, which reads the trace's columns directly;
    it must never build the packed per-event tuples, which would only
    cost memory.
    """

    @pytest.mark.parametrize("policy, age", [
        ("bip", False), ("srrip", False), ("lru", True)])
    def test_packed_memo_filled_only_by_age_runs(self, policy, age):
        config = tiny_scale().with_l1_replacement(policy)
        suite = WORKLOADS["tpcc"](config.l1i_blocks, 1013)
        traces = suite.generate_mix(4, seed=1013)
        assert not any(trace._packed_events for trace in traces)
        engine = SimulationEngine(config, traces, BaselineScheduler)
        assert not engine.reference and not engine.prefetcher_active
        assert engine._age_kernel == age
        engine.run("tpcc")
        assert all(bool(trace._packed_events) == age
                   for trace in traces)


class TestRunnerTraceMemo:
    def test_repeat_spec_reuses_traces(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_TRACE_MEMO",
                            runner_mod._TRACE_MEMO.__class__())
        spec = RunSpec(workload="tpcc", transactions=2, scale="tiny",
                       cores=2)
        name1, traces1 = runner_mod._workload_traces(spec, 32)
        name2, traces2 = runner_mod._workload_traces(spec, 32)
        assert name1 == name2
        assert traces1 is traces2
        assert len(runner_mod._TRACE_MEMO) == 1

    def test_different_seed_is_a_different_entry(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_TRACE_MEMO",
                            runner_mod._TRACE_MEMO.__class__())
        base = RunSpec(workload="tpcc", transactions=2, scale="tiny",
                       cores=2)
        other = RunSpec(workload="tpcc", transactions=2, scale="tiny",
                        cores=2, seed=2026)
        _, traces1 = runner_mod._workload_traces(base, 32)
        _, traces2 = runner_mod._workload_traces(other, 32)
        assert traces1 is not traces2
        assert len(runner_mod._TRACE_MEMO) == 2

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_TRACE_MEMO",
                            runner_mod._TRACE_MEMO.__class__())
        monkeypatch.setattr(runner_mod, "_TRACE_MEMO_MAX", 3)
        for seed in range(5):
            spec = RunSpec(workload="tpcc", transactions=2,
                           scale="tiny", cores=2, seed=seed)
            runner_mod._workload_traces(spec, 32)
        assert len(runner_mod._TRACE_MEMO) == 3


def _row(key, ts, sweep):
    return ManifestEntry(key=key, spec={"workload": "tpcc"},
                         hit=False, wall_s=0.1, ts=ts, sweep=sweep)


class TestManifestRetention:
    def test_compact_keeps_last_sweeps(self, tmp_path):
        manifest = Manifest(tmp_path / "manifest.jsonl")
        for i in range(2):
            manifest.record(_row(f"a{i}", 100.0 + i, "sweep-a"))
        for i in range(3):
            manifest.record(_row(f"b{i}", 200.0 + i, "sweep-b"))
        manifest.record(_row("c0", 300.0, "sweep-c"))
        kept, dropped = manifest.compact(keep_last=2)
        assert (kept, dropped) == (4, 2)
        sweeps = {e.sweep for e in manifest.read()}
        assert sweeps == {"sweep-b", "sweep-c"}

    def test_legacy_rows_sort_oldest(self, tmp_path):
        manifest = Manifest(tmp_path / "manifest.jsonl")
        manifest.record(ManifestEntry(key="old", spec={}, hit=True,
                                      wall_s=0.0))
        manifest.record(_row("new", 500.0, "sweep-x"))
        kept, dropped = manifest.compact(keep_last=1)
        assert (kept, dropped) == (1, 1)
        assert manifest.read()[0].key == "new"

    def test_compact_rejects_nonpositive(self, tmp_path):
        manifest = Manifest(tmp_path / "manifest.jsonl")
        with pytest.raises(ValueError):
            manifest.compact(0)

    def test_compact_empty_manifest(self, tmp_path):
        manifest = Manifest(tmp_path / "missing.jsonl")
        assert manifest.compact(keep_last=3) == (0, 0)

    def test_since_filter_via_cli(self, tmp_path):
        import json as json_mod

        from repro.__main__ import run_manifest

        path = tmp_path / "manifest.jsonl"
        manifest = Manifest(path)
        manifest.record(ManifestEntry(key="untimed", spec={}, hit=True,
                                      wall_s=0.0))
        manifest.record(_row("early", 1.0, "sweep-a"))
        # 2026-08-01T00:00:00 UTC is far past ts=1.0.
        out, _ = run_manifest(["--path", str(path), "--json",
                               "--since", "2026-08-01T00:00:00"])
        assert json_mod.loads(out)["runs"] == 0
        out, _ = run_manifest(["--path", str(path), "--json",
                               "--since", "1970-01-01T00:00:00"])
        assert json_mod.loads(out)["runs"] == 1

    def test_since_rejects_garbage(self, tmp_path):
        from repro.__main__ import run_manifest

        with pytest.raises(ValueError, match="ISO timestamp"):
            run_manifest(["--path", str(tmp_path / "m.jsonl"),
                          "--since", "yesterday"])

    def test_keep_last_via_cli(self, tmp_path):
        from repro.__main__ import run_manifest

        path = tmp_path / "manifest.jsonl"
        manifest = Manifest(path)
        manifest.record(_row("a", 1.0, "sweep-a"))
        manifest.record(_row("b", 2.0, "sweep-b"))
        out, _ = run_manifest(["--path", str(path),
                               "--keep-last", "1"])
        assert "kept 1 row(s)" in out
        assert [e.key for e in manifest.read()] == ["b"]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="needs the fork start method")
    def test_compact_under_concurrent_writers(self, tmp_path):
        """``compact()`` racing live appenders must never corrupt the
        file.  Rows appended inside the read -> tmp -> replace window
        can be dropped (the rewrite is lossy towards concurrent
        appends, by design), so the contract here is integrity, not
        no-loss: every surviving line parses as a complete row, and
        retention still holds over whatever survived."""
        path = tmp_path / "manifest.jsonl"
        manifest = Manifest(path)
        manifest.record(_row("seed", 1.0, "sweep-seed"))

        def writer(idx: int) -> None:
            own = Manifest(path)
            for i in range(40):
                own.record(_row(f"w{idx}-{i}",
                                1000.0 * (idx + 1) + i,
                                f"sweep-w{idx}"))

        ctx = multiprocessing.get_context("fork")
        writers = [ctx.Process(target=writer, args=(idx,))
                   for idx in range(3)]
        for proc in writers:
            proc.start()
        compactions = 0
        while any(proc.is_alive() for proc in writers) \
                or compactions < 3:
            manifest.compact(keep_last=10)
            compactions += 1
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0

        lines = [ln for ln in path.read_text().splitlines() if ln]
        assert lines  # keep_last=10 > 4 groups: nothing fully dropped
        for line in lines:
            ManifestEntry.from_json(line)  # raises on a torn line

        survivors = {e.sweep for e in manifest.read()}
        manifest.compact(keep_last=1)
        final = {e.sweep for e in manifest.read()}
        assert len(final) == 1
        assert final <= survivors


class TestPerfBench:
    def test_run_bench_tiny(self, tmp_path):
        from repro.perf import run_bench, write_bench

        report = run_bench(scale="tiny", transactions=3, repeats=1,
                           schedulers=("base",))
        assert report["parity"] is True
        assert report["events"] > 0
        assert report["fast"]["events_per_s"] > 0
        assert report["reference"]["events_per_s"] > 0
        assert report["speedup"] > 0
        out = tmp_path / "BENCH_sim.json"
        write_bench(report, out)
        import json as json_mod
        assert json_mod.loads(out.read_text())["bench"] == "sim_kernel"

    def test_parity_is_checked_for_every_timed_scheduler(
            self, monkeypatch):
        from repro.perf import bench

        real = bench.simulate

        def skewed(config, traces, scheduler, workload, reference=False):
            result = real(config, traces, scheduler, workload,
                          reference=reference)
            if scheduler == "smt" and reference:
                result.cycles += 1
            return result

        monkeypatch.setattr(bench, "simulate", skewed)
        with pytest.raises(AssertionError, match="disagree on smt"):
            bench.run_bench(scale="tiny", transactions=2, repeats=1,
                            schedulers=("strex", "smt"))

    def test_scheduler_walls_are_min_over_repeats(self, monkeypatch):
        import itertools

        from repro.perf import bench

        # Every timed run is faster than the one before it, so each
        # scheduler's minimum is its last repeat.
        clock = itertools.count(100, -1)
        last = {}

        def fake_time(config, traces, scheduler, workload,
                      reference=False):
            last[scheduler] = float(next(clock))
            return last[scheduler]

        monkeypatch.setattr(bench, "_time_run", fake_time)
        report = bench.run_bench(scale="tiny", transactions=2, repeats=3,
                                 schedulers=("strex", "smt"),
                                 trace_counters=True)
        assert report["schedulers_wall_s"] == {
            "strex": last["strex"], "smt": last["smt"]}
        counters = report["kernel_counters"]
        assert 0 < counters["kernel_calls"] <= counters["events"]
        views = counters["views"]
        assert views["events"] == report["events"]
        assert 0 < views["distinct_tuples"] < views["events"]

    def test_run_bench_rejects_unknown_names(self):
        from repro.perf import run_bench

        with pytest.raises(ValueError, match="scale"):
            run_bench(scale="huge")
        with pytest.raises(ValueError, match="workload"):
            run_bench(workload="nope")
        with pytest.raises(ValueError, match="scheduler"):
            run_bench(scale="tiny", schedulers=("warp",))


class TestPerfHistoryGate:
    """The ``perf --history`` ledger archives clean runs only.

    Regression for a bug where a report that failed a gate (or
    carried ``parity: False``) was appended anyway, poisoning
    over-time comparisons with numbers a gate had already rejected.
    """

    @staticmethod
    def _fake_report(parity=True):
        return {
            "workload": "tpcc", "scale": "tiny", "cores": 2,
            "events": 1000, "repeats": 1,
            "fast": {"wall_s": 0.1, "events_per_s": 10_000},
            "reference": {"wall_s": 0.2, "events_per_s": 5_000},
            "speedup": 2.0, "parity": parity,
            "schedulers_wall_s": {"base": 0.05, "strex": 0.05},
        }

    def _run(self, monkeypatch, tmp_path, report, extra=()):
        from repro.__main__ import run_perf

        monkeypatch.setattr("repro.perf.run_bench",
                            lambda **kwargs: report)
        history = tmp_path / "history.jsonl"
        text, code = run_perf(
            ["--out", str(tmp_path / "BENCH_sim.json"),
             "--history", str(history), *extra])
        return text, code, history

    def test_clean_report_is_appended(self, monkeypatch, tmp_path):
        text, code, history = self._run(
            monkeypatch, tmp_path, self._fake_report())
        assert code == 0
        assert f"appended to {history}" in text
        import json as json_mod

        lines = history.read_text().splitlines()
        assert len(lines) == 1
        assert json_mod.loads(lines[0])["parity"] is True

    def test_failed_check_gate_is_not_appended(self, monkeypatch,
                                               tmp_path):
        import json as json_mod

        # A prior report twice as fast: the fresh one is a 50% events/s
        # drop, far past the default 15% --check budget.
        prior = self._fake_report()
        prior["fast"] = {"wall_s": 0.05, "events_per_s": 20_000}
        prior_path = tmp_path / "prior.json"
        prior_path.write_text(json_mod.dumps(prior))
        text, code, history = self._run(
            monkeypatch, tmp_path, self._fake_report(),
            extra=["--check", str(prior_path)])
        assert code == 1
        assert "kernel slowdown exceeds budget" in text
        assert "not appending" in text
        assert not history.exists()

    def test_parity_failure_is_not_appended(self, monkeypatch,
                                            tmp_path):
        # Parity failures normally raise inside run_bench; the append
        # guard still refuses a parity-False report as a last line of
        # defence.
        text, code, history = self._run(
            monkeypatch, tmp_path, self._fake_report(parity=False))
        assert "not appending" in text
        assert not history.exists()


def test_cache_stats_snapshot_roundtrip():
    stats = CacheStats()
    stats.hits, stats.misses, stats.evictions = 3, 2, 1
    stats.invalidations = 4
    assert stats.snapshot() == {"hits": 3, "misses": 2,
                                "evictions": 1, "invalidations": 4}
