"""Tests for the SLICC migration scheduler."""

from repro.config import tiny_scale
from repro.sched.base import BaselineScheduler
from repro.sched.slicc import SliccScheduler
from repro.sim.engine import SimulationEngine
from repro.trace.trace import TraceBuilder


def synthetic_trace(txn_id, blocks, ilen=10, txn_type="S"):
    builder = TraceBuilder(txn_id, txn_type)
    for block in blocks:
        builder.append(block, ilen)
    return builder.build()


def make_engine(traces, cores=4):
    config = tiny_scale(num_cores=cores)
    return SimulationEngine(config, traces, SliccScheduler)


class TestPlacement:
    def test_same_type_threads_enter_same_core(self):
        traces = [synthetic_trace(i, [1], txn_type="A") for i in range(4)]
        engine = make_engine(traces)
        scheduler = engine.scheduler
        scheduler.start()
        entry = scheduler._entry_core(engine.threads[0])
        assert len(scheduler._queues[entry]) == 4

    def test_different_types_different_entries(self):
        traces = [synthetic_trace(i, [1], txn_type=t)
                  for i, t in enumerate("ABCD")]
        engine = make_engine(traces, cores=4)
        scheduler = engine.scheduler
        entries = {scheduler._entry_core(t) for t in engine.threads}
        assert len(entries) == 4

    def test_active_cap_is_two_n(self):
        traces = [synthetic_trace(i, [2000 + j for j in range(10)])
                  for i in range(20)]
        engine = make_engine(traces, cores=2)
        scheduler = engine.scheduler
        scheduler.start()
        assert scheduler._active == 4  # 2N
        assert len(scheduler._pool) == 16


class TestMigration:
    def test_expansion_spreads_segments(self):
        """One long transaction (4 cache-fulls) expands across cores."""
        blocks = [2000 + i for i in range(128)]  # 4x the 32-block L1-I
        engine = make_engine([synthetic_trace(0, blocks)], cores=4)
        result = engine.run("x")
        assert result.migrations >= 2
        filled_cores = sum(
            1 for cache in engine.hier.l1i if cache.occupancy > 0
        )
        assert filled_cores >= 3

    def test_follower_reuses_pipeline(self):
        """Fig. 3(c): followers find segments the lead laid out."""
        blocks = [2000 + i for i in range(128)]
        traces = [synthetic_trace(i, blocks) for i in range(6)]
        engine = make_engine(traces, cores=4)
        result = engine.run("x")
        solo_misses = 128
        # Followers should hit most of the pipeline: total misses are
        # far below 6 cold runs.
        assert result.i_misses < solo_misses * 6 * 0.6

    def test_two_cores_strex_beats_slicc(self, tiny_tpcc):
        """Section 5.3: when the core count is too small for the
        aggregate L1-I to hold the workload footprint, STREX
        outperforms SLICC."""
        from repro.sched.strex import StrexScheduler
        traces = tiny_tpcc.generate_mix(16, seed=29)
        config = tiny_scale(num_cores=2)
        base = SimulationEngine(config, traces, BaselineScheduler).run("x")
        slicc = SimulationEngine(config, traces, SliccScheduler).run("x")
        strex = SimulationEngine(config, traces, StrexScheduler).run("x")
        assert strex.relative_throughput(base) > \
            slicc.relative_throughput(base)

    def test_migration_cost_charged(self):
        blocks = [2000 + i for i in range(128)]
        engine = make_engine([synthetic_trace(0, blocks)], cores=4)
        result = engine.run("x")
        base_engine = SimulationEngine(
            tiny_scale(num_cores=1), [synthetic_trace(0, blocks)],
            BaselineScheduler,
        )
        base = base_engine.run("x")
        assert result.busy_cycles > base.busy_cycles

    def test_thread_recent_misses_bounded(self):
        blocks = [2000 + i for i in range(200)]
        engine = make_engine([synthetic_trace(0, blocks)], cores=4)
        engine.run("x")
        probe = SliccScheduler.PROBE_BLOCKS
        assert all(len(t.recent_misses) <= probe
                   for t in engine.threads)

    def test_all_finish_under_migration(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(12, seed=17)
        engine = make_engine(traces, cores=4)
        result = engine.run("x")
        assert result.transactions == 12
        assert len(result.latencies) == 12


class TestWorkStealing:
    def test_unstarted_threads_spread_to_idle_cores(self):
        """Threads that never burst (tiny footprint) still parallelize
        via OS-style balancing of not-yet-started threads."""
        blocks = [2000 + i for i in range(8)]  # fits L1-I
        traces = [synthetic_trace(i, blocks * 20, txn_type="M")
                  for i in range(8)]
        engine = make_engine(traces, cores=4)
        engine.run("x")
        busy = sum(1 for t in engine.core_time if t > 0)
        assert busy >= 3

    def test_mid_flight_threads_not_stolen(self):
        """Only pos == 0 threads are eligible for stealing."""
        blocks = [2000 + i for i in range(8)]
        traces = [synthetic_trace(i, blocks * 4) for i in range(3)]
        engine = make_engine(traces, cores=2)
        scheduler = engine.scheduler
        scheduler.start()
        entry = scheduler._entry_core(engine.threads[0])
        # Run the head thread a little so it has position > 0.
        engine.run_events(entry, scheduler._queues[entry][0], 4)
        scheduler._steal_to_idle(entry)
        stolen_cores = [
            c for c in range(2)
            if c != entry and scheduler._queues[c]
        ]
        if stolen_cores:
            stolen = scheduler._queues[stolen_cores[0]][0]
            assert stolen.pos == 0


class TestSignatureMatching:
    def test_matched_target_requires_threshold(self):
        traces = [synthetic_trace(0, [2000])]
        engine = make_engine(traces, cores=4)
        scheduler = engine.scheduler
        thread = engine.threads[0]
        thread.recent_misses = [3000 + i for i in range(8)]
        # No core holds those blocks: no match.
        assert scheduler._matched_target(0, thread) is None

    def test_matched_target_finds_holder(self):
        traces = [synthetic_trace(0, [2000])]
        engine = make_engine(traces, cores=4)
        scheduler = engine.scheduler
        thread = engine.threads[0]
        probe_blocks = [3000 + i for i in range(8)]
        for block in probe_blocks:
            engine.hier.l1i[2].access(block)
        thread.recent_misses = list(probe_blocks)
        assert scheduler._matched_target(0, thread) == 2

    def test_empty_probe_no_target(self):
        traces = [synthetic_trace(0, [2000])]
        engine = make_engine(traces, cores=4)
        thread = engine.threads[0]
        thread.recent_misses = []
        assert engine.scheduler._matched_target(0, thread) is None

    def test_duplicate_probe_blocks_count_each_time(self):
        # A block missed twice in a row appears twice in the probe and
        # scores twice: four copies of one held block make 4/8, which
        # clears the 50% threshold, where the distinct blocks alone
        # (1 of 5) would not.
        traces = [synthetic_trace(0, [2000])]
        engine = make_engine(traces, cores=4)
        scheduler = engine.scheduler
        thread = engine.threads[0]
        engine.hier.l1i[2].access(3000)
        thread.recent_misses = [3000] * 4 + [3001, 3002, 3003, 3004]
        assert scheduler._matched_target(0, thread) == 2
        # Multiplicity also ranks candidates: three copies of the block
        # core 3 holds beat the two distinct blocks core 1 holds.
        engine.hier.l1i[3].access(3100)
        for block in (3101, 3102):
            engine.hier.l1i[1].access(block)
        thread.recent_misses = [3100, 3100, 3100, 3101, 3102]
        assert scheduler._matched_target(0, thread) == 3

    def test_partial_match_below_threshold_ignored(self):
        traces = [synthetic_trace(0, [2000])]
        engine = make_engine(traces, cores=4)
        scheduler = engine.scheduler
        thread = engine.threads[0]
        probe_blocks = [3000 + i for i in range(8)]
        for block in probe_blocks[:2]:  # 25% < 50% threshold
            engine.hier.l1i[2].access(block)
        thread.recent_misses = list(probe_blocks)
        assert scheduler._matched_target(0, thread) is None
