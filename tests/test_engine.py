"""Tests for repro.sim.engine and the baseline scheduler."""

import pytest

from repro.config import tiny_scale
from repro.sched.base import BaselineScheduler
from repro.sim.api import SCHEDULERS
from repro.sim.engine import SimulationEngine
from repro.trace.trace import TraceBuilder
from repro.workloads import WORKLOADS


def synthetic_trace(txn_id, blocks, ilen=10, txn_type="S", data=None):
    """A trace touching ``blocks`` in order; ``data`` maps event index
    to (dblock, dwrite)."""
    builder = TraceBuilder(txn_id, txn_type)
    data = data or {}
    for i, block in enumerate(blocks):
        dblock, dwrite = data.get(i, (-1, 0))
        builder.append(block, ilen, dblock, dwrite)
    return builder.build()


class TestRunEvents:
    def make_engine(self, traces, cores=1):
        config = tiny_scale(num_cores=cores)
        return SimulationEngine(config, traces, BaselineScheduler)

    def test_requires_traces(self):
        with pytest.raises(ValueError):
            self.make_engine([])

    def test_counts_instructions(self):
        trace = synthetic_trace(0, [1, 2, 3], ilen=10)
        engine = self.make_engine([trace])
        engine.run_events(0, engine.threads[0], 100)
        assert engine.total_instructions == 30
        assert engine.threads[0].finished

    def test_max_events_bounds_progress(self):
        trace = synthetic_trace(0, list(range(20)))
        engine = self.make_engine([trace])
        executed = engine.run_events(0, engine.threads[0], 5)
        assert executed == 5
        assert engine.threads[0].pos == 5

    def test_l1i_miss_charges_l2_latency(self):
        trace = synthetic_trace(0, [1], ilen=10)
        engine = self.make_engine([trace])
        engine.run_events(0, engine.threads[0], 10)
        miss_time = engine.core_time[0]

        trace2 = synthetic_trace(0, [1, 1], ilen=10)
        engine2 = self.make_engine([trace2])
        engine2.run_events(0, engine2.threads[0], 10)
        # Second event hits; its marginal cost is just ilen * cpi.
        cpi = engine2.config.core.base_cpi
        assert engine2.core_time[0] == pytest.approx(
            miss_time + int(10 * cpi), abs=1)

    def test_miss_log_collects_missed_blocks(self):
        trace = synthetic_trace(0, [1, 1, 2, 3, 2])
        engine = self.make_engine([trace])
        log = []
        engine.run_events(0, engine.threads[0], 10, miss_log=log)
        assert log == [1, 2, 3]

    def test_stop_after_misses(self):
        trace = synthetic_trace(0, list(range(10)))
        engine = self.make_engine([trace])
        log = []
        executed = engine.run_events(0, engine.threads[0], 10,
                                     miss_log=log, stop_after_misses=3)
        assert executed == 3
        assert log == [0, 1, 2]

    def test_data_access_recorded(self):
        trace = synthetic_trace(0, [1, 2], data={1: (500, 1)})
        engine = self.make_engine([trace])
        engine.run_events(0, engine.threads[0], 10)
        assert engine.hier.l1d[0].stats.accesses == 1
        assert engine.hier.l1d[0].contains(500)

    def test_phase_tag_applied(self):
        trace = synthetic_trace(0, [7])
        engine = self.make_engine([trace])
        engine.run_events(0, engine.threads[0], 10, tag=42)
        assert engine.hier.l1i[0].tag_of(7) == 42


class TestAgeKernelViews:
    """The age loop reads only packed events and prefix sums: its
    engines bind two-item views and never build a trace's run tables,
    which would cost every pool worker their build time and memory."""

    @pytest.mark.parametrize("scheduler", ("base", "strex", "slicc"))
    def test_lru_engines_build_no_run_tables(self, scheduler):
        config = tiny_scale(num_cores=2)
        traces = WORKLOADS["tpcc"](config.l1i_blocks, 7).generate_mix(
            8, seed=7)
        engine = SimulationEngine(config, traces, SCHEDULERS[scheduler])
        assert engine._age_kernel
        assert all(len(thread.view) == 2 for thread in engine.threads)
        engine.run("tpcc")
        assert all(not trace._run_tables for trace in traces)


class TestBaselineScheduler:
    def run(self, traces, cores=2):
        config = tiny_scale(num_cores=cores)
        engine = SimulationEngine(config, traces, BaselineScheduler)
        return engine.run("test"), engine

    def test_all_threads_finish(self):
        traces = [synthetic_trace(i, list(range(i, i + 10)))
                  for i in range(5)]
        result, engine = self.run(traces)
        assert result.transactions == 5
        assert all(t.finished for t in engine.threads)
        assert len(result.latencies) == 5

    def test_single_thread_single_core(self):
        result, _ = self.run([synthetic_trace(0, [1, 2, 3])], cores=1)
        assert result.cycles > 0
        assert result.instructions == 30

    def test_work_spreads_across_cores(self):
        traces = [synthetic_trace(i, list(range(100)))
                  for i in range(4)]
        _, engine = self.run(traces, cores=2)
        assert engine.core_time[0] > 0
        assert engine.core_time[1] > 0

    def test_more_cores_smaller_makespan(self):
        traces = [synthetic_trace(i, list(range(i * 200, i * 200 + 150)))
                  for i in range(8)]
        one, _ = self.run(traces, cores=1)
        four, _ = self.run(traces, cores=4)
        assert four.cycles < one.cycles

    def test_throughput_uses_busy_time(self):
        traces = [synthetic_trace(i, list(range(50))) for i in range(4)]
        result, _ = self.run(traces, cores=4)
        assert result.busy_cycles <= result.cycles * 4
        assert result.throughput > 0

    def test_identical_back_to_back_transactions_hit(self):
        """The second identical transaction on one core reuses the
        first one's cache contents."""
        blocks = list(range(20))
        traces = [synthetic_trace(0, blocks), synthetic_trace(1, blocks)]
        result, engine = self.run(traces, cores=1)
        assert engine.hier.l1i[0].stats.misses == 20
        assert engine.hier.l1i[0].stats.hits == 20

    def test_result_metadata(self):
        result, _ = self.run([synthetic_trace(0, [1])], cores=2)
        assert result.scheduler == "base"
        assert result.workload == "test"
        assert result.num_cores == 2

    def test_summary_renders(self):
        result, _ = self.run([synthetic_trace(0, [1])])
        text = result.summary()
        assert "base" in text and "I-MPKI" in text


class TestCoherence:
    def test_write_invalidates_remote_sharer(self):
        reader = synthetic_trace(0, [1] * 4,
                                 data={0: (900, 0), 3: (900, 0)})
        writer = synthetic_trace(1, [50] * 2, data={0: (900, 1)})
        config = tiny_scale(num_cores=2)
        engine = SimulationEngine(config, [reader, writer],
                                  BaselineScheduler)
        # Drive manually: reader reads 900 on core 0, writer writes on 1.
        engine.run_events(0, engine.threads[0], 1)
        assert engine.hier.l1d[0].contains(900)
        engine.run_events(1, engine.threads[1], 1)
        assert not engine.hier.l1d[0].contains(900)

    def test_coherence_miss_classified(self):
        config = tiny_scale(num_cores=2)
        reader = synthetic_trace(0, [1, 2], data={0: (900, 0),
                                                  1: (900, 0)})
        writer = synthetic_trace(1, [50], data={0: (900, 1)})
        engine = SimulationEngine(config, [reader, writer],
                                  BaselineScheduler)
        engine.run_events(0, engine.threads[0], 1)  # core 0 reads
        engine.run_events(1, engine.threads[1], 1)  # core 1 writes
        engine.run_events(0, engine.threads[0], 1)  # core 0 re-reads
        assert engine.hier.coherence_misses[0] == 1

    def test_dirty_remote_forwarding_latency(self):
        config = tiny_scale(num_cores=2)
        writer = synthetic_trace(0, [1], data={0: (900, 1)})
        reader = synthetic_trace(1, [50], data={0: (900, 0)})
        engine = SimulationEngine(config, [writer, reader],
                                  BaselineScheduler)
        engine.run_events(0, engine.threads[0], 1)
        before = engine.core_time[1]
        engine.run_events(1, engine.threads[1], 1)
        # Miss + forward from remote owner: more than an L1 hit.
        assert engine.core_time[1] - before > 10
