"""Tests for the instruction prefetchers."""

from repro.config import tiny_scale
from repro.prefetch.base import NoPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.pif import PifIdealPrefetcher
from repro.sim.api import simulate
from repro.trace.trace import TraceBuilder


def synthetic_trace(txn_id, blocks, txn_type="S"):
    builder = TraceBuilder(txn_id, txn_type)
    for block in blocks:
        builder.append(block, 10)
    return builder.build()


class TestNoPrefetcher:
    def test_never_covers(self):
        prefetcher = NoPrefetcher(2)
        assert prefetcher.covers(0, 123) is False

    def test_coverage_zero_without_misses(self):
        assert NoPrefetcher(1).coverage == 0.0

    def test_record_tracks_ratio(self):
        prefetcher = NoPrefetcher(1)
        prefetcher.record(True)
        prefetcher.record(False)
        assert prefetcher.coverage == 0.5
        snap = prefetcher.snapshot()
        assert snap["covered_misses"] == 1


class TestNextLine:
    def test_covers_sequential_blocks(self):
        prefetcher = NextLinePrefetcher(1, depth=2)
        prefetcher.on_fetch(0, 100, False)
        assert prefetcher.covers(0, 101)
        assert prefetcher.covers(0, 102)
        assert not prefetcher.covers(0, 104)

    def test_does_not_cover_jumps(self):
        prefetcher = NextLinePrefetcher(1)
        prefetcher.on_fetch(0, 100, False)
        assert not prefetcher.covers(0, 500)

    def test_buffer_bounded(self):
        prefetcher = NextLinePrefetcher(1, depth=1, buffer_blocks=4)
        for block in range(100, 120):
            prefetcher.on_fetch(0, block, False)
        assert len(prefetcher._armed[0]) <= 4

    def test_per_core_isolation(self):
        prefetcher = NextLinePrefetcher(2)
        prefetcher.on_fetch(0, 100, False)
        assert not prefetcher.covers(1, 101)

    def test_sequential_code_mostly_covered(self):
        """A straight-line run: all but the first block are covered."""
        trace = synthetic_trace(0, [2000 + i for i in range(64)])
        result = simulate(tiny_scale(num_cores=1), [trace],
                          prefetcher="nextline")
        assert result.extra["prefetch_coverage"] > 0.9

    def test_speeds_up_baseline(self, tiny_tpcc):
        traces = tiny_tpcc.generate_uniform("Payment", 6, seed=51)
        config = tiny_scale(num_cores=1)
        base = simulate(config, traces, "base")
        nextline = simulate(config, traces, "base",
                            prefetcher="nextline")
        assert nextline.cycles < base.cycles
        assert nextline.scheduler == "base+nextline"


class TestPifIdeal:
    def test_covers_everything(self):
        prefetcher = PifIdealPrefetcher(1)
        assert prefetcher.covers(0, 1)
        assert prefetcher.covers(0, 99999)

    def test_no_instruction_stalls(self):
        """PIF-No-Overhead: instruction misses are counted (traffic) but
        never stall, so cycles equal the compute+data time."""
        blocks = [2000 + i for i in range(200)]
        trace = synthetic_trace(0, blocks)
        config = tiny_scale(num_cores=1)
        pif = simulate(config, [trace], prefetcher="pif")
        base = simulate(config, [trace])
        assert pif.i_misses == base.i_misses  # same demand traffic
        assert pif.cycles < base.cycles

    def test_l2_traffic_still_generated(self):
        blocks = [2000 + i for i in range(200)]
        trace = synthetic_trace(0, blocks)
        pif = simulate(tiny_scale(num_cores=1), [trace],
                       prefetcher="pif")
        assert pif.l2_traffic >= 200

    def test_comparable_to_strex(self, tiny_tpcc):
        """PIF removes stalls but pays per-miss L2 contention, so STREX
        lands in the same performance band (the paper reports STREX
        within 5% of PIF for TPC-C and 9% *better* for TPC-E)."""
        traces = tiny_tpcc.generate_uniform("Payment", 8, seed=53)
        config = tiny_scale(num_cores=1)
        pif = simulate(config, traces, "base", prefetcher="pif")
        strex = simulate(config, traces, "strex")
        ratio = pif.cycles / strex.cycles
        assert 0.8 < ratio < 1.2, ratio
