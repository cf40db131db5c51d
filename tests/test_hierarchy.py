"""Tests for repro.cache.hierarchy (latency accounting, coherence,
NUCA placement, prefetcher interplay)."""

from repro.cache.hierarchy import MemoryHierarchy
from repro.config import tiny_scale
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.pif import PifIdealPrefetcher
from repro.sched.base import BaselineScheduler
from repro.sim.engine import SimulationEngine
from repro.trace.trace import TraceBuilder

#: Instructions per event: 10 x the tiny scale's 0.3 CPI is 3 cycles.
ILEN = 10


def make_hier(cores=2, prefetcher=None):
    return MemoryHierarchy(tiny_scale(num_cores=cores), prefetcher)


def make_engine(blocks, cores=2, prefetcher=None, reference=False):
    """An engine over one instruction-only trace fetching ``blocks``.

    The instruction path is the event loops' own: each
    :func:`fetch` runs one event through ``run_events``.
    """
    builder = TraceBuilder(0, "T")
    for block in blocks:
        builder.append(block, ILEN)
    return SimulationEngine(tiny_scale(num_cores=cores),
                            [builder.build()], BaselineScheduler,
                            prefetcher, reference=reference)


def fetch(engine, tag=0):
    """Run the next event on core 0; return the cycles it charged."""
    before = engine.core_time[0]
    engine.run_events(0, engine.threads[0], 1, tag=tag)
    return engine.core_time[0] - before


class TestInstructionPath:
    def test_hit_latency(self):
        # The L1-I hit latency is folded into the base CPI: a hit
        # charges the event's pipeline cycles and no stall.
        engine = make_engine([100, 100])
        fetch(engine)
        cpi = engine.config.core.base_cpi
        assert fetch(engine) == int(ILEN * cpi)
        assert engine.hier.l1i[0].stats.hits == 1

    def test_miss_includes_l2_round_trip(self):
        hier = make_hier()
        latency = hier._l2_access(0, 100)
        l2_hit = hier.l2[0].config.hit_latency
        assert latency > l2_hit  # NoC + L2 (+ DRAM)
        assert hier.l2_demand_traffic == 1

    def test_l2_warm_miss_cheaper_than_cold(self):
        hier = make_hier()
        cold = hier._l2_access(0, 100)  # fills L2 from DRAM
        warm = hier._l2_access(0, 100)  # L2 hit
        assert warm < cold
        assert hier.dram.accesses == 1
        slice_cache = hier.l2[hier.home_slice(100)]
        assert (slice_cache.stats.misses, slice_cache.stats.hits) \
            == (1, 1)

    def test_phase_tag_propagates(self):
        # STREX tags the L1-I block with the phaseID on every touch,
        # hit or miss, under either kernel.
        for reference in (False, True):
            engine = make_engine([100, 100], reference=reference)
            l1i = engine.hier.l1i[0]
            fetch(engine, tag=7)
            assert l1i.tag_of(100) == 7
            fetch(engine, tag=2)
            assert l1i.tag_of(100) == 2

    def test_home_slice_interleaving(self):
        hier = make_hier(cores=4)
        assert hier.home_slice(0) == 0
        assert hier.home_slice(5) == 1

    def test_remote_slice_costs_more(self):
        hier = make_hier(cores=4)
        # Warm both slices first.
        hier._l2_access(0, 4)   # home slice 0 (local to core 0)
        hier._l2_access(0, 6)   # home slice 2 (one hop away)
        local = hier._l2_access(0, 4)
        remote = hier._l2_access(0, 6)
        assert remote > local
        assert remote - local == 2 * (hier.noc.latency(0, 2)
                                      - hier.noc.latency(0, 0))

    def test_covered_miss_charges_contention_fraction(self):
        engine = make_engine([100], prefetcher=PifIdealPrefetcher)
        covered = fetch(engine)
        uncovered = fetch(make_engine([100]))
        pipeline = int(ILEN * engine.config.core.base_cpi)
        # More than a pure hit (contention), far less than a full miss.
        assert pipeline < covered < uncovered
        fraction = engine.config.core.covered_stall_fraction
        assert covered == int(ILEN * engine.config.core.base_cpi
                              + (uncovered - pipeline) * fraction)
        # The covered miss still travels to the L2.
        assert engine.hier.l2_demand_traffic == 1

    def test_prefetcher_observes_hits_and_misses(self):
        engine = make_engine([100], prefetcher=NextLinePrefetcher)
        fetch(engine)
        assert engine.hier.prefetcher.covers(0, 101)


class TestDataPath:
    def test_read_then_read_hits(self):
        hier = make_hier()
        hier.access_data(0, 500, False)
        latency = hier.access_data(0, 500, False)
        assert latency == hier.l1d[0].config.hit_latency

    def test_write_invalidates_sharers(self):
        hier = make_hier()
        hier.access_data(0, 500, False)
        hier.access_data(1, 500, False)
        hier.access_data(0, 500, True)
        assert not hier.l1d[1].contains(500)
        assert hier.l1d[0].contains(500)

    def test_read_does_not_invalidate(self):
        hier = make_hier()
        hier.access_data(0, 500, False)
        hier.access_data(1, 500, False)
        assert hier.l1d[0].contains(500)

    def test_coherence_miss_counted_once(self):
        hier = make_hier()
        hier.access_data(0, 500, False)
        hier.access_data(1, 500, True)
        hier.access_data(0, 500, False)  # coherence miss
        hier.access_data(0, 500, False)  # plain hit
        assert hier.coherence_misses[0] == 1

    def test_capacity_miss_not_coherence(self):
        hier = make_hier()
        # Evict 500 by capacity: fill its set with conflicting blocks.
        hier.access_data(0, 500, False)
        set_size = hier.l1d[0].num_sets
        for i in range(1, 10):
            hier.access_data(0, 500 + i * set_size, False)
        hier.access_data(0, 500, False)
        assert hier.coherence_misses[0] == 0

    def test_write_back_ownership_transfer(self):
        hier = make_hier()
        hier.access_data(0, 500, True)
        hier.access_data(1, 500, True)
        hier.access_data(0, 500, True)
        # Ownership ping-pong: each write invalidates the other side.
        assert not hier.l1d[1].contains(500)

    def test_dirty_remote_read_downgrades(self):
        hier = make_hier()
        hier.access_data(0, 500, True)
        hier.access_data(1, 500, False)
        entry = hier._directory[500]
        assert entry.owner is None
        assert entry.sharers == {0, 1}


class TestStats:
    def test_victim_callback_install(self):
        capacity = tiny_scale().l1i.num_blocks
        engine = make_engine(range(capacity + 1))
        seen = []
        engine.hier.set_victim_callback(
            0, lambda b, t: seen.append((b, t)))
        for _ in range(capacity + 1):
            fetch(engine, tag=3)
        assert seen and seen[0][1] == 3
