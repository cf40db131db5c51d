"""Tests for repro.cache.hierarchy (latency accounting, coherence,
NUCA placement, prefetcher interplay)."""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.config import CacheConfig, tiny_scale
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.pif import PifIdealPrefetcher
from repro.sched.base import BaselineScheduler
from repro.sim.engine import SimulationEngine
from repro.trace.trace import TraceBuilder
from repro.verify.harness import hierarchy_state
from repro.verify.reference import ReferenceHierarchy

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


def l2_access(hier, core, block):
    """The latency of one L2 access from ``core``: a read that misses
    the core's L1-D (the block is invalidated there first) charges the
    L1-D hit latency plus exactly the L2 round trip, and DRAM on an L2
    miss.  The block is never written, so no coherence forward adds to
    it."""
    l1d = hier.l1d[core]
    l1d.invalidate(block)
    return hier.access_data(core, block, False) - l1d.config.hit_latency


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
        latency = l2_access(hier, 0, 100)
        l2_hit = hier.l2[0].config.hit_latency
        assert latency > l2_hit  # NoC + L2 (+ DRAM)
        assert hier.l2_demand_traffic == 1

    def test_l2_warm_miss_cheaper_than_cold(self):
        hier = make_hier()
        cold = l2_access(hier, 0, 100)  # fills L2 from DRAM
        warm = l2_access(hier, 0, 100)  # L2 hit
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
        l2_access(hier, 0, 4)   # home slice 0 (local to core 0)
        l2_access(hier, 0, 6)   # home slice 2 (one hop away)
        local = l2_access(hier, 0, 4)
        remote = l2_access(hier, 0, 6)
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


#: Replacement policies the differential data-path test runs on the
#: L1-D and the L2 alike: both fill routes (order-list moves for
#: LRU/FIFO, ``miss_fill`` for the rest) and every hit mode.
DATA_POLICIES = ("lru", "fifo", "lip", "bip", "srrip", "random")


def data_config(cores, policy, sets=None):
    """A tiny system with a small L2 (32 blocks a slice, so it evicts)
    and ``policy`` on the L1-D and L2; ``sets`` overrides both caches'
    set counts (4-way)."""
    l1d_bytes = l2_bytes = 2 * 1024
    if sets is not None:
        l1d_bytes, l2_bytes = (count * 4 * 64 for count in sets)
    return dataclasses.replace(
        tiny_scale(num_cores=cores),
        l1d=CacheConfig(l1d_bytes, assoc=4, replacement=policy),
        l2_slice=CacheConfig(l2_bytes, assoc=4, hit_latency=16,
                             replacement=policy),
    )


def directory(hier):
    return {block: (entry.owner, sorted(entry.sharers))
            for block, entry in hier._directory.items()}


def drive_data_path(config, seed, steps=600):
    """Feed the same random ``(core, block, write)`` stream to the fast
    and the reference hierarchy and compare them after every step."""
    fast = MemoryHierarchy(config)
    ref = ReferenceHierarchy(config)
    cores = config.num_cores
    rng = random.Random(seed)
    span = 3 * cores * config.l2_slice.num_blocks // 2
    for step in range(steps):
        core = rng.randrange(cores)
        block = rng.randrange(span)
        write = rng.random() < 0.3
        assert fast.access_data(core, block, write) \
            == ref.access_data(core, block, write), step
        assert hierarchy_state(SimpleNamespace(hier=fast)) \
            == hierarchy_state(SimpleNamespace(hier=ref)), step
        assert fast.coherence_misses == ref.coherence_misses, step
        assert directory(fast) == directory(ref), step
    return fast


class TestDataPathDifferential:
    """The flat fast ``access_data`` against the generic reference one,
    step by step."""

    @pytest.mark.parametrize("policy", DATA_POLICIES)
    @pytest.mark.parametrize("cores", (1, 2, 3, 8))
    def test_matches_reference(self, cores, policy):
        fast = drive_data_path(data_config(cores, policy), seed=cores)
        # The stream must reach every branch it is meant to cover.
        assert sum(c.stats.evictions for c in fast.l1d) > 0
        assert sum(c.stats.evictions for c in fast.l2) > 0
        if cores > 1:
            assert sum(fast.coherence_misses) > 0

    @pytest.mark.parametrize("policy", DATA_POLICIES)
    def test_non_power_of_two_sets(self, policy):
        config = data_config(3, policy, sets=(3, 5))
        assert config.l1d.num_sets == 3
        assert config.l2_slice.num_sets == 5
        drive_data_path(config, seed=11)

    def test_dirty_remote_forward_counts_one_message(self):
        # A read of a block another core holds dirty pays the forward
        # from the home slice to the owner, one more NoC message.
        hier = make_hier(cores=4)
        hier.access_data(3, 6, True)  # core 3 owns block 6 (slice 2)
        messages, hops = hier.noc.messages, hier.noc.total_hops
        latency = hier.access_data(0, 6, False)
        assert hier.noc.messages == messages + 2
        assert hier.noc.total_hops == hops + hier.noc._hops[0][2] \
            + hier.noc._hops[2][3]
        assert latency == hier.l1d[0].config.hit_latency \
            + hier._l2_roundtrip[0][2] + hier.noc._latency[2][3]


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
