"""Cross-cutting property-based tests (hypothesis)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.config import CacheConfig, MemoryConfig, NocConfig, tiny_scale
from repro.exp import ShardSpec, SweepSpec, spec_key
from repro.mem.dram import DramModel
from repro.noc.torus import TorusNetwork, grid_shape
from repro.sched.base import BaselineScheduler
from repro.sched.slicc import SliccScheduler
from repro.sched.strex import StrexScheduler
from repro.sim.engine import SimulationEngine
from repro.trace.trace import TraceBuilder


def synthetic_trace(txn_id, blocks, txn_type="S"):
    builder = TraceBuilder(txn_id, txn_type)
    for block in blocks:
        builder.append(block, 7)
    return builder.build()


@st.composite
def trace_sets(draw):
    """A few transactions of 1-2 types with random block streams."""
    num_types = draw(st.integers(1, 2))
    traces = []
    txn_id = 0
    for t in range(num_types):
        base = 10_000 * (t + 1)
        length = draw(st.integers(5, 120))
        shared = [base + draw(st.integers(0, 90)) for _ in range(length)]
        for _ in range(draw(st.integers(1, 4))):
            # Instances perturb the shared stream slightly.
            stream = list(shared)
            if draw(st.booleans()):
                stream.append(base + draw(st.integers(0, 90)))
            traces.append(synthetic_trace(txn_id, stream, f"T{t}"))
            txn_id += 1
    return traces


@given(trace_sets(), st.integers(1, 4),
       st.sampled_from(["base", "strex", "slicc"]))
@settings(max_examples=60, deadline=None)
def test_every_scheduler_conserves_work(traces, cores, scheduler_name):
    """Property: every scheduler runs every thread to completion,
    executes exactly the trace's instructions, and records a latency
    for each transaction."""
    schedulers = {
        "base": BaselineScheduler,
        "strex": StrexScheduler,
        "slicc": SliccScheduler,
    }
    config = tiny_scale(num_cores=cores)
    engine = SimulationEngine(config, traces,
                              schedulers[scheduler_name])
    result = engine.run("prop")
    expected = sum(t.total_instructions for t in traces)
    assert result.instructions == expected
    assert all(t.finished for t in engine.threads)
    assert len(result.latencies) == len(traces)
    assert result.cycles > 0
    # Misses never exceed accesses; accesses == number of events.
    events = sum(len(t) for t in traces)
    assert result.i_misses <= events


@given(st.lists(st.integers(0, 63), min_size=1, max_size=400))
@settings(max_examples=50, deadline=None)
def test_lru_cache_matches_reference_model(blocks):
    """The Cache under LRU behaves exactly like a reference model built
    from a dict of last-use timestamps."""
    cache = Cache(CacheConfig(512, assoc=4), rng=random.Random(1))
    num_sets = cache.num_sets
    reference = {}  # block -> last use time
    time = 0
    for block in blocks:
        set_index = block % num_sets
        resident = [b for b in reference if b % num_sets == set_index]
        expect_hit = block in reference
        if not expect_hit and len(resident) == 4:
            victim = min(resident, key=reference.get)
            del reference[victim]
        reference[block] = time
        time += 1
        assert cache.access(block) is expect_hit
    assert set(cache.resident_blocks()) == set(reference)


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_dram_latencies_are_bounded(blocks):
    config = MemoryConfig()
    dram = DramModel(config)
    for block in blocks:
        latency = dram.access(block)
        assert latency in (config.base_latency, config.row_hit_latency)
    assert dram.accesses == len(blocks)


@given(st.integers(1, 64))
@settings(max_examples=64, deadline=None)
def test_torus_distance_bound(num_nodes):
    """Hop distance never exceeds the torus diameter."""
    torus = TorusNetwork(num_nodes, NocConfig())
    rows, cols = grid_shape(num_nodes)
    diameter = rows // 2 + cols // 2
    for src in range(num_nodes):
        for dst in range(num_nodes):
            assert torus.hop_distance(src, dst) <= diameter


@st.composite
def sweep_specs(draw):
    """Random valid SweepSpecs over the cheap-to-validate axes."""
    schedulers = tuple(draw(st.lists(
        st.sampled_from(["base", "strex", "slicc", "hybrid"]),
        min_size=1, max_size=3, unique=True)))
    team_sizes = (None,)
    if any(s in ("strex", "hybrid") for s in schedulers):
        team_sizes = draw(st.sampled_from([(None,), (2,), (None, 4)]))
    return SweepSpec(
        workloads=tuple(draw(st.lists(
            st.sampled_from(["tpcc", "tpce", "mapreduce"]),
            min_size=1, max_size=2, unique=True))),
        schedulers=schedulers,
        cores=tuple(draw(st.lists(st.integers(1, 8), min_size=1,
                                  max_size=2, unique=True))),
        team_sizes=team_sizes,
        seeds=tuple(draw(st.lists(st.integers(0, 10_000), min_size=1,
                                  max_size=3, unique=True))),
        scales=("tiny",),
        transactions=draw(st.integers(1, 8)),
    )


@given(sweep_specs())
@settings(max_examples=25, deadline=None)
def test_shard_assignment_is_a_partition(sweep):
    """Property: for any sweep, every expanded cell's cache key lands
    in exactly one of N hash-range shards, for several N — sharding
    never drops or duplicates a cell."""
    specs = sweep.expand()
    keys = [spec_key(spec) for spec in specs]
    for count in (1, 2, 3, 7):
        shards = [ShardSpec(i, count) for i in range(count)]
        for key in keys:
            owners = [s.index for s in shards if s.selects(key)]
            assert owners == [ShardSpec.assign(key, count)]


@given(trace_sets())
@settings(max_examples=30, deadline=None)
def test_strex_team_misses_not_worse_than_double_base(traces):
    """Sanity bound: STREX never pathologically inflates instruction
    misses (forward-progress guarantee keeps it near the baseline even
    on adversarial random streams)."""
    config = tiny_scale(num_cores=1)
    base = SimulationEngine(config, traces, BaselineScheduler).run("x")
    strex = SimulationEngine(config, traces, StrexScheduler).run("x")
    assert strex.i_misses <= base.i_misses * 2 + 64
