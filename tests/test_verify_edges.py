"""Engine edge-case tests, asserted under BOTH kernels with the
invariant oracles armed (``REPRO_SIM_CHECK=1``).

These are the degenerate geometries the fuzz generator samples but
nothing else in the suite pins down explicitly: a 1-core "torus",
STREX with ``team_size=1``, empty traces, a single-instruction-block
workload, and a zero-latency L2.  Every simulation here runs through
the fast kernel *and* the reference kernel and must produce
byte-equal results on top of passing its specific assertions.
"""

import pytest

from repro.config import BLOCK_SIZE, SystemConfig, tiny_scale
from repro.exp.diff import result_blob
from repro.sim.api import simulate
from repro.trace.trace import TransactionTrace
from repro.verify import CHECK_ENV, synthetic_traces
from repro.workloads import make_workload


def both_kernels(monkeypatch, config, traces, scheduler, **kwargs):
    """Run armed through fast and reference; return the fast result.

    Asserts the DESIGN-12 bar on the way: the two serialized results
    are byte-equal.
    """
    monkeypatch.setenv(CHECK_ENV, "1")
    fast = simulate(config, traces, scheduler, **kwargs)
    reference = simulate(config, traces, scheduler, reference=True,
                         **kwargs)
    assert result_blob(fast) == result_blob(reference)
    return fast


def tpcc_traces(config, transactions=4, seed=7):
    workload = make_workload("tpcc", config.l1i_blocks, seed=seed)
    return workload.generate_mix(transactions, seed=seed)


class TestOneCoreTorus:
    """A 1x1 "torus": every NoC route is core 0 to slice 0."""

    @pytest.mark.parametrize("scheduler", ["base", "strex", "slicc",
                                           "hybrid", "smt"])
    def test_single_core_runs_every_scheduler(self, monkeypatch,
                                              scheduler):
        config = tiny_scale(num_cores=1)
        result = both_kernels(monkeypatch, config,
                              tpcc_traces(config), scheduler)
        assert result.num_cores == 1
        assert result.transactions == 4
        assert result.cycles > 0
        # One core: the makespan IS the busy+idle time of core 0.
        assert result.busy_cycles <= result.cycles

    def test_single_core_migrations_are_impossible(self, monkeypatch):
        config = tiny_scale(num_cores=1)
        result = both_kernels(monkeypatch, config,
                              tpcc_traces(config, transactions=6),
                              "slicc")
        assert result.migrations == 0


class TestTeamOfOne:
    """STREX with team_size=1: stratification degenerates to the
    baseline's one-transaction-at-a-time order, but the phase-tag
    machinery still runs."""

    def test_team_one_completes(self, monkeypatch):
        config = tiny_scale(num_cores=2)
        result = both_kernels(monkeypatch, config,
                              tpcc_traces(config), "strex",
                              team_size=1)
        assert result.transactions == 4
        assert len(result.latencies) == 4

    def test_team_one_hybrid_delegate(self, monkeypatch):
        config = tiny_scale(num_cores=2)
        result = both_kernels(monkeypatch, config,
                              tpcc_traces(config), "hybrid",
                              team_size=1)
        assert result.transactions == 4


class TestEmptyTraces:
    def test_no_traces_is_a_loud_error(self):
        with pytest.raises(ValueError, match="at least one trace"):
            simulate(tiny_scale(2), [], "base")

    @pytest.mark.parametrize("scheduler", ["base", "strex"])
    def test_zero_event_trace_finishes_instantly(self, monkeypatch,
                                                 scheduler):
        trace = TransactionTrace(0, "empty", [], [], [], [])
        result = both_kernels(monkeypatch, tiny_scale(2), [trace],
                              scheduler)
        assert result.instructions == 0
        assert result.i_misses == 0
        assert result.latencies == [0]

    def test_mixed_empty_and_real_traces(self, monkeypatch):
        config = tiny_scale(2)
        traces = [TransactionTrace(0, "empty", [], [], [], [])] + \
            tpcc_traces(config, transactions=3)
        result = both_kernels(monkeypatch, config, traces, "strex")
        assert result.transactions == 4
        assert 0 in result.latencies


class TestSingleIblockWorkload:
    """Every event fetches the same block: after one compulsory miss
    the instruction stream must hit forever, under any scheduler."""

    @pytest.mark.parametrize("scheduler", ["base", "strex", "smt"])
    def test_one_hot_block(self, monkeypatch, scheduler):
        traces = synthetic_traces(3, 24, 1, 4, seed=9)
        config = tiny_scale(num_cores=2)
        result = both_kernels(monkeypatch, config, traces, scheduler)
        # One block per core at most: compulsory misses only.
        assert 1 <= result.i_misses <= config.num_cores
        assert result.instructions > 0

    def test_single_set_single_block_cache(self, monkeypatch):
        # The L1-I is exactly one block wide -- the block both always
        # hits (one hot block) and is the only eviction candidate.
        config_dict = tiny_scale(num_cores=1).to_dict()
        config_dict["l1i"] = dict(config_dict["l1i"],
                                  size_bytes=BLOCK_SIZE, assoc=1)
        config = SystemConfig.from_dict(config_dict)
        traces = synthetic_traces(2, 8, 1, 4, seed=9)
        result = both_kernels(monkeypatch, config, traces, "base")
        assert result.i_misses == 1


class TestZeroLatencyL2:
    def test_zero_latency_l2_and_noc(self, monkeypatch):
        config_dict = tiny_scale(num_cores=2).to_dict()
        config_dict["l2_slice"] = dict(config_dict["l2_slice"],
                                       hit_latency=0)
        config_dict["noc"] = {"hop_latency": 0, "router_latency": 0}
        config = SystemConfig.from_dict(config_dict)
        traces = tpcc_traces(config)
        result = both_kernels(monkeypatch, config, traces, "strex")
        assert result.cycles > 0
        assert result.l2_traffic == result.i_misses + result.d_misses

    def test_free_l2_is_never_slower(self, monkeypatch):
        base_dict = tiny_scale(num_cores=2).to_dict()
        free_dict = dict(base_dict)
        free_dict["l2_slice"] = dict(base_dict["l2_slice"],
                                     hit_latency=0)
        base = SystemConfig.from_dict(base_dict)
        free = SystemConfig.from_dict(free_dict)
        traces = tpcc_traces(base)
        slow = both_kernels(monkeypatch, base, traces, "base")
        fast = both_kernels(monkeypatch, free, traces, "base")
        assert fast.cycles <= slow.cycles
