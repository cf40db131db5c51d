"""Tests for the simulate() API and end-to-end integration shapes."""

import pytest

from repro import SCHEDULERS, simulate, tiny_scale
from repro.core.identical import replicate_instances
from repro.exp.runner import execute_spec
from repro.exp.spec import RunSpec
from repro.sim.api import PREFETCHERS


class TestApi:
    def test_all_schedulers_run(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(8, seed=71)
        config = tiny_scale(num_cores=2)
        for name in SCHEDULERS:
            result = simulate(config, traces, name, "x")
            assert result.transactions == 8

    def test_all_prefetchers_run(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(6, seed=72)
        config = tiny_scale(num_cores=2)
        for name in PREFETCHERS:
            result = simulate(config, traces, "base", "x",
                              prefetcher=name)
            assert result.transactions == 6

    def test_unknown_scheduler_rejected(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(2, seed=73)
        with pytest.raises(ValueError, match="unknown scheduler"):
            simulate(tiny_scale(), traces, "fancy")

    def test_unknown_scheduler_message_lists_choices(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(2, seed=73)
        with pytest.raises(ValueError) as excinfo:
            simulate(tiny_scale(), traces, "fancy")
        message = str(excinfo.value)
        for name in SCHEDULERS:
            assert name in message

    def test_unknown_prefetcher_rejected(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(2, seed=74)
        with pytest.raises(ValueError, match="unknown prefetcher"):
            simulate(tiny_scale(), traces, "base", prefetcher="magic")

    def test_unknown_prefetcher_message_lists_choices(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(2, seed=74)
        with pytest.raises(ValueError) as excinfo:
            simulate(tiny_scale(), traces, "base", prefetcher="magic")
        message = str(excinfo.value)
        for name in PREFETCHERS:
            assert name in message

    def test_team_size_rejected_for_non_team_scheduler(self, tiny_tpcc):
        """team_size used to be silently ignored for e.g. 'base'."""
        traces = tiny_tpcc.generate_mix(2, seed=78)
        for scheduler in ("base", "slicc", "smt"):
            with pytest.raises(ValueError, match="team_size"):
                simulate(tiny_scale(), traces, scheduler, team_size=4)

    def test_team_size_threads_through_hybrid(self, tiny_tpcc):
        """On a small system the hybrid picks STREX, so the team-size
        override must change behaviour just as it does for 'strex'."""
        traces = tiny_tpcc.generate_uniform("Payment", 8, seed=79)
        config = tiny_scale(num_cores=1)
        small = simulate(config, traces, "hybrid", team_size=2)
        large = simulate(config, traces, "hybrid", team_size=8)
        strex_small = simulate(config, traces, "strex", team_size=2)
        assert small.transactions == large.transactions == 8
        assert large.mean_latency > small.mean_latency
        assert small.cycles == strex_small.cycles

    def test_team_size_override(self, tiny_tpcc):
        traces = tiny_tpcc.generate_uniform("Payment", 8, seed=75)
        config = tiny_scale(num_cores=1)
        small = simulate(config, traces, "strex", team_size=2)
        large = simulate(config, traces, "strex", team_size=8)
        assert small.transactions == large.transactions == 8
        # Larger teams stretch mean per-transaction latency: with teams
        # of two, early teams finish long before the batch ends.
        assert large.mean_latency > small.mean_latency

    def test_deterministic_runs(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(6, seed=76)
        config = tiny_scale(num_cores=2)
        a = simulate(config, traces, "strex", "x")
        # Re-simulating the same traces must give identical results
        # (fresh engine, same seeds).
        for thread_trace in traces:
            thread_trace_pos = 0  # traces are not mutated by replay
        b = simulate(config, traces, "strex", "x")
        assert a.cycles == b.cycles
        assert a.i_misses == b.i_misses
        assert a.latencies == b.latencies

    def test_replay_does_not_mutate_traces(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(4, seed=77)
        before = [list(t.iblocks) for t in traces]
        simulate(tiny_scale(num_cores=2), traces, "slicc", "x")
        after = [list(t.iblocks) for t in traces]
        assert before == after


class TestHeadlineShapes:
    """The paper's headline behaviours, on the tiny system."""

    def test_strex_beats_base_on_oltp(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(16, seed=81)
        config = tiny_scale(num_cores=2)
        base = simulate(config, traces, "base", "x")
        strex = simulate(config, traces, "strex", "x")
        assert strex.i_mpki < base.i_mpki * 0.85
        assert strex.relative_throughput(base) > 1.0

    def test_strex_insensitive_to_cores(self, tiny_tpcc):
        traces = tiny_tpcc.generate_mix(24, seed=82)
        mpki = []
        for cores in (1, 2, 4):
            result = simulate(tiny_scale(num_cores=cores), traces,
                              "strex", "x")
            mpki.append(result.i_mpki)
        assert max(mpki) - min(mpki) < 0.15 * max(mpki)

    def test_tpce_strex_benefit(self, tiny_tpce):
        traces = tiny_tpce.generate_mix(16, seed=83)
        config = tiny_scale(num_cores=2)
        base = simulate(config, traces, "base", "x")
        strex = simulate(config, traces, "strex", "x")
        assert strex.i_mpki < base.i_mpki * 0.9

    def test_mapreduce_unaffected(self, tiny_mapreduce):
        traces = tiny_mapreduce.generate_mix(12, seed=84)
        config = tiny_scale(num_cores=2)
        base = simulate(config, traces, "base", "x")
        strex = simulate(config, traces, "strex", "x")
        slicc = simulate(config, traces, "slicc", "x")
        assert strex.i_mpki == pytest.approx(base.i_mpki, abs=0.1)
        assert 0.9 < strex.relative_throughput(base) < 1.1
        assert 0.9 < slicc.relative_throughput(base) < 1.1


class TestIdenticalModule:
    def test_replication_counts(self, tiny_tpcc):
        traces = replicate_instances(tiny_tpcc, "Payment",
                                     instances=3, replicas=4)
        assert len(traces) == 12
        ids = [t.txn_id for t in traces]
        assert ids == list(range(12))
        # Replicas of one instance share the identical block stream.
        assert traces[0].iblocks == traces[1].iblocks
        assert traces[0].iblocks is traces[1].iblocks  # shallow copy

    def test_compare_identical_reduces_mpki(self):
        # Fig. 4's pair of cells: the baseline and a STREX team over
        # the same replicated instances, on one core.
        common = dict(workload="tpcc", mode="identical",
                      txn_type="Payment", transactions=3, replicas=4,
                      scale="tiny", cores=1)
        base = execute_spec(RunSpec(scheduler="base", **common))
        sync = execute_spec(RunSpec(scheduler="strex", team_size=4,
                                    **common))
        # On the 32-block tiny cache the lead's segment overshoot
        # cascades through the LRU sets, so the reduction is smaller
        # than at realistic cache sizes (the Fig. 4 bench checks the
        # full effect at default scale).
        assert sync.i_mpki < base.i_mpki * 0.7
        assert base.transactions == sync.transactions == 12
