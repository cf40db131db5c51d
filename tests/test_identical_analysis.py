"""Tests for the identical-transaction experiment helpers (Section 4.1
/ Fig. 4 machinery) beyond the API-level checks."""

from repro.core.identical import replicate_instances
from repro.exp.runner import execute_spec
from repro.exp.spec import RunSpec


class TestReplication:
    def test_replicas_are_independent_threads(self, tiny_tpcc):
        traces = replicate_instances(tiny_tpcc, "StockLevel",
                                     instances=2, replicas=3)
        # Shallow copies share arrays but have distinct identities and
        # ids, so the engine treats them as separate transactions.
        assert len({id(t) for t in traces}) == 6
        assert len({t.txn_id for t in traces}) == 6

    def test_adjacent_replicas_same_instance(self, tiny_tpcc):
        traces = replicate_instances(tiny_tpcc, "StockLevel",
                                     instances=2, replicas=2)
        assert traces[0].iblocks == traces[1].iblocks
        assert traces[2].iblocks == traces[3].iblocks
        # Different instances differ (data-dependent divergence).
        assert traces[0].iblocks != traces[2].iblocks


class TestSweep:
    def test_sweep_covers_all_types(self, tiny_tpcc):
        # Fig. 4 over every TPC-C type: a base and a strex
        # ``mode="identical"`` cell per type, on one core.
        for txn_type in tiny_tpcc.type_names():
            common = dict(workload="tpcc", mode="identical",
                          txn_type=txn_type, transactions=2,
                          replicas=2, scale="tiny", cores=1)
            base = execute_spec(RunSpec(scheduler="base", **common))
            sync = execute_spec(RunSpec(scheduler="strex", team_size=10,
                                        **common))
            assert base.transactions == sync.transactions == 4
            assert base.i_mpki > 0
            assert sync.i_mpki < base.i_mpki, txn_type
