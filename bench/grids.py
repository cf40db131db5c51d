"""The benchmark's workloads: each is a cold grid of ``RunSpec`` cells.

Every grid is a function of the workload seed alone, so the same seed
always expands to the same cells.  The batch conventions follow
``benchmarks/common.py``: the ``default`` scale, batches drawn with mix
seed ``seed + 16``, and the figure benches' own shapes (Fig. 2 overlap,
Fig. 4 identical replicas and Table 3 profiles draw their instances
with mix seed ``seed``).  Batches hold 120 transactions, three quarters
of the benches' 160, so that a run fits the benchmark's time budget.

``smoke=True`` keeps each grid's shape but runs it at the ``tiny``
scale with a handful of transactions, for the benchmark's own tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.analysis.overlap import OverlapResult
from repro.core.fptable import FootprintResult
from repro.exp import RunSpec
from repro.sim.results import RunResult

#: Master seed of the figure benchmarks (``benchmarks/common.py``).
DEFAULT_SEED = 20130623

#: Transactions per mix batch; the benches draw ``max(40, 10 * 16)``.
BATCH = 120

#: Instructions the default seed's grid simulates; ``run.py`` scales
#: makespan and peak RSS to these.  They change only with the results,
#: and so only with the digests in ``expected.json``.
REFERENCE_INSTRUCTIONS = {
    "oltp-mix": 247_500_280,
    "policy-mix": 247_500_280,
    "replica-profile": 311_746_264,
}

SCHEDULERS = ("base", "strex", "slicc", "hybrid", "smt")
OLTP = ("tpcc10", "tpce")
TYPES = {
    "tpcc": ("NewOrder", "Payment", "OrderStatus", "Delivery",
             "StockLevel"),
    "tpce": ("BrokerVolume", "CustomerPosition", "MarketWatch",
             "SecurityDetail", "TradeStatus", "TradeUpdate",
             "TradeLookup"),
}


def _mix(workload: str, seed: int, smoke: bool, **fields) -> RunSpec:
    return RunSpec(workload=workload, seed=seed, mix_seed=seed + 16,
                   transactions=8 if smoke else BATCH,
                   scale="tiny" if smoke else "default", **fields)


def oltp_mix(seed: int, smoke: bool = False) -> List[RunSpec]:
    """Figs. 5-7: every scheduler at 2 and 8 cores, LRU, no prefetch."""
    return [_mix(workload, seed, smoke, scheduler=scheduler, cores=cores)
            for workload in OLTP
            for scheduler in SCHEDULERS
            for cores in (2, 8)]


def policy_mix(seed: int, smoke: bool = False) -> List[RunSpec]:
    """Fig. 9 plus the prefetchers: the non-age and prefetch kernels."""
    cells = ([("base", policy, "none")
              for policy in ("lip", "bip", "srrip", "brrip")]
             + [("strex", policy, "none") for policy in ("bip", "brrip")]
             + [(scheduler, None, prefetcher)
                for scheduler in ("base", "strex")
                for prefetcher in ("nextline", "pif")])
    return [_mix(workload, seed, smoke, scheduler=scheduler, cores=8,
                 replacement=policy, prefetcher=prefetcher)
            for workload in OLTP
            for scheduler, policy, prefetcher in cells]


def replica_profile(seed: int, smoke: bool = False) -> List[RunSpec]:
    """Figs. 2 and 4, Table 3 and the MapReduce control, at three seeds."""
    scale = "tiny" if smoke else "default"
    instances = 2 if smoke else 6
    concurrent = 4 if smoke else 16
    cells: List[RunSpec] = []
    for s in range(seed, seed + (1 if smoke else 3)):
        typed = dict(seed=s, mix_seed=s, scale=scale)
        cells += [RunSpec(workload="tpcc", cores=concurrent, mode="overlap",
                          txn_type=txn_type, transactions=concurrent,
                          **typed)
                  for txn_type in ("NewOrder", "Payment")]
        cells += [RunSpec(workload=workload, cores=4, mode="fptable",
                          transactions=5, **typed)
                  for workload in ("tpcc", "tpce")]
        for workload, types in TYPES.items():
            for txn_type in types:
                identical = dict(cores=1, mode="identical",
                                 txn_type=txn_type, transactions=instances,
                                 replicas=instances, **typed)
                cells.append(RunSpec(workload=workload, **identical))
                cells.append(RunSpec(workload=workload, scheduler="strex",
                                     team_size=10, **identical))
        cells += [_mix("mapreduce", s, smoke, scheduler=scheduler, cores=4)
                  for scheduler in SCHEDULERS]
    return cells


def check(spec: RunSpec, result) -> Optional[str]:
    """Why ``result`` cannot be ``spec``'s output, or ``None``.

    Seed-independent sanity checks; the pinned digests in
    ``expected.json`` check exact values where a seed has them.
    """
    if isinstance(result, RunResult):
        txns = spec.transactions * spec.replicas
        if (result.transactions != txns or len(result.latencies) != txns
                or result.num_cores != spec.cores
                or result.instructions <= 0 or result.cycles <= 0):
            return f"implausible simulation result: {result.summary()}"
    elif isinstance(result, OverlapResult):
        if result.txn_type != spec.txn_type or not result.intervals or any(
                abs(sum(i.fractions.values()) - 1.0) > 1e-6
                for i in result.intervals):
            return "overlap bands do not partition each interval"
    elif isinstance(result, FootprintResult):
        if sorted(result.units_by_type) != sorted(TYPES[spec.workload]) \
                or min(result.units_by_type.values()) < 1:
            return f"incomplete footprint table: {result.units_by_type}"
    else:
        return f"unexpected result type {type(result).__name__}"
    return None


#: Workload name -> grid builder, in the order the benchmark runs them.
WORKLOADS: Dict[str, Callable[..., List[RunSpec]]] = {
    "oltp-mix": oltp_mix,
    "policy-mix": policy_mix,
    "replica-profile": replica_profile,
}
