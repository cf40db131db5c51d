"""Temporal overlap analysis (Section 2.2, Fig. 2).

Sixteen randomly chosen same-type transactions execute concurrently, one
per core, each over a private L1-I at one instruction per cycle.  Every
100 instructions per core, the unique instruction blocks that each core
touched during the interval are checked against the other cores' caches:
the *overlap* of a block is the number of L1-I caches containing it.
The figure plots, over time, the fraction of touched blocks in the
overlap bands {1, <5, <10, >=10}; measurement stops when at least half
of the threads complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.cache.cache import Cache
from repro.config import SystemConfig
from repro.trace.trace import TransactionTrace

#: Band labels in plotting order (Fig. 2's legend).
BANDS = ("1", "<5", "<10", ">=10")


def _band(count: int) -> str:
    if count >= 10:
        return ">=10"
    if count >= 5:
        return "<10"
    if count >= 2:
        return "<5"
    return "1"


@dataclass
class OverlapInterval:
    """One measurement interval of the overlap experiment."""

    kilo_instructions: float
    fractions: Dict[str, float] = field(default_factory=dict)

    def fraction(self, band: str) -> float:
        """Fraction of touched blocks whose overlap falls in ``band``."""
        return self.fractions.get(band, 0.0)

    def to_dict(self) -> dict:
        return {"kilo_instructions": self.kilo_instructions,
                "fractions": dict(self.fractions)}

    @classmethod
    def from_dict(cls, data: dict) -> "OverlapInterval":
        return cls(kilo_instructions=data["kilo_instructions"],
                   fractions=dict(data["fractions"]))


@dataclass
class OverlapResult:
    """The full time series of one Fig. 2 overlap experiment.

    The serialized form this exposes (:meth:`to_dict` /
    :meth:`from_dict`, bit-identical round trip) is what lets overlap
    runs live in the content-addressed result cache next to ordinary
    simulation results (``RunSpec(mode="overlap")``).
    """

    txn_type: str
    intervals: List[OverlapInterval] = field(default_factory=list)

    def summarize(self) -> Dict[str, float]:
        """Time-averaged band fractions over the whole run."""
        return summarize(self.intervals)

    def summarize_early(self, fraction: float = 1 / 3) -> Dict[str, float]:
        """Band fractions over the first ``fraction`` of the run."""
        count = max(1, int(len(self.intervals) * fraction))
        return summarize(self.intervals[:count])

    def to_dict(self) -> dict:
        return {"txn_type": self.txn_type,
                "intervals": [i.to_dict() for i in self.intervals]}

    @classmethod
    def from_dict(cls, data: dict) -> "OverlapResult":
        return cls(
            txn_type=data["txn_type"],
            intervals=[OverlapInterval.from_dict(i)
                       for i in data["intervals"]],
        )


class OverlapAnalysis:
    """Runs Fig. 2's experiment for one transaction type.

    Args:
        config: system config (supplies L1-I geometry).
        interval_instructions: instructions per core per interval
            (paper: 100).
    """

    def __init__(self, config: SystemConfig,
                 interval_instructions: int = 100):
        self.config = config
        self.interval_instructions = interval_instructions

    def run(self, traces: Sequence[TransactionTrace]
            ) -> List[OverlapInterval]:
        """Execute the traces in lockstep and measure overlap bands."""
        num_cores = len(traces)
        if num_cores < 2:
            raise ValueError("overlap analysis needs at least two traces")
        rng = random.Random(self.config.seed)
        caches = [
            Cache(self.config.l1i, rng=random.Random(rng.randrange(2**31)))
            for _ in range(num_cores)
        ]
        positions = [0] * num_cores
        budgets = [0] * num_cores
        intervals: List[OverlapInterval] = []
        elapsed_instructions = 0

        def alive(core: int) -> bool:
            return positions[core] < len(traces[core])

        while sum(1 for c in range(num_cores) if alive(c)) \
                > num_cores // 2:
            touched: List[set] = [set() for _ in range(num_cores)]
            for core in range(num_cores):
                budgets[core] += self.interval_instructions
                trace = traces[core]
                iblocks, ilens = trace.event_columns()[:2]
                pos = positions[core]
                cache = caches[core]
                while pos < len(trace) and budgets[core] > 0:
                    block = iblocks[pos]
                    budgets[core] -= ilens[pos]
                    cache.access(block)
                    touched[core].add(block)
                    pos += 1
                positions[core] = pos
            elapsed_instructions += self.interval_instructions
            counts: Dict[str, int] = {band: 0 for band in BANDS}
            total = 0
            for core in range(num_cores):
                for block in touched[core]:
                    overlap = sum(
                        1 for other in range(num_cores)
                        if caches[other].contains(block)
                    )
                    counts[_band(overlap)] += 1
                    total += 1
            if total:
                intervals.append(OverlapInterval(
                    kilo_instructions=elapsed_instructions / 1000.0,
                    fractions={
                        band: counts[band] / total for band in BANDS
                    },
                ))
        return intervals


def summarize(intervals: Sequence[OverlapInterval]) -> Dict[str, float]:
    """Time-averaged band fractions (the claims quoted in Section 2.2)."""
    if not intervals:
        return {band: 0.0 for band in BANDS}
    result = {}
    for band in BANDS:
        result[band] = sum(i.fraction(band) for i in intervals) \
            / len(intervals)
    result["five_or_more"] = result["<10"] + result[">=10"]
    return result
