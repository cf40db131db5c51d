"""FPTable: transaction instruction-footprint profiling (Section 5.5).

The hybrid STREX+SLICC system needs to know, per transaction type, how
many L1-I-size units of code a transaction touches -- Table 3 of the
paper.  The paper measures this by re-using STREX's phaseID table during
a short SLICC profiling phase:

1. all phaseID tables are reset to zero on all cores;
2. a randomly chosen *sample* transaction is assigned a non-zero phaseID;
3. every cache block the sample touches is tagged with that phaseID;
4. a counter increments whenever the sample touches a block and had to
   *change* its phaseID value;
5. the final count is rounded to L1-I size units and recorded.

We reproduce the mechanism over the cache model: blocks are tagged as
the sample's trace replays over an L1-I-geometry cache, and the counter
increments exactly on tag transitions.  Eviction and refill re-counts a
block (just as in hardware); rounding to units absorbs the noise, and
the tests verify the result against the exact distinct-block footprint.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.trace.trace import TransactionTrace


#: Table 3 of the paper, for comparison in reports and tests.
PAPER_FPTABLE: Dict[str, Dict[str, int]] = {
    "TPC-C": {
        "Delivery": 12,
        "NewOrder": 14,
        "OrderStatus": 11,
        "Payment": 14,
        "StockLevel": 11,
    },
    "TPC-E": {
        "BrokerVolume": 7,
        "CustomerPosition": 9,
        "MarketWatch": 9,
        "SecurityDetail": 5,
        "TradeStatus": 9,
        "TradeUpdate": 8,
        "TradeLookup": 8,
    },
}

#: The phaseID value assigned to the sample thread during profiling.
SAMPLE_PHASE = 1


def measure_footprint_blocks(trace: TransactionTrace,
                             config: SystemConfig) -> int:
    """Count the cache blocks a transaction touches, via phaseID tags.

    Section 5.5's mechanism, steps 1-4: the sample thread's blocks are
    tagged with a pre-assigned phaseID and a counter increments whenever
    a touched block's tag had to change.  Profiling runs under SLICC, so
    the sample's blocks spread over the *aggregate* L1-I of the group --
    enough capacity that blocks are rarely evicted and re-counted.  We
    model that aggregate with an unbounded tag table; the count is the
    sample's distinct-block footprint.
    """
    tags: dict = {}
    counter = 0
    for block in trace.event_columns()[0]:
        if tags.get(block) != SAMPLE_PHASE:
            counter += 1
            tags[block] = SAMPLE_PHASE
    return counter


class FPTable:
    """The footprint size table driving the hybrid decision.

    Maps transaction type name -> footprint in L1-I size units.
    """

    def __init__(self) -> None:
        self._units: Dict[str, int] = {}

    def record(self, txn_type: str, units: int) -> None:
        """Store a measured footprint."""
        self._units[txn_type] = units

    def units(self, txn_type: str) -> int:
        """Footprint of a type, in L1-I units."""
        return self._units[txn_type]

    def known_types(self) -> List[str]:
        """Types with recorded footprints."""
        return sorted(self._units)

    def as_dict(self) -> Dict[str, int]:
        """Copy of the table contents."""
        return dict(self._units)

    def median_units(self) -> float:
        """Median footprint across types (the hybrid's decision input)."""
        if not self._units:
            raise ValueError("FPTable is empty")
        values = sorted(self._units.values())
        mid = len(values) // 2
        if len(values) % 2:
            return float(values[mid])
        return (values[mid - 1] + values[mid]) / 2.0

    def max_units(self) -> int:
        """Largest footprint across types."""
        if not self._units:
            raise ValueError("FPTable is empty")
        return max(self._units.values())


@dataclass
class FootprintResult:
    """A serializable FPTable profile (``RunSpec(mode="fptable")``).

    Wraps the measured type -> units mapping in the bit-identical
    ``to_dict``/``from_dict`` round trip the content-addressed result
    cache requires, and mirrors the :class:`FPTable` read API so
    reports can use either interchangeably.
    """

    units_by_type: Dict[str, int] = dataclass_field(default_factory=dict)

    def as_fptable(self) -> "FPTable":
        table = FPTable()
        for txn_type, units in self.units_by_type.items():
            table.record(txn_type, units)
        return table

    def units(self, txn_type: str) -> int:
        return self.units_by_type[txn_type]

    def known_types(self) -> List[str]:
        return sorted(self.units_by_type)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.units_by_type)

    def median_units(self) -> float:
        return self.as_fptable().median_units()

    def to_dict(self) -> dict:
        return {"units_by_type": dict(self.units_by_type)}

    @classmethod
    def from_dict(cls, data: dict) -> "FootprintResult":
        return cls(units_by_type=dict(data["units_by_type"]))


def profile_fptable(
    traces: Sequence[TransactionTrace],
    config: SystemConfig,
    samples_per_type: int = 1,
    rng: Optional[random.Random] = None,
) -> FPTable:
    """Build an FPTable by profiling sample transactions.

    For each transaction type present in ``traces``, up to
    ``samples_per_type`` random samples are profiled and their mean
    footprint, rounded to L1-I units, is recorded.
    """
    rng = rng or random.Random(config.seed)
    by_type: Dict[str, List[TransactionTrace]] = {}
    for trace in traces:
        by_type.setdefault(trace.txn_type, []).append(trace)
    table = FPTable()
    unit_blocks = config.l1i_blocks
    for txn_type, candidates in by_type.items():
        chosen = rng.sample(
            candidates, min(samples_per_type, len(candidates))
        )
        blocks = [
            measure_footprint_blocks(trace, config) for trace in chosen
        ]
        mean_blocks = sum(blocks) / len(blocks)
        table.record(
            txn_type, max(1, math.ceil(mean_blocks / unit_blocks))
        )
    return table
