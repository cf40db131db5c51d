"""DDR3-lite DRAM timing model.

The paper's Table 2 lists a full DDR3-1600 part with two channels, eight
banks and an open-page policy.  At block-run granularity the dominant
effects are (a) a fixed access latency (~42 ns) and (b) row-buffer
locality: back-to-back accesses to the same DRAM row in the same bank are
faster.  This model keeps per-bank open-row state and charges either a
row-hit or a row-miss (precharge + activate) latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import BLOCK_SIZE, MemoryConfig


class DramModel:
    """Open-page DRAM with per-bank row buffers.

    Accesses are addressed by *block number*; the model maps blocks to a
    (channel, bank, row) triple by simple bit slicing.
    """

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.blocks_per_row = max(1, config.row_bytes // BLOCK_SIZE)
        self._total_banks = config.num_channels * config.num_banks
        self._open_rows: List[Optional[int]] = [None] * self._total_banks
        self.row_hits = 0
        self.row_misses = 0

    def access(self, block: int) -> int:
        """Charge one access; returns latency in core cycles.

        The block's row is ``block // blocks_per_row`` and its bank the
        row modulo the total bank count."""
        row = block // self.blocks_per_row
        bank = row % self._total_banks
        if self.config.open_page and self._open_rows[bank] == row:
            self.row_hits += 1
            return self.config.row_hit_latency
        self.row_misses += 1
        self._open_rows[bank] = row if self.config.open_page else None
        return self.config.base_latency

    @property
    def accesses(self) -> int:
        """Total accesses served."""
        return self.row_hits + self.row_misses

    def snapshot(self) -> Dict[str, int]:
        """Counters as a plain dict."""
        return {
            "accesses": self.accesses,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
        }
