"""Next-line instruction prefetcher (Smith, 1978).

On every fetch of block B the prefetcher arms B+1 (and a small run ahead,
``depth`` blocks).  A later demand miss is covered if its block was armed
recently.  Sequential code regions therefore never stall; taken branches
into cold code do.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from repro.prefetch.base import InstructionPrefetcher


class NextLinePrefetcher(InstructionPrefetcher):
    """Per-core next-line prefetcher with a small stream buffer.

    Args:
        num_cores: number of cores (one stream buffer each).
        depth: how many sequential blocks are armed per fetch.
        buffer_blocks: stream-buffer capacity (armed-block window).
    """

    name = "nextline"

    def __init__(self, num_cores: int, depth: int = 1,
                 buffer_blocks: int = 8):
        super().__init__(num_cores)
        self.depth = depth
        self.buffer_blocks = buffer_blocks
        self._armed: List[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(num_cores)
        ]
        self.prefetches_issued = 0

    def covers(self, core: int, block: int) -> bool:
        return block in self._armed[core]

    def demand_miss(self, core: int, block: int) -> bool:
        covered = block in self._armed[core]
        if covered:
            self.covered_misses += 1
        else:
            self.uncovered_misses += 1
        self.on_fetch(core, block, False)
        return covered

    def on_fetch(self, core: int, block: int, hit: bool) -> None:
        armed = self._armed[core]
        # Consume the entry if the demand fetch hit an armed block.
        armed.pop(block, None)
        for offset in range(1, self.depth + 1):
            candidate = block + offset
            if candidate not in armed:
                armed[candidate] = None
                self.prefetches_issued += 1
                if len(armed) > self.buffer_blocks:
                    armed.popitem(last=False)
