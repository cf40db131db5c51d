"""Idealized PIF model (Ferdman et al., MICRO'11), as evaluated in the
paper's Section 5.3.

The paper models PIF as an upper bound: a 100% hit-rate L1-I where blocks
that would have missed still generate demand traffic to the L2.  This
class reproduces exactly that: :meth:`covers` is always true, so the core
never stalls on instruction fetch, while the hierarchy still performs the
L2 access for the would-miss block (modelling bandwidth/contention).

The real PIF's ~40 KiB/core history storage is accounted in
:mod:`repro.core.hwcost` for the Table 4 comparison.
"""

from __future__ import annotations

from repro.prefetch.base import InstructionPrefetcher


class PifIdealPrefetcher(InstructionPrefetcher):
    """PIF-No-Overhead: perfect coverage, perfectly timely."""

    name = "pif"

    #: Storage the real PIF requires per core, in bytes (paper: ~40 KiB).
    STORAGE_BYTES_PER_CORE = 40 * 1024

    def covers(self, core: int, block: int) -> bool:
        return True

    def demand_miss(self, core: int, block: int) -> bool:
        self.covered_misses += 1
        return True
