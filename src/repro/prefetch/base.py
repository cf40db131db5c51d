"""Instruction prefetcher interface.

Prefetchers in this reproduction model *latency hiding*: the hierarchy
asks the prefetcher whether a demand L1-I miss was covered (i.e. the block
would already be in flight or in a stream buffer).  Covered misses still
generate L2 traffic -- this mirrors how the paper models PIF ("demand
traffic is generated for cache blocks that would have otherwise missed")
-- but they do not stall the core.

Concrete implementations live in :mod:`repro.prefetch.nextline` and
:mod:`repro.prefetch.pif`.
"""

from __future__ import annotations

from typing import Dict


class InstructionPrefetcher:
    """Base class: never covers anything (no prefetching)."""

    name = "none"

    def __init__(self, num_cores: int):
        self.num_cores = num_cores
        self.covered_misses = 0
        self.uncovered_misses = 0

    def covers(self, core: int, block: int) -> bool:
        """Would this demand miss have been hidden by the prefetcher?

        Called only on L1-I demand misses, before :meth:`on_fetch`.
        """
        return False

    def on_fetch(self, core: int, block: int, hit: bool) -> None:
        """Observe a demand fetch (hit or miss) to update predictor state.

        The fast event loop calls it on a hit only if a subclass
        overrides it; misses reach it through :meth:`demand_miss`.
        """

    def demand_miss(self, core: int, block: int) -> bool:
        """Handle one L1-I demand miss; return whether it was covered.

        Exactly :meth:`covers`, then :meth:`record` of the answer, then
        ``on_fetch(core, block, False)``, in one call.  Subclasses
        override it to inline the three; the reference event loop
        still makes the three calls, so the parity tests check every
        override against them.
        """
        covered = self.covers(core, block)
        self.record(covered)
        self.on_fetch(core, block, False)
        return covered

    def record(self, covered: bool) -> None:
        """Book-keeping helper used by the hierarchy."""
        if covered:
            self.covered_misses += 1
        else:
            self.uncovered_misses += 1

    @property
    def coverage(self) -> float:
        """Fraction of misses the prefetcher hid."""
        total = self.covered_misses + self.uncovered_misses
        if not total:
            return 0.0
        return self.covered_misses / total

    def snapshot(self) -> Dict[str, float]:
        """Counters as a plain dict."""
        return {
            "covered_misses": self.covered_misses,
            "uncovered_misses": self.uncovered_misses,
            "coverage": self.coverage,
        }


class NoPrefetcher(InstructionPrefetcher):
    """Explicit null prefetcher (the baseline configuration)."""

    name = "none"
