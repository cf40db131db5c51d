"""Per-core L1s, shared NUCA L2 and MESI-lite coherence.

This is the memory system of the simulated CMP (Table 2): private 32 KiB
L1-I and L1-D per core, a shared NUCA L2 with one slice per core reached
over a 2D torus, and DDR3-lite DRAM behind the L2.

Latency accounting (DESIGN.md, decision 4):

* L1 hit: ``l1.hit_latency``.
* L1 miss, L2 hit: round trip over the torus to the block's home slice
  plus the L2 hit latency.
* L2 miss: additionally the DRAM latency.
* Dirty-remote data: the round trip to the home slice plus a forward hop
  to the owning core's L1-D.

Coherence is a MESI-lite directory over L1-D contents: reads register
sharers, writes invalidate all other sharers.  A subsequent miss on a
block this core lost to an invalidation is classified as a *coherence
miss* -- the quantity that grows with core count in the paper's Fig. 5
baseline and that STREX reduces by stratifying same-type transactions.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from repro.cache.cache import Cache, VictimCallback
from repro.config import SystemConfig
from repro.mem.dram import DramModel
from repro.noc.torus import TorusNetwork
from repro.prefetch.base import InstructionPrefetcher, NoPrefetcher


class CoherenceState:
    """Directory entry for one data block."""

    __slots__ = ("sharers", "owner")

    def __init__(self) -> None:
        self.sharers: Set[int] = set()
        self.owner: Optional[int] = None  # core holding it dirty


class MemoryHierarchy:
    """The full cache/memory system shared by all scheduler variants."""

    #: The cache class of every level.
    cache_class = Cache

    def __init__(
        self,
        config: SystemConfig,
        prefetcher: Optional[InstructionPrefetcher] = None,
    ):
        self.config = config
        n = config.num_cores
        rng = random.Random(config.seed)
        cache_class = self.cache_class
        self.l1i: List[Cache] = [
            cache_class(config.l1i,
                        rng=random.Random(rng.randrange(2**31)),
                        name=f"l1i{c}")
            for c in range(n)
        ]
        self.l1d: List[Cache] = [
            cache_class(config.l1d,
                        rng=random.Random(rng.randrange(2**31)),
                        name=f"l1d{c}")
            for c in range(n)
        ]
        self.l2: List[Cache] = [
            cache_class(config.l2_slice,
                        rng=random.Random(rng.randrange(2**31)),
                        name=f"l2s{c}")
            for c in range(n)
        ]
        self.noc = TorusNetwork(n, config.noc)
        self.dram = DramModel(config.memory)
        self.prefetcher = prefetcher or NoPrefetcher(n)
        self._directory: Dict[int, CoherenceState] = {}
        self._lost_to_invalidation: List[Set[int]] = [set() for _ in range(n)]
        self.coherence_misses = [0] * n
        self.l2_demand_traffic = 0
        self._num_cores = n
        self._l2_hit_latency = config.l2_slice.hit_latency
        # Full L2 round trip from each core to each slice (torus there
        # and back plus the slice's hit latency) as one table lookup.
        self._l2_roundtrip = [
            [2 * self.noc._latency[c][s] + self._l2_hit_latency
             for s in range(n)]
            for c in range(n)
        ]

    # ------------------------------------------------------------------
    # L2 + DRAM
    # ------------------------------------------------------------------
    def home_slice(self, block: int) -> int:
        """NUCA home slice of a block (static block interleaving)."""
        return block % self.config.num_cores

    def _l2_access(self, core: int, block: int) -> int:
        """Access the block's home L2 slice; fills from DRAM on miss.

        Returns the round trip over the torus plus the slice's hit
        latency, plus the DRAM latency on a miss.  The slice access is
        inlined over the flat cache layout.  Both fast event loops
        inline this whole method for L1-I misses, so on the fast
        kernel it serves L1-D misses only; the reference hierarchy
        (:mod:`repro.verify.reference`) takes the generic route, and
        the parity tests require both to agree.
        """
        self.l2_demand_traffic += 1
        slice_id = block % self._num_cores
        noc = self.noc
        noc.messages += 1
        noc.total_hops += noc._hops[core][slice_id]
        latency = self._l2_roundtrip[core][slice_id]
        slice_cache = self.l2[slice_id]
        slot = slice_cache._where.get(block)
        if slot is not None:
            slice_cache.stats.hits += 1
            policy = slice_cache.policy
            mode = policy.hit_mode
            if mode == "mru":
                order = policy.hit_array[slot]
                if order[-1] != slot:
                    order.remove(slot)
                    order.append(slot)
            elif mode == "zero":
                policy.hit_array[slot] = 0
            slice_cache._slot_tags[slot] = 0
            return latency
        slice_cache.miss_fill(
            block, 0, slice_cache.set_index(block))
        return latency + self.dram.access(block)

    # ------------------------------------------------------------------
    # Data path (MESI-lite)
    # ------------------------------------------------------------------
    def access_data(self, core: int, block: int, write: bool) -> int:
        """Demand data access; returns latency in cycles."""
        l1d = self.l1d[core]
        entry = self._directory.get(block)
        hit = l1d.access(block)
        latency = l1d.config.hit_latency
        if not hit:
            if block in self._lost_to_invalidation[core]:
                self._lost_to_invalidation[core].discard(block)
                self.coherence_misses[core] += 1
            latency += self._l2_access(core, block)
            if entry is not None and entry.owner is not None \
                    and entry.owner != core:
                # Dirty in a remote L1-D: forward from the owner.
                latency += self.noc.latency(self.home_slice(block),
                                            entry.owner)
        if entry is None:
            entry = CoherenceState()
            self._directory[block] = entry
        if write:
            for sharer in entry.sharers:
                if sharer != core:
                    if self.l1d[sharer].invalidate(block):
                        self._lost_to_invalidation[sharer].add(block)
            entry.sharers = {core}
            entry.owner = core
        else:
            if entry.owner is not None and entry.owner != core:
                entry.owner = None  # downgrade M -> S
            entry.sharers.add(core)
        return latency

    # ------------------------------------------------------------------
    # Stats helpers
    # ------------------------------------------------------------------
    def instruction_misses(self) -> int:
        """Total L1-I demand misses across cores."""
        return sum(c.stats.misses for c in self.l1i)

    def data_misses(self) -> int:
        """Total L1-D demand misses across cores."""
        return sum(c.stats.misses for c in self.l1d)

    def set_victim_callback(self, core: int,
                            callback: Optional[VictimCallback]) -> None:
        """Install the STREX victim-monitoring hook on one core's L1-I."""
        self.l1i[core].victim_callback = callback
