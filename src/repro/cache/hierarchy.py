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
        self._data_statics = self._build_data_statics()

    # ------------------------------------------------------------------
    # Data path (MESI-lite)
    # ------------------------------------------------------------------
    def home_slice(self, block: int) -> int:
        """NUCA home slice of a block (static block interleaving)."""
        return block % self.config.num_cores

    def _build_data_statics(self) -> Optional[List[tuple]]:
        """Per-core local-variable bundles for :meth:`access_data`.

        Like the engine's loop statics: cache storage arrays are
        mutated in place, never rebound, so a call pays one tuple
        unpack.  ``orders`` (``l2_ordersl`` for the L2 slices) holds
        the per-set order lists when the policy always inserts at MRU
        (LRU/FIFO), else None: those fills go through
        :meth:`~repro.cache.cache.Cache.miss_fill`.
        """
        l2_caches = self.l2
        l2 = l2_caches[0]
        l2_mru = l2.policy.insert_mode == "mru"
        noc = self.noc
        shared = (
            self._directory,
            self.l1d,
            self._lost_to_invalidation,
            self._num_cores,
            noc,
            noc._hops,
            noc._latency,
            l2_caches,
            [c._where for c in l2_caches],
            [c._slot_blocks for c in l2_caches],
            [c._slot_tags for c in l2_caches],
            [c._set_len for c in l2_caches],
            [c.policy.orders for c in l2_caches] if l2_mru else None,
            [c.policy.hit_array for c in l2_caches],
            [c.stats for c in l2_caches],
            l2.policy.hit_mode,
            l2.assoc,
            l2.num_sets,
            l2._set_mask if l2._power_of_two else None,
            self.dram.access,
        )
        statics = []
        for core in range(self._num_cores):
            l1d = self.l1d[core]
            policy = l1d.policy
            statics.append((
                l1d,
                l1d._where,
                l1d._slot_blocks,
                l1d._slot_tags,
                l1d._set_len,
                l1d.assoc,
                l1d.num_sets,
                l1d._set_mask if l1d._power_of_two else None,
                policy.orders if policy.insert_mode == "mru" else None,
                policy.hit_mode,
                policy.hit_array,
                l1d.stats,
                l1d.config.hit_latency,
                self._lost_to_invalidation[core],
                noc._hops[core],
                self._l2_roundtrip[core],
            ) + shared)
        return statics

    def access_data(self, core: int, block: int, write: bool) -> int:
        """Demand data access; returns latency in cycles.

        Flat, as the event loops are: the L1-D probe and fill, the
        home-slice L2 hit and fill and the dirty-remote forward are
        inlined over the flat layout.  A fill rotates the set's order
        list for policies that always insert at MRU and calls
        ``miss_fill`` for every other policy; an L2 miss calls DRAM.
        Each L2 request and each forward counts one NoC message and
        its hops, as ``noc.latency`` does.  The reference hierarchy
        (:mod:`repro.verify.reference`) keeps the generic route
        through the cache layer, and the parity tests require both to
        agree.
        """
        (l1d, where, slot_blocks, tags, set_len, assoc, nsets, mask,
         orders, hit_mode, hit_array, stats, latency, lost, hops_row,
         lat2_row, directory, l1ds, losts, num_cores, noc, hops, links,
         l2_caches, l2_wheres, l2_blocks, l2_tagsl, l2_set_len,
         l2_ordersl, l2_hit_arrays, l2_statsl, l2_mode, l2_assoc,
         l2_nsets, l2_mask, dram_access) = self._data_statics[core]
        entry = directory.get(block)
        slot = where.get(block)
        if slot is not None:
            stats.hits += 1
            if hit_mode == "mru":
                order = hit_array[slot]
                if order[-1] != slot:
                    order.remove(slot)
                    order.append(slot)
            elif hit_mode == "zero":
                hit_array[slot] = 0
            tags[slot] = 0
        else:
            # L1-D miss: fill ...
            dset = block & mask if mask is not None else block % nsets
            if orders is None:
                l1d.miss_fill(block, 0, dset)
            else:
                stats.misses += 1
                order = orders[dset]
                if set_len[dset] < assoc:
                    base = dset * assoc
                    slot = slot_blocks.index(None, base, base + assoc)
                    set_len[dset] += 1
                    order.remove(slot)
                else:
                    slot = order.pop(0)
                    victim = slot_blocks[slot]
                    if l1d.victim_callback is not None:
                        l1d.victim_callback(victim, tags[slot])
                    stats.evictions += 1
                    del where[victim]
                slot_blocks[slot] = block
                tags[slot] = 0
                where[block] = slot
                order.append(slot)
            if block in lost:
                lost.discard(block)
                self.coherence_misses[core] += 1
            # ... then the home L2 slice over the torus ...
            self.l2_demand_traffic += 1
            sid = block % num_cores
            noc.messages += 1
            noc.total_hops += hops_row[sid]
            latency += lat2_row[sid]
            slot = l2_wheres[sid].get(block)
            if slot is not None:
                l2_statsl[sid].hits += 1
                if l2_mode == "mru":
                    order = l2_hit_arrays[sid][slot]
                    if order[-1] != slot:
                        order.remove(slot)
                        order.append(slot)
                elif l2_mode == "zero":
                    l2_hit_arrays[sid][slot] = 0
                l2_tagsl[sid][slot] = 0
            else:
                set2 = block & l2_mask if l2_mask is not None \
                    else block % l2_nsets
                if l2_ordersl is None:
                    l2_caches[sid].miss_fill(block, 0, set2)
                else:
                    stats2 = l2_statsl[sid]
                    stats2.misses += 1
                    blocks2 = l2_blocks[sid]
                    tags2 = l2_tagsl[sid]
                    order = l2_ordersl[sid][set2]
                    if l2_set_len[sid][set2] < l2_assoc:
                        base = set2 * l2_assoc
                        slot = blocks2.index(None, base, base + l2_assoc)
                        l2_set_len[sid][set2] += 1
                        order.remove(slot)
                    else:
                        slot = order.pop(0)
                        victim = blocks2[slot]
                        callback = l2_caches[sid].victim_callback
                        if callback is not None:
                            callback(victim, tags2[slot])
                        stats2.evictions += 1
                        del l2_wheres[sid][victim]
                    blocks2[slot] = block
                    tags2[slot] = 0
                    l2_wheres[sid][block] = slot
                    order.append(slot)
                latency += dram_access(block)
            # ... and, when a remote L1-D holds it dirty, the forward
            # from the home slice to the owner.
            if entry is not None:
                owner = entry.owner
                if owner is not None and owner != core:
                    noc.messages += 1
                    noc.total_hops += hops[sid][owner]
                    latency += links[sid][owner]
        if entry is None:
            entry = CoherenceState()
            directory[block] = entry
        if write:
            for sharer in entry.sharers:
                if sharer != core:
                    if l1ds[sharer].invalidate(block):
                        losts[sharer].add(block)
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
