"""The reference kernel: the differential oracle.

``SimulationEngine(..., reference=True)`` (and everything that forwards
``reference=`` to it) builds a :class:`ReferenceHierarchy` instead of a
:class:`~repro.cache.hierarchy.MemoryHierarchy` and runs
:func:`run_events_reference` instead of one of the fast kernel's two
loops.  Its caches keep the original per-set-dict layout
(:class:`ReferenceCache`) driven by the original recency-stack and
nested-RRPV replacement policies (the ``Reference*Policy`` family), its
L2 access and data path take the generic ``noc.latency`` +
:meth:`Cache.access` route, and its loop makes each of these steps a
call: one :meth:`ReferenceCache.access` per instruction fetch, the
prefetcher's ``covers``/``record``/``on_fetch`` per miss,
``access_data`` per data reference.  The oracle owns its cache, its
policies, its L2 route, its data path and its loop; the fast kernel
shares none of them.

Nothing here is on a production path.  It exists so the parity tests,
``repro diff --reference``, the fuzz harness and ``repro perf`` can
require byte-equal results between two independent implementations of
the cache layer and the event loop (DESIGN.md, decision 12).  Both
families consume the RNG at exactly the same call sites, in the same
order, so stochastic policies (BIP/DIP/BRRIP) stay bit-reproducible
across kernels.

This module is imported lazily, only by engines built with
``reference=True``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Optional

from repro.cache.cache import Cache, VictimCallback
from repro.cache.hierarchy import CoherenceState, MemoryHierarchy
from repro.cache.replacement import (
    BipPolicy,
    BrripPolicy,
    DipPolicy,
    SrripPolicy,
)
from repro.config import CacheConfig


# ----------------------------------------------------------------------
# Replacement policies (pre-optimization structures)
# ----------------------------------------------------------------------
class _ReferencePolicy:
    """The classic ``(set_index, way)`` interface that
    :class:`ReferenceCache` drives: a hit, an insertion, the choice of
    a victim and a demand miss, per set.  The fast kernel's
    :class:`~repro.cache.replacement.ReplacementPolicy` family has no
    such methods; it is slot-based and its hits are inlined."""

    name = "abstract"

    def __init__(self, num_sets: int, assoc: int, rng: random.Random):
        self.num_sets = num_sets
        self.assoc = assoc
        self.rng = rng

    def on_hit(self, set_index: int, way: int) -> None:
        """A block in ``way`` of ``set_index`` was re-referenced."""
        raise NotImplementedError

    def on_insert(self, set_index: int, way: int) -> None:
        """A new block was filled into ``way`` of ``set_index``."""
        raise NotImplementedError

    def victim_way(self, set_index: int) -> int:
        """Choose the way to evict from a full set."""
        raise NotImplementedError

    def on_miss(self, set_index: int) -> None:
        """A demand miss occurred in ``set_index`` (used by set dueling)."""


class ReferenceRandomPolicy(_ReferencePolicy):
    """Uniform random victim; one ``randrange`` per victim, as the fast
    :class:`~repro.cache.replacement.RandomPolicy` draws."""

    name = "random"

    def on_hit(self, set_index: int, way: int) -> None:
        pass

    def on_insert(self, set_index: int, way: int) -> None:
        pass

    def victim_way(self, set_index: int) -> int:
        return self.rng.randrange(self.assoc)


class _ReferenceStackPolicy(_ReferencePolicy):
    """Recency stacks as per-set Python lists, ordered MRU-first.

    This is the original implementation, with the classic ``(set_index,
    way)`` interface; the fast policies keep the same order reversed
    (LRU first) in per-set slot lists.  It remains the ground truth for
    the parity suite.
    """

    promote_on_hit = True

    def __init__(self, num_sets: int, assoc: int, rng: random.Random):
        super().__init__(num_sets, assoc, rng)
        self._stacks: List[List[int]] = [
            list(range(assoc)) for _ in range(num_sets)
        ]

    def on_hit(self, set_index: int, way: int) -> None:
        if self.promote_on_hit:
            stack = self._stacks[set_index]
            stack.remove(way)
            stack.insert(0, way)

    def _insert_position(self, set_index: int) -> int:
        raise NotImplementedError

    def on_insert(self, set_index: int, way: int) -> None:
        stack = self._stacks[set_index]
        stack.remove(way)
        stack.insert(self._insert_position(set_index), way)

    def victim_way(self, set_index: int) -> int:
        return self._stacks[set_index][-1]


class ReferenceLruPolicy(_ReferenceStackPolicy):
    name = "lru"

    def _insert_position(self, set_index: int) -> int:
        return 0


class ReferenceFifoPolicy(_ReferenceStackPolicy):
    name = "fifo"
    promote_on_hit = False

    def _insert_position(self, set_index: int) -> int:
        return 0


class ReferenceLipPolicy(_ReferenceStackPolicy):
    name = "lip"

    def _insert_position(self, set_index: int) -> int:
        return self.assoc - 1


class ReferenceBipPolicy(_ReferenceStackPolicy):
    name = "bip"
    epsilon = BipPolicy.epsilon

    def _insert_position(self, set_index: int) -> int:
        if self.rng.random() < self.epsilon:
            return 0
        return self.assoc - 1


class ReferenceDipPolicy(_ReferenceStackPolicy):
    name = "dip"
    psel_bits = DipPolicy.psel_bits
    leader_period = DipPolicy.leader_period

    def __init__(self, num_sets: int, assoc: int, rng: random.Random):
        super().__init__(num_sets, assoc, rng)
        self._psel = (1 << self.psel_bits) // 2
        self._psel_max = (1 << self.psel_bits) - 1

    _set_role = DipPolicy._set_role
    on_miss = DipPolicy.on_miss
    _bip_position = DipPolicy._bip_position
    _insert_position = DipPolicy._insert_position


class ReferenceSrripPolicy(_ReferencePolicy):
    """SRRIP over per-set RRPV lists (the original nested layout)."""

    name = "srrip"
    rrpv_bits = SrripPolicy.rrpv_bits

    def __init__(self, num_sets: int, assoc: int, rng: random.Random):
        super().__init__(num_sets, assoc, rng)
        self.rrpv_max = (1 << self.rrpv_bits) - 1
        self._rrpv: List[List[int]] = [
            [self.rrpv_max] * assoc for _ in range(num_sets)
        ]

    def on_hit(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = 0

    def _insert_rrpv(self) -> int:
        return self.rrpv_max - 1

    def on_insert(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self._insert_rrpv()

    def victim_way(self, set_index: int) -> int:
        rrpvs = self._rrpv[set_index]
        while True:
            for way, value in enumerate(rrpvs):
                if value == self.rrpv_max:
                    return way
            for way in range(self.assoc):
                rrpvs[way] += 1


class ReferenceBrripPolicy(ReferenceSrripPolicy):
    name = "brrip"
    epsilon = BrripPolicy.epsilon

    def _insert_rrpv(self) -> int:
        if self.rng.random() < self.epsilon:
            return self.rrpv_max - 1
        return self.rrpv_max


_REFERENCE_POLICIES: Dict[str, Callable[..., _ReferencePolicy]]
_REFERENCE_POLICIES = {
    cls.name: cls
    for cls in (
        ReferenceLruPolicy,
        ReferenceFifoPolicy,
        ReferenceRandomPolicy,
        ReferenceLipPolicy,
        ReferenceBipPolicy,
        ReferenceDipPolicy,
        ReferenceSrripPolicy,
        ReferenceBrripPolicy,
    )
}


# ----------------------------------------------------------------------
# Cache and hierarchy
# ----------------------------------------------------------------------
class _Residents:
    """``block in view`` over a :class:`ReferenceCache`: the membership
    test of the fast cache's ``_where`` dict, answered by
    :meth:`ReferenceCache.contains`."""

    __slots__ = ("_cache",)

    def __init__(self, cache: "ReferenceCache"):
        self._cache = cache

    def __contains__(self, block: int) -> bool:
        return self._cache.contains(block)


class ReferenceCache(Cache):
    """The pre-optimization per-set-dict layout (parity ground truth).

    Pairs with the reference replacement policies so the whole original
    path stays intact for differential testing.
    """

    def __init__(
        self,
        config: CacheConfig,
        rng: Optional[random.Random] = None,
        victim_callback: Optional[VictimCallback] = None,
        name: str = "cache",
    ):
        super().__init__(config, rng=rng, victim_callback=victim_callback,
                         name=name)
        # The base class validated the name and built the flat policy;
        # swap in the reference one on the same RNG object, so both
        # kernels draw at the same call sites.
        self.policy = _REFERENCE_POLICIES[config.replacement](
            self.num_sets, self.assoc, self.policy.rng)
        # Code that probes ``block in cache._where`` (SLICC's signature
        # match) gets its answer from the per-set dicts.
        self._where = _Residents(self)

    def _init_storage(self) -> None:
        # Per-set mapping of resident block -> way, plus per-way arrays
        # of the resident block (or None) and its metadata tag.
        self._lookup: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self._blocks: List[List[Optional[int]]] = [
            [None] * self.assoc for _ in range(self.num_sets)
        ]
        self._tags: List[List[int]] = [
            [0] * self.assoc for _ in range(self.num_sets)
        ]

    def contains(self, block: int) -> bool:
        return block in self._lookup[self.set_index(block)]

    def tag_of(self, block: int) -> Optional[int]:
        set_index = self.set_index(block)
        way = self._lookup[set_index].get(block)
        if way is None:
            return None
        return self._tags[set_index][way]

    def resident_blocks(self) -> Iterator[int]:
        for mapping in self._lookup:
            yield from mapping

    @property
    def occupancy(self) -> int:
        return sum(len(mapping) for mapping in self._lookup)

    def access(self, block: int, tag: int = 0) -> bool:
        set_index = self.set_index(block)
        way = self._lookup[set_index].get(block)
        if way is not None:
            self.stats.hits += 1
            self.policy.on_hit(set_index, way)
            self._tags[set_index][way] = tag
            return True
        self.stats.misses += 1
        self.policy.on_miss(set_index)
        self._fill(set_index, block, tag)
        return False

    def _fill(self, set_index: int, block: int, tag: int) -> None:
        mapping = self._lookup[set_index]
        blocks = self._blocks[set_index]
        if len(mapping) < self.assoc:
            way = blocks.index(None)
        else:
            way = self.policy.victim_way(set_index)
            victim = blocks[way]
            assert victim is not None
            if self.victim_callback is not None:
                self.victim_callback(victim, self._tags[set_index][way])
            self.stats.evictions += 1
            del mapping[victim]
        blocks[way] = block
        self._tags[set_index][way] = tag
        mapping[block] = way
        self.policy.on_insert(set_index, way)

    def invalidate(self, block: int) -> bool:
        set_index = self.set_index(block)
        way = self._lookup[set_index].pop(block, None)
        if way is None:
            return False
        self._blocks[set_index][way] = None
        self.stats.invalidations += 1
        return True


class ReferenceHierarchy(MemoryHierarchy):
    """:class:`MemoryHierarchy` over :class:`ReferenceCache` everywhere,
    with the generic L2 access and data path.

    The L2 route charges ``2 * noc.latency`` plus the slice's hit
    latency and goes through :meth:`ReferenceCache.access`; it never
    reads the fast hierarchy's precomputed round-trip table, so a bug
    in that table diverges the two kernels instead of hitting both.
    :meth:`access_data` is the generic data path: one
    :meth:`ReferenceCache.access` for the L1-D, :meth:`_l2_access` on
    a miss and ``noc.latency`` for a dirty remote forward.
    """

    cache_class = ReferenceCache

    def _build_data_statics(self) -> None:
        """The generic data path reads no statics."""
        return None

    def _l2_access(self, core: int, block: int) -> int:
        self.l2_demand_traffic += 1
        slice_id = self.home_slice(block)
        slice_cache = self.l2[slice_id]
        latency = 2 * self.noc.latency(core, slice_id)
        latency += slice_cache.config.hit_latency
        if not slice_cache.access(block):
            latency += self.dram.access(block)
        return latency

    def access_data(self, core: int, block: int, write: bool) -> int:
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


# ----------------------------------------------------------------------
# Event loop
# ----------------------------------------------------------------------
def run_events_reference(
    engine,
    core: int,
    thread,
    max_events: int,
    tag: int = 0,
    switch_floor: Optional[int] = None,
    miss_log: Optional[list] = None,
    stop_after_misses: int = 0,
) -> int:
    """The reference kernel's event loop, bound to an engine built
    with ``reference=True``.

    Same contract as :meth:`repro.sim.engine.SimulationEngine.run_events`,
    written as plainly as possible: every L1-I fetch is one
    :meth:`ReferenceCache.access`, every L1-I miss asks the prefetcher
    through ``covers``, ``record`` and ``on_fetch`` and charges
    ``_l2_access``, every hit calls ``on_fetch``, every data reference
    goes through ``access_data``, and switch requests and the miss
    bound are checked after every event.  The fast kernel's two loops
    inline all of this and must match it bit for bit.
    """
    engine.kernel_calls += 1
    iblocks, ilens, dblocks, dwrites = thread.trace.event_columns()
    n_events = len(iblocks)
    pos = thread.pos
    end = min(n_events, pos + max_events)
    hier = engine.hier
    l1i_access = hier.l1i[core].access
    l1d_hit_latency = hier.l1d[core].config.hit_latency
    access_data = hier.access_data
    l2_access = hier._l2_access
    prefetcher = hier.prefetcher
    use_prefetcher = engine.prefetcher_active
    cpi = engine.config.core.base_cpi
    covered_fraction = engine.config.core.covered_stall_fraction
    cycles = 0.0
    instructions = 0
    start = pos

    while pos < end:
        iblock = iblocks[pos]
        ilen = ilens[pos]
        instructions += ilen
        hit = l1i_access(iblock, tag)
        cycles += ilen * cpi
        if not hit:
            if use_prefetcher:
                covered = prefetcher.covers(core, iblock)
                prefetcher.record(covered)
                prefetcher.on_fetch(core, iblock, False)
                latency = l2_access(core, iblock)
                if covered:
                    # Prefetched, but the block still consumed L2
                    # bandwidth (the paper's partial contention
                    # model for PIF).
                    cycles += latency * covered_fraction
                else:
                    cycles += latency
            else:
                cycles += l2_access(core, iblock)
            if miss_log is not None:
                miss_log.append(iblock)
        elif use_prefetcher:
            prefetcher.on_fetch(core, iblock, True)
        dblock = dblocks[pos]
        if dblock >= 0:
            cycles += (
                access_data(core, dblock, dwrites[pos])
                - l1d_hit_latency
            )
        pos += 1
        if switch_floor is not None and engine.switch_requested:
            if pos - start >= switch_floor or pos == n_events:
                break
            # Below the progress floor: absorb the request.
            engine.switch_requested = False
            engine.core_time[core] += int(cycles)
            cycles = 0.0
            end = min(n_events, pos + max_events)
        if stop_after_misses and miss_log is not None \
                and len(miss_log) >= stop_after_misses:
            break

    thread.pos = pos
    thread.instructions_done += instructions
    engine.total_instructions += instructions
    engine.core_time[core] += int(cycles)
    return pos - start
