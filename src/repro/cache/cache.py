"""Set-associative cache model.

The cache works at block granularity: callers pass *block numbers*
(``address >> BLOCK_SHIFT``).  It supports:

* pluggable replacement policies (see :mod:`repro.cache.replacement`);
* a *victim callback* fired before any eviction -- this is the observation
  point STREX uses to detect end-of-phase (Section 4.2, step 3);
* per-block metadata tags, used as the auxiliary phaseID table (PIDT,
  Section 4.3) and by the FPTable profiler (Section 5.5);
* hit/miss/eviction statistics and MPKI accounting.

The model is a pure presence/replacement simulator: latency is charged by
the owning hierarchy/core model, not here.

Storage layout (the fast path): one global ``{block -> slot}`` dict plus
flat per-slot block/tag arrays, where ``slot = set_index * assoc + way``.
An access is a single dict probe instead of a set-index computation plus
a per-set dict probe, and fills index flat arrays.  The original
per-set-dict layout survives as :class:`ReferenceCache`;
:func:`make_cache` picks the implementation from
:func:`repro.fastpath.reference_mode`, and the parity tests assert both
produce bit-identical simulations.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.config import CacheConfig
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.fastpath import reference_mode

VictimCallback = Callable[[int, int], None]
"""Called as ``callback(block, tag_value)`` just before ``block`` is
evicted; ``tag_value`` is the block's metadata tag (phaseID)."""


class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses / accesses, or 0.0 if the cache was never accessed."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction relative to ``instructions``."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / instructions

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def snapshot(self) -> Dict[str, int]:
        """Counters as a plain dict (for reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class Cache:
    """A set-associative, block-granularity cache (flat-slot layout).

    Args:
        config: geometry and replacement policy.
        rng: RNG used by stochastic replacement policies.
        victim_callback: invoked before each eviction with
            ``(block, tag)``; may be replaced at runtime via
            :attr:`victim_callback`.
        name: label used in reports.
    """

    #: Which replacement-policy family the cache pairs with.
    _reference = False

    def __init__(
        self,
        config: CacheConfig,
        rng: Optional[random.Random] = None,
        victim_callback: Optional[VictimCallback] = None,
        name: str = "cache",
    ):
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self._set_mask = self.num_sets - 1
        self._power_of_two = self.num_sets & (self.num_sets - 1) == 0
        rng = rng if rng is not None else random.Random(0)
        self.policy: ReplacementPolicy = make_policy(
            config.replacement, self.num_sets, self.assoc, rng,
            reference=self._reference,
        )
        self.victim_callback = victim_callback
        self.stats = CacheStats()
        #: Monotonic mutation counter: every state change through the
        #: public API (fills, hits' tag/recency updates, invalidations,
        #: flushes, tag rewrites) bumps it.  The engine's hit-run
        #: fast-forward uses it as a conservative residency signature
        #: -- a memoized hit-run delta is only reapplied when the
        #: version it was keyed on still holds.
        #: The engine's inlined loops bump it in bulk (once per fill)
        #: at loop exit.
        self.version = 0
        # Hot-path dispatch hints: whether on_miss is a real override
        # (only set-dueling policies implement it) and whether inserts
        # can be inlined as an MRU age stamp.
        self._policy_has_on_miss = (
            type(self.policy).on_miss is not ReplacementPolicy.on_miss
        )
        self._init_storage()

    def _init_storage(self) -> None:
        # block -> slot for all residents, plus flat per-slot arrays of
        # the resident block (or None), its metadata tag, and a per-set
        # occupancy count (fast "is the set full yet" checks).
        num_slots = self.num_sets * self.assoc
        self._where: Dict[int, int] = {}
        self._slot_blocks: List[Optional[int]] = [None] * num_slots
        self._slot_tags: List[int] = [0] * num_slots
        self._set_len: List[int] = [0] * self.num_sets

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def set_index(self, block: int) -> int:
        """Map a block number to its set."""
        if self._power_of_two:
            return block & self._set_mask
        return block % self.num_sets

    # ------------------------------------------------------------------
    # Presence queries (no statistics side effects)
    # ------------------------------------------------------------------
    def contains(self, block: int) -> bool:
        """True if ``block`` is resident.  Does not touch stats or LRU."""
        return block in self._where

    def count_resident(self, blocks: Iterable[int]) -> int:
        """How many of ``blocks`` are resident (duplicates count each
        time).  Does not touch stats or LRU."""
        return sum(map(self._where.__contains__, blocks))

    def tag_of(self, block: int) -> Optional[int]:
        """Metadata tag of a resident block, or None if absent."""
        slot = self._where.get(block)
        if slot is None:
            return None
        return self._slot_tags[slot]

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over all resident block numbers."""
        yield from self._where

    @property
    def occupancy(self) -> int:
        """Number of resident blocks."""
        return len(self._where)

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, block: int, tag: int = 0) -> bool:
        """Demand access to ``block``; fills on miss.

        The block's metadata tag is set to ``tag`` whether the access hit
        or missed (STREX tags blocks with the current phaseID on every
        touch -- Section 4.2, step 2).

        Returns:
            True on hit, False on miss.
        """
        self.version += 1
        slot = self._where.get(block)
        if slot is not None:
            self.stats.hits += 1
            policy = self.policy
            mode = policy.hit_mode
            if mode == "age":
                policy._ages[slot] = policy._tick
                policy._tick += 1
            elif mode == "zero":
                policy.hit_array[slot] = 0
            elif mode == "call":
                policy.hit_slot(slot)
            self._slot_tags[slot] = tag
            return True
        # The flattened fill: one call per miss instead of three.  With
        # the bump above the version moves by two, a probe plus a fill.
        self.miss_fill(block, tag, block & self._set_mask
                       if self._power_of_two else block % self.num_sets)
        return False

    def miss_fill(self, block: int, tag: int, set_index: int) -> None:
        """Demand-miss bookkeeping with a precomputed set index.

        The caller -- :meth:`access`, the inlined L2 access
        (:meth:`~repro.cache.hierarchy.MemoryHierarchy._l2_access_fast`)
        or the general event loop's inlined L1-I probe -- already
        established the block is absent; this charges the miss and
        fills.  The body is :meth:`_fill` flattened in (one call per
        miss instead of four on the LRU default).
        """
        self.version += 1
        self.stats.misses += 1
        policy = self.policy
        if self._policy_has_on_miss:
            policy.on_miss(set_index)
        if self._set_len[set_index] < self.assoc:
            base = set_index * self.assoc
            slot = self._slot_blocks.index(None, base, base + self.assoc)
            self._set_len[set_index] += 1
        else:
            slot = policy.victim_slot(set_index)
            victim = self._slot_blocks[slot]
            if self.victim_callback is not None:
                self.victim_callback(victim, self._slot_tags[slot])
            self.stats.evictions += 1
            del self._where[victim]
        self._slot_blocks[slot] = block
        self._slot_tags[slot] = tag
        self._where[block] = slot
        if policy.insert_mode == "age_mru":
            policy._ages[slot] = policy._tick
            policy._tick += 1
        else:
            policy.insert_slot(slot)

    def probe(self, block: int) -> bool:
        """Like :meth:`access` but never fills; still counts stats and
        updates recency on hit.  Used by the idealized PIF model, where
        the L1-I never stalls but would-miss traffic is tracked."""
        self.version += 1
        slot = self._where.get(block)
        if slot is not None:
            self.stats.hits += 1
            self.policy.hit_slot(slot)
            return True
        self.stats.misses += 1
        if self._policy_has_on_miss:
            self.policy.on_miss(self.set_index(block))
        return False

    def fill(self, block: int, tag: int = 0) -> None:
        """Install ``block`` without a demand access (prefetch fill)."""
        if block in self._where:
            return
        self._fill(self.set_index(block), block, tag)

    def _fill(self, set_index: int, block: int, tag: int) -> None:
        self.version += 1
        if self._set_len[set_index] < self.assoc:
            base = set_index * self.assoc
            slot = self._slot_blocks.index(None, base, base + self.assoc)
            self._set_len[set_index] += 1
        else:
            slot = self.policy.victim_slot(set_index)
            victim = self._slot_blocks[slot]
            assert victim is not None
            if self.victim_callback is not None:
                self.victim_callback(victim, self._slot_tags[slot])
            self.stats.evictions += 1
            del self._where[victim]
        self._slot_blocks[slot] = block
        self._slot_tags[slot] = tag
        self._where[block] = slot
        policy = self.policy
        if policy.insert_mode == "age_mru":
            policy._ages[slot] = policy._tick
            policy._tick += 1
        else:
            policy.insert_slot(slot)

    def set_tag(self, block: int, tag: int) -> bool:
        """Overwrite the metadata tag of a resident block.

        Returns True if the block was resident."""
        slot = self._where.get(block)
        if slot is None:
            return False
        self.version += 1
        self._slot_tags[slot] = tag
        return True

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` (coherence invalidation).  No victim callback
        is fired: an invalidation is not a capacity eviction.

        Returns True if the block was resident."""
        slot = self._where.pop(block, None)
        if slot is None:
            return False
        self.version += 1
        self._slot_blocks[slot] = None
        self._set_len[slot // self.assoc] -= 1
        self.stats.invalidations += 1
        return True

    def reset_tags(self, tag: int = 0) -> None:
        """Set every resident block's metadata tag to ``tag`` (used when
        the FPTable profiler resets all phaseID tables -- Section 5.5)."""
        self.version += 1
        tags = self._slot_tags
        for slot in self._where.values():
            tags[slot] = tag

    def flush(self) -> None:
        """Empty the cache without firing victim callbacks.

        Mutates the storage arrays in place: the engine's specialized
        loops capture references to them once at construction.
        """
        self.version += 1
        self._where.clear()
        num_slots = self.num_sets * self.assoc
        self._slot_blocks[:] = [None] * num_slots
        self._set_len[:] = [0] * self.num_sets


class ReferenceCache(Cache):
    """The pre-optimization per-set-dict layout (parity ground truth).

    Selected by ``REPRO_SIM_REFERENCE=1`` via :func:`make_cache`; pairs
    with the reference recency-stack policies so the whole original
    path stays intact for differential testing.
    """

    _reference = True

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

    def count_resident(self, blocks: Iterable[int]) -> int:
        return sum(map(self.contains, blocks))

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
        self.version += 1
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

    def probe(self, block: int) -> bool:
        self.version += 1
        set_index = self.set_index(block)
        way = self._lookup[set_index].get(block)
        if way is not None:
            self.stats.hits += 1
            self.policy.on_hit(set_index, way)
            return True
        self.stats.misses += 1
        self.policy.on_miss(set_index)
        return False

    def fill(self, block: int, tag: int = 0) -> None:
        set_index = self.set_index(block)
        if block in self._lookup[set_index]:
            return
        self._fill(set_index, block, tag)

    def _fill(self, set_index: int, block: int, tag: int) -> None:
        self.version += 1
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

    def set_tag(self, block: int, tag: int) -> bool:
        set_index = self.set_index(block)
        way = self._lookup[set_index].get(block)
        if way is None:
            return False
        self.version += 1
        self._tags[set_index][way] = tag
        return True

    def invalidate(self, block: int) -> bool:
        set_index = self.set_index(block)
        way = self._lookup[set_index].pop(block, None)
        if way is None:
            return False
        self.version += 1
        self._blocks[set_index][way] = None
        self.stats.invalidations += 1
        return True

    def reset_tags(self, tag: int = 0) -> None:
        self.version += 1
        for set_index, mapping in enumerate(self._lookup):
            tags = self._tags[set_index]
            for way in mapping.values():
                tags[way] = tag

    def flush(self) -> None:
        self.version += 1
        for set_index in range(self.num_sets):
            self._lookup[set_index].clear()
            self._blocks[set_index] = [None] * self.assoc


def make_cache(
    config: CacheConfig,
    rng: Optional[random.Random] = None,
    victim_callback: Optional[VictimCallback] = None,
    name: str = "cache",
) -> Cache:
    """Build a cache on the path selected by ``REPRO_SIM_REFERENCE``."""
    cls = ReferenceCache if reference_mode() else Cache
    return cls(config, rng=rng, victim_callback=victim_callback,
               name=name)
