"""Set-associative cache model.

The cache works at block granularity: callers pass *block numbers*
(``address >> BLOCK_SHIFT``).  It supports:

* pluggable replacement policies (see :mod:`repro.cache.replacement`);
* a *victim callback* fired before any eviction -- this is the observation
  point STREX uses to detect end-of-phase (Section 4.2, step 3);
* per-block metadata tags, used as the auxiliary phaseID table (PIDT,
  Section 4.3);
* hit/miss/eviction statistics and MPKI accounting.

The model is a pure presence/replacement simulator: latency is charged by
the owning hierarchy/core model, not here.

Storage layout (the fast path): one global ``{block -> slot}`` dict plus
flat per-slot block/tag arrays, where ``slot = set_index * assoc + way``.
An access is a single dict probe instead of a set-index computation plus
a per-set dict probe, and fills index flat arrays.  The original
per-set-dict layout survives only as the differential oracle,
:class:`repro.verify.reference.ReferenceCache`; the parity tests assert
both produce bit-identical simulations.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Optional

from repro.config import CacheConfig
from repro.cache.replacement import ReplacementPolicy, make_policy

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
            config.replacement, self.num_sets, self.assoc, rng)
        self.victim_callback = victim_callback
        self.stats = CacheStats()
        # Hot-path dispatch hint: whether on_miss is a real override
        # (only set-dueling policies implement it).
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
        slot = self._where.get(block)
        if slot is not None:
            self.stats.hits += 1
            policy = self.policy
            mode = policy.hit_mode
            if mode == "mru":
                order = policy.hit_array[slot]
                if order[-1] != slot:
                    order.remove(slot)
                    order.append(slot)
            elif mode == "zero":
                policy.hit_array[slot] = 0
            self._slot_tags[slot] = tag
            return True
        # The flattened fill: one call per miss instead of three.
        self.miss_fill(block, tag, block & self._set_mask
                       if self._power_of_two else block % self.num_sets)
        return False

    def miss_fill(self, block: int, tag: int, set_index: int) -> None:
        """Demand-miss bookkeeping with a precomputed set index.

        The caller -- :meth:`access`, the general event loop's L2 fill
        or :meth:`~repro.cache.hierarchy.MemoryHierarchy.access_data`'s
        fill under a policy that does not always insert at MRU --
        already established the block is absent; this charges the miss
        and fills, in one call per miss.  A cold fill takes the set's
        first free slot and records it with
        :meth:`~repro.cache.replacement.ReplacementPolicy.insert_slot`;
        a full set is filled by one
        :meth:`~repro.cache.replacement.ReplacementPolicy.replace`
        call, which picks the victim and records the insert, before the
        victim callback fires.  The fills the event loops and
        ``access_data`` inline follow the same steps.
        """
        self.stats.misses += 1
        policy = self.policy
        if self._policy_has_on_miss:
            policy.on_miss(set_index)
        if self._set_len[set_index] < self.assoc:
            base = set_index * self.assoc
            slot = self._slot_blocks.index(None, base, base + self.assoc)
            self._set_len[set_index] += 1
            policy.insert_slot(slot)
        else:
            slot = policy.replace(set_index)
            victim = self._slot_blocks[slot]
            if self.victim_callback is not None:
                self.victim_callback(victim, self._slot_tags[slot])
            self.stats.evictions += 1
            del self._where[victim]
        self._slot_blocks[slot] = block
        self._slot_tags[slot] = tag
        self._where[block] = slot

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` (coherence invalidation).  No victim callback
        is fired: an invalidation is not a capacity eviction.

        Returns True if the block was resident."""
        slot = self._where.pop(block, None)
        if slot is None:
            return False
        self._slot_blocks[slot] = None
        self._set_len[slot // self.assoc] -= 1
        self.stats.invalidations += 1
        return True
