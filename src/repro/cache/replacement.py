"""Cache replacement policies (Section 5.7 of the paper).

Each policy manages the recency/re-reference state of one cache and is
driven by three events per set: a hit, an insertion, and the choice of a
victim.  Implemented policies:

* ``lru``    -- least-recently-used.
* ``fifo``   -- insertion order.
* ``random`` -- uniform random victim.
* ``lip``    -- LRU Insertion Policy (Qureshi et al., ISCA'07): insert at
  the LRU position, promote to MRU on hit.
* ``bip``    -- Bimodal Insertion Policy: LIP, but insert at MRU with a
  small probability epsilon.
* ``dip``    -- Dynamic Insertion Policy: set-duels LRU against BIP.
* ``srrip``  -- Static Re-Reference Interval Prediction (Jaleel et al.,
  ISCA'10) with 2-bit RRPVs, hit-priority promotion.
* ``brrip``  -- Bimodal RRIP: inserts with distant RRPV most of the time.

The interface is slot-based (slot = ``set_index * assoc + way``).  A
hit is never a call: the flat cache and the fast event loop inline it by
the policy's :attr:`~ReplacementPolicy.hit_mode`.  A cold fill goes
through :meth:`~ReplacementPolicy.insert_slot`, and a full set is
filled through :meth:`~ReplacementPolicy.replace` (victim choice and
insert update in one call, which the fast event loop inlines by
:attr:`~ReplacementPolicy.insert_mode`).  Recency policies keep
each set's stack order as one list of its slots, least recently used
first: the victim is the list's head, read without a scan, and a hit or
insertion moves one slot to an end of a list of ``assoc`` entries.

The pre-optimization recency-stack implementations, with the classic
``(set_index, way)`` interface, live on as the differential oracle in
:mod:`repro.verify.reference`; the parity test suite runs both and
asserts bit-identical simulation results.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional


class ReplacementPolicy:
    """Interface for per-set replacement state machines.

    Concrete policies implement the slot-based fill interface
    (``insert_slot``/``victim_slot``, optionally a fused ``replace``)
    and declare how a hit updates their state (``hit_mode``).

    Attributes:
        hit_mode: how the owning cache and engine inline the hit update
            -- ``"mru"`` (move the slot to the end of its set's order
            list, ``hit_array[slot]``, unless it is there already),
            ``"zero"`` (store 0 into :attr:`hit_array`) or ``"none"``
            (hits do not touch policy state).  Every policy sets one:
            the flat cache and the fast event loop inline the hit update;
            there is no hit method.
        hit_array: the flat per-slot array ``hit_mode`` refers to.
        insert_mode: how the fast event loop may inline a full-set fill --
            ``"mru"`` (policies that always insert at MRU: rotate the
            set's order list, moving its head, the victim, to the end)
            or ``"call"`` (invoke :meth:`replace`).
    """

    name = "abstract"
    hit_mode: str
    insert_mode = "call"
    hit_array: Optional[List[int]] = None

    def __init__(self, num_sets: int, assoc: int, rng: random.Random):
        self.num_sets = num_sets
        self.assoc = assoc
        self.rng = rng

    def insert_slot(self, slot: int) -> None:
        """A new block was filled into ``slot``."""
        raise NotImplementedError

    def victim_slot(self, set_index: int) -> int:
        """Choose the slot to evict from a full set."""
        raise NotImplementedError

    def replace(self, set_index: int) -> int:
        """Fill a full set: choose the victim slot and record the insert.

        Exactly :meth:`victim_slot` followed by :meth:`insert_slot` on
        the returned slot -- the same slot, the same policy state and
        the same RNG draws in the same order -- in one call.  This is
        the one entry point the cache and the fast event loop use
        for a replacement; subclasses override it to inline both steps.
        """
        slot = self.victim_slot(set_index)
        self.insert_slot(slot)
        return slot

    def on_miss(self, set_index: int) -> None:
        """A demand miss occurred in ``set_index`` (used by set dueling)."""


class _StackPolicy(ReplacementPolicy):
    """Shared machinery for recency policies (LRU/FIFO/LIP/BIP/DIP).

    Each set keeps its recency stack as one plain list of *all* its
    slots, least recently used first (``orders[set_index]``).  Every
    operation moves one slot to the very end (MRU) or the very front
    (LRU), which preserves the relative order of all other slots --
    exactly what ``list.insert(0, ...)`` / ``list.append(...)`` do in
    the reference stacks, which keep the same order MRU-first.  The
    victim is ``order[0]``: no scan.  A hit that promotes is
    ``remove`` + ``append`` unless the slot is already MRU; a full-set
    MRU fill rotates the victim from the front to the back in one
    ``append(pop(0))``, and a full-set LRU fill leaves it in place.

    Slots that were never filled keep the seed order ``[assoc-1 .. 0]``,
    the reverse of the reference's seed stack ``[0, 1, ..., assoc-1]``
    (victim = way ``assoc-1``), so a partly filled set names the same
    victim as the reference.  Invalidation leaves the order alone.

    :attr:`hit_array` holds, per slot, a reference to its set's list,
    so a hit on a known slot reaches the list in one index.
    """

    promote_on_hit = True
    #: Probability that an insertion lands at MRU rather than LRU: 1
    #: for LRU/FIFO (the owning cache and the fast event loop then inline
    #: the insert), 0 for LIP, epsilon for BIP.  Only a fractional
    #: chance draws a random number, one per insertion.
    mru_insert_chance = 1.0

    def __init__(self, num_sets: int, assoc: int, rng: random.Random):
        super().__init__(num_sets, assoc, rng)
        self.orders: List[List[int]] = [
            list(range(base + assoc - 1, base - 1, -1))
            for base in range(0, num_sets * assoc, assoc)
        ]
        self.hit_array = [
            order for order in self.orders for _ in range(assoc)
        ]
        self.hit_mode = "mru" if self.promote_on_hit else "none"
        if self.mru_insert_chance == 1.0:
            self.insert_mode = "mru"

    def _insert_position(self, set_index: int) -> int:
        """0 for an MRU insertion, ``assoc - 1`` for an LRU one."""
        chance = self.mru_insert_chance
        if chance == 1.0 or (chance and self.rng.random() < chance):
            return 0
        return self.assoc - 1

    def insert_slot(self, slot: int) -> None:
        order = self.hit_array[slot]
        if self._insert_position(slot // self.assoc) == 0:
            if order[-1] != slot:
                order.remove(slot)
                order.append(slot)
        elif order[0] != slot:
            order.remove(slot)
            order.insert(0, slot)

    def victim_slot(self, set_index: int) -> int:
        return self.orders[set_index][0]

    def replace(self, set_index: int) -> int:
        order = self.orders[set_index]
        chance = self.mru_insert_chance
        if chance == 1.0 or (chance and self.rng.random() < chance):
            slot = order.pop(0)
            order.append(slot)
            return slot
        # An LRU insertion: the victim stays at the front.
        return order[0]


class LruPolicy(_StackPolicy):
    """Classic LRU: insert at MRU, promote on hit, evict LRU."""

    name = "lru"


class FifoPolicy(_StackPolicy):
    """FIFO: insert at MRU but never promote, so eviction is by age."""

    name = "fifo"
    promote_on_hit = False


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection."""

    name = "random"
    hit_mode = "none"

    def insert_slot(self, slot: int) -> None:
        pass

    def victim_slot(self, set_index: int) -> int:
        return set_index * self.assoc + self.rng.randrange(self.assoc)

    # The insertion leaves no state, so a replacement is the victim.
    replace = victim_slot


class LipPolicy(_StackPolicy):
    """LRU Insertion Policy: new blocks land at the LRU position.

    Streaming blocks are evicted before they can displace the resident
    working set; a block is only retained if it is re-referenced.
    """

    name = "lip"
    mru_insert_chance = 0.0


class BipPolicy(_StackPolicy):
    """Bimodal Insertion Policy: LIP with occasional MRU insertion."""

    name = "bip"
    epsilon = 1.0 / 32.0
    mru_insert_chance = epsilon


class DipPolicy(_StackPolicy):
    """Dynamic Insertion Policy: set-duels LRU vs BIP.

    A few leader sets always use LRU, a few always use BIP; a saturating
    PSEL counter tracks which leader group misses less and follower sets
    use the winner's insertion position.
    """

    name = "dip"
    psel_bits = 10
    leader_period = 32  # one LRU leader and one BIP leader per period
    # The insertion depends on the set's role, not on a fixed chance.
    mru_insert_chance = None
    replace = ReplacementPolicy.replace

    def __init__(self, num_sets: int, assoc: int, rng: random.Random):
        super().__init__(num_sets, assoc, rng)
        self._psel = (1 << self.psel_bits) // 2
        self._psel_max = (1 << self.psel_bits) - 1

    def _set_role(self, set_index: int) -> str:
        phase = set_index % self.leader_period
        if phase == 0:
            return "lru_leader"
        if phase == self.leader_period // 2:
            return "bip_leader"
        return "follower"

    def on_miss(self, set_index: int) -> None:
        role = self._set_role(set_index)
        if role == "lru_leader" and self._psel < self._psel_max:
            self._psel += 1
        elif role == "bip_leader" and self._psel > 0:
            self._psel -= 1

    def _bip_position(self) -> int:
        if self.rng.random() < BipPolicy.epsilon:
            return 0
        return self.assoc - 1

    def _insert_position(self, set_index: int) -> int:
        role = self._set_role(set_index)
        if role == "lru_leader":
            return 0
        if role == "bip_leader":
            return self._bip_position()
        # Follower sets: PSEL high means BIP leaders missed less.
        if self._psel > self._psel_max // 2:
            return self._bip_position()
        return 0


class SrripPolicy(ReplacementPolicy):
    """Static RRIP with 2-bit re-reference prediction values.

    Blocks are inserted with a *long* re-reference prediction (RRPV =
    max-1), promoted to *near-immediate* (0) on hit, and the victim is the
    first block predicted *distant* (RRPV = max), aging the whole set
    until one appears.  RRPVs live in one flat per-slot array.
    """

    name = "srrip"
    rrpv_bits = 2
    hit_mode = "zero"
    #: Probability of a *long* (max-1) insertion rather than a
    #: *distant* (max) one.  SRRIP always inserts long and draws no
    #: random number; BRRIP draws one per insertion.
    long_insert_chance = 1.0

    def __init__(self, num_sets: int, assoc: int, rng: random.Random):
        super().__init__(num_sets, assoc, rng)
        self.rrpv_max = (1 << self.rrpv_bits) - 1
        # All ways start "distant" so cold fills pick way 0 first.
        self._rrpv: List[int] = [self.rrpv_max] * (num_sets * assoc)
        self.hit_array = self._rrpv

    def _insert_rrpv(self) -> int:
        chance = self.long_insert_chance
        if chance == 1.0 or self.rng.random() < chance:
            return self.rrpv_max - 1
        return self.rrpv_max

    def insert_slot(self, slot: int) -> None:
        self._rrpv[slot] = self._insert_rrpv()

    def victim_slot(self, set_index: int) -> int:
        base = set_index * self.assoc
        stop = base + self.assoc
        try:
            return self._rrpv.index(self.rrpv_max, base, stop)
        except ValueError:
            return self._age_set(base, stop)

    def _age_set(self, base: int, stop: int) -> int:
        """Age a set holding no distant block; return its victim.

        RRPVs never exceed the maximum, so adding the gap between the
        set's peak and the maximum to every slot is exactly aging by
        one until a slot is distant, and the first slot that held the
        peak is the first distant one.
        """
        rrpv = self._rrpv
        segment = rrpv[base:stop]
        peak = max(segment)
        gap = self.rrpv_max - peak
        rrpv[base:stop] = [value + gap for value in segment]
        return base + segment.index(peak)

    def replace(self, set_index: int) -> int:
        base = set_index * self.assoc
        stop = base + self.assoc
        rrpv = self._rrpv
        distant = self.rrpv_max
        try:
            slot = rrpv.index(distant, base, stop)
        except ValueError:
            slot = self._age_set(base, stop)
        chance = self.long_insert_chance
        if chance == 1.0 or self.rng.random() < chance:
            rrpv[slot] = distant - 1
        else:
            rrpv[slot] = distant
        return slot


class BrripPolicy(SrripPolicy):
    """Bimodal RRIP: insert distant most of the time, long occasionally.

    Designed for streaming/thrashing access patterns such as OLTP
    instruction fetch (this is why the paper's Fig. 9 shows BRRIP as the
    best standalone policy for the baseline).
    """

    name = "brrip"
    epsilon = 1.0 / 32.0
    long_insert_chance = epsilon


PolicyFactory = Callable[[int, int, random.Random], ReplacementPolicy]

_POLICIES: Dict[str, PolicyFactory]
_POLICIES = {
    cls.name: cls
    for cls in (
        LruPolicy,
        FifoPolicy,
        RandomPolicy,
        LipPolicy,
        BipPolicy,
        DipPolicy,
        SrripPolicy,
        BrripPolicy,
    )
}


def policy_names() -> List[str]:
    """Names of all registered replacement policies."""
    return sorted(_POLICIES)


def make_policy(
    name: str,
    num_sets: int,
    assoc: int,
    rng: random.Random,
) -> ReplacementPolicy:
    """Instantiate a registered replacement policy by name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose from {policy_names()}"
        ) from None
    return factory(num_sets, assoc, rng)
