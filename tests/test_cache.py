"""Tests for repro.cache.cache."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache, ReferenceCache
from repro.config import CacheConfig


def make_cache(size=1024, assoc=4, replacement="lru", callback=None):
    return Cache(CacheConfig(size, assoc=assoc, replacement=replacement),
                 rng=random.Random(7), victim_callback=callback)


class TestBasicAccess:
    def test_first_access_misses(self):
        cache = make_cache()
        assert cache.access(100) is False

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(100)
        assert cache.access(100) is True

    def test_stats_count_hits_and_misses(self):
        cache = make_cache()
        cache.access(1)
        cache.access(1)
        cache.access(2)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.accesses == 3

    def test_miss_rate(self):
        cache = make_cache()
        cache.access(1)
        cache.access(1)
        assert cache.stats.miss_rate == 0.5

    def test_miss_rate_empty(self):
        assert make_cache().stats.miss_rate == 0.0

    def test_mpki(self):
        cache = make_cache()
        cache.access(1)
        assert cache.stats.mpki(2000) == 0.5

    def test_contains_does_not_touch_stats(self):
        cache = make_cache()
        cache.access(5)
        before = cache.stats.snapshot()
        assert cache.contains(5)
        assert not cache.contains(6)
        assert cache.stats.snapshot() == before

    def test_occupancy(self):
        cache = make_cache()
        for block in range(10):
            cache.access(block)
        assert cache.occupancy == 10

    def test_set_mapping_power_of_two(self):
        cache = make_cache(size=1024, assoc=4)  # 4 sets
        assert cache.set_index(5) == 1
        assert cache.set_index(7) == 3


class TestEviction:
    def test_capacity_eviction(self):
        cache = make_cache(size=256, assoc=4)  # 4 blocks, 1 set
        for block in range(5):
            cache.access(block)
        assert cache.occupancy == 4
        assert cache.stats.evictions == 1
        assert not cache.contains(0)  # LRU victim

    def test_victim_callback_receives_block_and_tag(self):
        victims = []
        cache = make_cache(size=256, assoc=4,
                           callback=lambda b, t: victims.append((b, t)))
        for block in range(4):
            cache.access(block, tag=9)
        cache.access(99, tag=1)
        assert victims == [(0, 9)]

    def test_no_callback_on_invalidate(self):
        victims = []
        cache = make_cache(callback=lambda b, t: victims.append(b))
        cache.access(1)
        cache.invalidate(1)
        assert victims == []
        assert cache.stats.invalidations == 1

    def test_lru_order_respected_across_sets(self):
        cache = make_cache(size=512, assoc=4)  # 2 sets
        # Fill set 0 (even blocks).
        for block in (0, 2, 4, 6):
            cache.access(block)
        cache.access(0)  # promote
        cache.access(8)  # evicts LRU of set 0 -> block 2
        assert cache.contains(0)
        assert not cache.contains(2)


class TestTags:
    def test_access_sets_tag(self):
        cache = make_cache()
        cache.access(7, tag=3)
        assert cache.tag_of(7) == 3

    def test_hit_overwrites_tag(self):
        cache = make_cache()
        cache.access(7, tag=3)
        cache.access(7, tag=4)
        assert cache.tag_of(7) == 4

    def test_tag_of_absent_block_is_none(self):
        assert make_cache().tag_of(1) is None

    def test_set_tag(self):
        cache = make_cache()
        cache.access(7)
        assert cache.set_tag(7, 5) is True
        assert cache.tag_of(7) == 5

    def test_set_tag_absent(self):
        assert make_cache().set_tag(7, 5) is False

    def test_reset_tags(self):
        cache = make_cache()
        cache.access(1, tag=9)
        cache.access(2, tag=9)
        cache.reset_tags(0)
        assert cache.tag_of(1) == 0
        assert cache.tag_of(2) == 0


class TestFillAndProbe:
    def test_fill_installs_without_stats(self):
        cache = make_cache()
        cache.fill(11)
        assert cache.contains(11)
        assert cache.stats.accesses == 0

    def test_fill_existing_is_noop(self):
        cache = make_cache()
        cache.access(11)
        cache.fill(11, tag=5)
        assert cache.tag_of(11) == 0  # tag unchanged

    def test_probe_never_fills(self):
        cache = make_cache()
        assert cache.probe(3) is False
        assert not cache.contains(3)
        assert cache.stats.misses == 1

    def test_probe_hit_counts(self):
        cache = make_cache()
        cache.access(3)
        assert cache.probe(3) is True
        assert cache.stats.hits == 1


def _cache_state(cache):
    """A deep copy of everything a presence query must leave alone:
    residency, tags, replacement state and stats, on either layout."""
    if isinstance(cache, ReferenceCache):
        layout = (cache._lookup, cache._blocks, cache._tags,
                  cache.policy._stacks)
    else:
        layout = (cache._where, cache._slot_blocks, cache._slot_tags,
                  cache._set_len, cache.policy._ages, cache.policy._tick)
    return copy.deepcopy((layout, cache.stats.snapshot()))


class TestCountResident:
    """SLICC's signature probe counts residents on either layout."""

    @pytest.mark.parametrize("cls", (Cache, ReferenceCache))
    def test_counts_residents_and_duplicates(self, cls):
        cache = cls(CacheConfig(1024, assoc=4), rng=random.Random(7))
        for block in (3, 5, 8):
            cache.access(block)
        before = _cache_state(cache)
        assert cache.count_resident([]) == 0
        assert cache.count_resident([3, 4, 5]) == 2
        # A duplicate in the probe counts each time it appears.
        assert cache.count_resident([3, 3, 9, 8, 3]) == 4
        assert cache.count_resident(iter((5, 6))) == 1
        # A presence query: no residency, tag, recency or stats side
        # effects.
        assert _cache_state(cache) == before

    @pytest.mark.parametrize("cls", (Cache, ReferenceCache))
    def test_matches_contains_after_evictions(self, cls):
        cache = cls(CacheConfig(256, assoc=2), rng=random.Random(7))
        for block in range(0, 64, 3):
            cache.access(block)
        probe = list(range(64)) + [0, 63, 63]
        assert cache.count_resident(probe) == sum(
            1 for block in probe if cache.contains(block))


class TestInvalidateAndFlush:
    def test_invalidate_removes(self):
        cache = make_cache()
        cache.access(9)
        assert cache.invalidate(9) is True
        assert not cache.contains(9)

    def test_invalidate_absent(self):
        assert make_cache().invalidate(9) is False

    def test_refill_after_invalidate(self):
        cache = make_cache()
        cache.access(9)
        cache.invalidate(9)
        assert cache.access(9) is False
        assert cache.contains(9)

    def test_flush_empties(self):
        cache = make_cache()
        for block in range(8):
            cache.access(block)
        cache.flush()
        assert cache.occupancy == 0

    def test_resident_blocks(self):
        cache = make_cache()
        for block in (3, 5, 8):
            cache.access(block)
        assert set(cache.resident_blocks()) == {3, 5, 8}


@given(st.lists(st.integers(0, 200), min_size=1, max_size=500),
       st.sampled_from(["lru", "fifo", "random", "lip", "bip", "dip",
                        "srrip", "brrip"]))
@settings(max_examples=40, deadline=None)
def test_cache_invariants_any_policy(blocks, policy):
    """Properties that hold for every replacement policy:

    - occupancy never exceeds capacity;
    - a block just accessed is always resident;
    - hits + misses == accesses, evictions == misses - occupancy.
    """
    cache = make_cache(size=512, assoc=4, replacement=policy)
    capacity = cache.config.num_blocks
    for block in blocks:
        cache.access(block)
        assert cache.contains(block)
        assert cache.occupancy <= capacity
    assert cache.stats.accesses == len(blocks)
    assert cache.stats.evictions == cache.stats.misses - cache.occupancy


@given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
@settings(max_examples=40, deadline=None)
def test_lru_small_working_set_always_hits_after_warmup(blocks):
    """A working set that fits in one set's ways never misses twice."""
    cache = make_cache(size=2048, assoc=8)  # 32 blocks, 4 sets
    misses_per_block = {}
    for block in blocks:
        if not cache.access(block):
            misses_per_block[block] = misses_per_block.get(block, 0) + 1
    # 31 distinct blocks over 4 sets x 8 ways: only if some set gets > 8
    # distinct blocks can a block miss twice.
    per_set = {}
    for block in set(blocks):
        per_set.setdefault(cache.set_index(block), set()).add(block)
    if all(len(s) <= 8 for s in per_set.values()):
        assert all(count == 1 for count in misses_per_block.values())
