"""Tests for repro.cache.replacement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.replacement import make_policy, policy_names
from repro.verify.reference import (
    ReferenceBipPolicy,
    ReferenceDipPolicy,
    ReferenceFifoPolicy,
    ReferenceLipPolicy,
    ReferenceLruPolicy,
)


def _policy(name, num_sets=4, assoc=4, seed=1):
    return make_policy(name, num_sets, assoc, random.Random(seed))


def _hit(policy, set_index, way):
    """A hit on ``way`` of ``set_index``, applied by ``hit_mode`` as
    ``Cache.access`` and both event loops inline it."""
    slot = set_index * policy.assoc + way
    if policy.hit_mode == "mru":
        order = policy.hit_array[slot]
        if order[-1] != slot:
            order.remove(slot)
            order.append(slot)
    elif policy.hit_mode == "zero":
        policy.hit_array[slot] = 0


def _insert(policy, set_index, way):
    policy.insert_slot(set_index * policy.assoc + way)


def _victim(policy, set_index):
    """The way of ``set_index`` that ``victim_slot`` picks."""
    return policy.victim_slot(set_index) - set_index * policy.assoc


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(policy_names()) == {
            "lru", "fifo", "random", "lip", "bip", "dip", "srrip", "brrip"
        }

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown replacement"):
            _policy("plru")

    @pytest.mark.parametrize("name", [
        "lru", "fifo", "random", "lip", "bip", "dip", "srrip", "brrip"
    ])
    def test_make_policy_returns_named(self, name):
        assert _policy(name).name == name


class TestLru:
    def test_evicts_least_recently_used(self):
        policy = _policy("lru", num_sets=1, assoc=4)
        for way in range(4):
            _insert(policy, 0, way)
        _hit(policy, 0, 0)  # way 0 becomes MRU; way 1 is LRU
        assert _victim(policy, 0) == 1

    def test_insert_is_mru(self):
        policy = _policy("lru", num_sets=1, assoc=2)
        _insert(policy, 0, 0)
        _insert(policy, 0, 1)
        assert _victim(policy, 0) == 0

    def test_sets_are_independent(self):
        policy = _policy("lru", num_sets=2, assoc=2)
        _insert(policy, 0, 1)
        _insert(policy, 1, 0)
        assert _victim(policy, 0) != _victim(policy, 1)


class TestFifo:
    def test_hit_does_not_promote(self):
        policy = _policy("fifo", num_sets=1, assoc=3)
        for way in range(3):
            _insert(policy, 0, way)
        _hit(policy, 0, 0)  # FIFO ignores the hit
        assert _victim(policy, 0) == 0


class TestRandom:
    def test_victim_in_range(self):
        policy = _policy("random", num_sets=1, assoc=4)
        for _ in range(100):
            assert 0 <= _victim(policy, 0) < 4

    def test_covers_all_ways_eventually(self):
        policy = _policy("random", num_sets=1, assoc=4)
        seen = {_victim(policy, 0) for _ in range(200)}
        assert seen == {0, 1, 2, 3}


class TestLip:
    def test_insert_lands_at_lru(self):
        policy = _policy("lip", num_sets=1, assoc=4)
        for way in range(4):
            _insert(policy, 0, way)
        # The most recent insertion is the next victim.
        assert _victim(policy, 0) == 3

    def test_hit_promotes_to_mru(self):
        policy = _policy("lip", num_sets=1, assoc=2)
        _insert(policy, 0, 0)
        _insert(policy, 0, 1)
        _hit(policy, 0, 1)
        assert _victim(policy, 0) == 0


class TestBip:
    def test_mostly_lru_insertion(self):
        policy = _policy("bip", num_sets=1, assoc=4, seed=3)
        lru_like = 0
        trials = 400
        for _ in range(trials):
            _insert(policy, 0, 3)
            if _victim(policy, 0) == 3:
                lru_like += 1
            # Restore a known order for the next trial.
            for way in range(4):
                _hit(policy, 0, way)
        assert lru_like > trials * 0.9

    def test_occasionally_mru_insertion(self):
        policy = _policy("bip", num_sets=1, assoc=4, seed=3)
        mru_like = 0
        for _ in range(600):
            _insert(policy, 0, 3)
            if _victim(policy, 0) != 3:
                mru_like += 1
            for way in range(4):
                _hit(policy, 0, way)
        assert mru_like > 0


class TestDip:
    def test_has_leader_sets_of_both_kinds(self):
        policy = _policy("dip", num_sets=64, assoc=4)
        roles = {policy._set_role(i) for i in range(64)}
        assert {"lru_leader", "bip_leader", "follower"} <= roles

    def test_psel_moves_on_leader_misses(self):
        policy = _policy("dip", num_sets=64, assoc=4)
        start = policy._psel
        policy.on_miss(0)  # set 0 is an LRU leader
        assert policy._psel == start + 1
        policy.on_miss(16)  # set 16 is a BIP leader
        assert policy._psel == start

    def test_follower_uses_winner(self):
        policy = _policy("dip", num_sets=64, assoc=4)
        # Bias PSEL fully toward LRU (BIP leaders miss a lot).
        for _ in range(2000):
            policy.on_miss(16)
        _insert(policy, 1, 3)  # set 1 is a follower
        assert _victim(policy, 1) != 3  # LRU insertion (way 3 is MRU)


class TestSrrip:
    def test_insert_is_long_not_distant(self):
        policy = _policy("srrip", num_sets=1, assoc=2)
        _insert(policy, 0, 0)
        # Way 1 is untouched (distant); the victim must be way 1.
        assert _victim(policy, 0) == 1

    def test_hit_promotes_to_near(self):
        policy = _policy("srrip", num_sets=1, assoc=2)
        _insert(policy, 0, 0)
        _insert(policy, 0, 1)
        _hit(policy, 0, 0)
        assert _victim(policy, 0) == 1

    def test_aging_terminates(self):
        policy = _policy("srrip", num_sets=1, assoc=4)
        for way in range(4):
            _insert(policy, 0, way)
            _hit(policy, 0, way)
        victim = _victim(policy, 0)
        assert 0 <= victim < 4


class TestSrripAging:
    """The one-step aging is the original age-by-one loop."""

    @staticmethod
    def _age_by_one(rrpvs, distant):
        while True:
            for way, value in enumerate(rrpvs):
                if value == distant:
                    return way
            rrpvs[:] = [value + 1 for value in rrpvs]

    @pytest.mark.parametrize("rrpvs", [
        [0, 0, 0, 0], [2, 1, 2, 0], [1, 0, 1, 1], [0, 2, 2, 1],
        [3, 0, 1, 2], [2, 3, 3, 0],
    ])
    def test_matches_aging_by_one(self, rrpvs):
        policy = _policy("srrip", num_sets=2, assoc=4)
        policy._rrpv[4:8] = rrpvs
        expected = list(rrpvs)
        way = self._age_by_one(expected, policy.rrpv_max)
        assert policy.victim_slot(1) == 4 + way
        assert policy._rrpv == [3] * 4 + expected


def _state(policy):
    """A policy's whole replacement state, its RNG included."""
    state = {key: (list(value) if isinstance(value, list) else value)
             for key, value in vars(policy).items() if key != "rng"}
    return state, policy.rng.getstate()


class TestReplace:
    """``replace(s)`` is ``victim_slot(s)`` then ``insert_slot`` of
    that slot: the same slot, policy state and RNG state."""

    @staticmethod
    def _warm(name, seed, ops):
        policy = _policy(name, num_sets=4, assoc=4, seed=seed)
        for slot, hit in ops:
            policy.insert_slot(slot)
            if hit:
                _hit(policy, slot // 4, slot % 4)
            policy.on_miss(slot // 4)
        return policy

    @pytest.mark.parametrize("name", [
        "lru", "fifo", "random", "lip", "bip", "dip", "srrip", "brrip"
    ])
    @pytest.mark.parametrize("hit_every", (1, 2, 3, 1_000))
    def test_replace_is_victim_then_insert(self, name, hit_every):
        ops = [(slot, slot % hit_every == 0) for slot in range(16)]
        replaced = self._warm(name, 3, ops)
        stepped = self._warm(name, 3, ops)
        for round_ in range(40):
            set_index = round_ % 4
            slot = stepped.victim_slot(set_index)
            stepped.insert_slot(slot)
            assert replaced.replace(set_index) == slot
            assert _state(replaced) == _state(stepped)
            if round_ % hit_every == 0:
                _hit(replaced, slot // 4, slot % 4)
                _hit(stepped, slot // 4, slot % 4)

    @pytest.mark.parametrize("name", ("srrip", "brrip"))
    def test_replace_ages_a_set_without_a_distant_block(self, name):
        replaced = _policy(name, num_sets=2, assoc=4, seed=9)
        stepped = _policy(name, num_sets=2, assoc=4, seed=9)
        for policy in (replaced, stepped):
            policy._rrpv[4:8] = [1, 0, 2, 1]
        slot = stepped.victim_slot(1)
        stepped.insert_slot(slot)
        assert replaced.replace(1) == slot == 6
        assert _state(replaced) == _state(stepped)


class TestStackPolicyDifferential:
    """Each flat recency policy against its reference stack policy.

    Random hit/insert/victim/replace/miss sequences -- on cold and
    partly filled sets too, since the policies do not track occupancy
    -- must name the same victims, keep the same stack order and leave
    both RNGs in the same state after every step.
    """

    REFERENCES = {
        "lru": ReferenceLruPolicy,
        "fifo": ReferenceFifoPolicy,
        "lip": ReferenceLipPolicy,
        "bip": ReferenceBipPolicy,
        "dip": ReferenceDipPolicy,
    }

    @staticmethod
    def _stack(policy, set_index):
        """The flat policy's order as the reference's MRU-first ways."""
        base = set_index * policy.assoc
        return [slot - base for slot in reversed(policy.orders[set_index])]

    @pytest.mark.parametrize("name", sorted(REFERENCES))
    @pytest.mark.parametrize("num_sets,assoc", [
        (1, 1), (3, 2), (4, 4), (40, 8), (33, 16),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_stacks(self, name, num_sets, assoc, seed):
        flat = make_policy(name, num_sets, assoc, random.Random(seed))
        ref = self.REFERENCES[name](num_sets, assoc, random.Random(seed))
        ops = random.Random(1000 + seed)
        # A few hot sets, DIP's two leaders (0 and 16) among them, so
        # sequences revisit sets and PSEL crosses its midpoint.
        sets = sorted({0, 16 % num_sets, 1 % num_sets, num_sets - 1})
        for _ in range(600):
            set_index = ops.choice(sets)
            way = ops.randrange(assoc)
            op = ops.choice(("hit", "hit", "insert", "victim", "replace",
                             "miss"))
            if op == "hit":
                _hit(flat, set_index, way)
                ref.on_hit(set_index, way)
            elif op == "insert":
                _insert(flat, set_index, way)
                ref.on_insert(set_index, way)
            elif op == "victim":
                assert _victim(flat, set_index) == ref.victim_way(set_index)
            elif op == "replace":
                victim = ref.victim_way(set_index)
                ref.on_insert(set_index, victim)
                assert (flat.replace(set_index) - set_index * assoc
                        == victim)
            else:
                flat.on_miss(set_index)
                ref.on_miss(set_index)
            assert self._stack(flat, set_index) == ref._stacks[set_index]
            assert flat.rng.getstate() == ref.rng.getstate()
        for set_index in range(num_sets):
            assert self._stack(flat, set_index) == ref._stacks[set_index]


class TestBrrip:
    def test_mostly_distant_insertion(self):
        policy = _policy("brrip", num_sets=1, assoc=2, seed=5)
        distant = 0
        trials = 300
        for _ in range(trials):
            _insert(policy, 0, 0)
            _hit(policy, 0, 1)
            if _victim(policy, 0) == 0:
                distant += 1
        assert distant > trials * 0.9


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_all_policies_always_return_valid_victims(ops):
    """Property: after any hit/insert sequence, every policy returns an
    in-range victim for every set."""
    policies = [_policy(name, num_sets=4, assoc=4)
                for name in policy_names()]
    for set_index, way in ops:
        for policy in policies:
            _insert(policy, set_index, way)
            _hit(policy, set_index, way)
    for policy in policies:
        for set_index in range(4):
            assert 0 <= _victim(policy, set_index) < 4
