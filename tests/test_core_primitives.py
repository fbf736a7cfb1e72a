"""Unit tests for colors, records and quorum policies."""

from repro.core import (Color, DynamicLinearVoting, PrimComponent,
                        StaticMajority, Vulnerable, Yellow)
from repro.core.colors import may_transition
from repro.db import ActionId


class TestColors:
    def test_lattice_order(self):
        assert Color.RED < Color.YELLOW < Color.GREEN < Color.WHITE

    def test_monotonic_transitions(self):
        assert may_transition(Color.RED, Color.GREEN)
        assert may_transition(Color.YELLOW, Color.YELLOW)
        assert not may_transition(Color.GREEN, Color.RED)
        assert not may_transition(Color.WHITE, Color.GREEN)


class TestPrimComponent:
    def test_key_ordering(self):
        older = PrimComponent(prim_index=1, attempt_index=5)
        newer = PrimComponent(prim_index=2, attempt_index=1)
        assert newer.key > older.key

    def test_same_as(self):
        a = PrimComponent(1, 2, (1, 2, 3))
        b = PrimComponent(1, 2, (1, 2, 3))
        c = PrimComponent(1, 2, (1, 2))
        assert a.same_as(b)
        assert not a.same_as(c)


class TestVulnerable:
    def test_starts_invalid(self):
        assert not Vulnerable().is_valid

    def test_make_valid_sets_own_bit(self):
        vulnerable = Vulnerable()
        vulnerable.make_valid(3, 7, (1, 2, 3), self_id=2)
        assert vulnerable.is_valid
        assert vulnerable.bits == {1: False, 2: True, 3: False}
        assert vulnerable.attempt_key() == (3, 7, (1, 2, 3))

    def test_all_bits_set(self):
        vulnerable = Vulnerable()
        vulnerable.make_valid(0, 1, (1, 2), self_id=1)
        assert not vulnerable.all_bits_set()
        vulnerable.bits[2] = True
        assert vulnerable.all_bits_set()

    def test_empty_set_never_all_bits(self):
        assert not Vulnerable().all_bits_set()

    def test_invalidate(self):
        vulnerable = Vulnerable()
        vulnerable.make_valid(0, 1, (1,), self_id=1)
        vulnerable.invalidate()
        assert not vulnerable.is_valid


class TestYellow:
    def test_lifecycle(self):
        yellow = Yellow()
        assert not yellow.is_valid
        yellow.make_valid()
        yellow.add(ActionId(1, 1))
        yellow.add(ActionId(1, 1))  # dedup
        yellow.add(ActionId(2, 1))
        assert yellow.set == [ActionId(1, 1), ActionId(2, 1)]
        yellow.invalidate()
        assert yellow.set == []


class TestQuorum:
    def test_dlv_majority_of_last_prim(self):
        policy = DynamicLinearVoting()
        assert policy.is_quorum({1, 2}, (1, 2, 3), [1, 2, 3, 4, 5])
        assert not policy.is_quorum({1}, (1, 2, 3), [1, 2, 3, 4, 5])

    def test_dlv_linear_tie_break(self):
        policy = DynamicLinearVoting()
        # Exactly half the votes: the side holding the distinguished
        # (lowest-id) member of the last primary wins the tie [Jajodia
        # & Mutchler 90]; the complementary half does not, so two
        # primaries can never coexist.
        assert policy.is_quorum({1, 2}, (1, 2, 3, 4), [1, 2, 3, 4])
        assert not policy.is_quorum({3, 4}, (1, 2, 3, 4), [1, 2, 3, 4])
        # Without the tie-break an even last primary could deadlock
        # forever, e.g. when the absent half left voluntarily and its
        # leave went green only at the leaver before it exited.
        assert policy.is_quorum({2}, (2, 3), [1, 2, 3])
        assert not policy.is_quorum({3}, (2, 3), [1, 2, 3])

    def test_dlv_bootstrap_uses_full_set(self):
        policy = DynamicLinearVoting()
        assert policy.is_quorum({1, 2}, (), [1, 2, 3])
        assert not policy.is_quorum({1}, (), [1, 2, 3])

    def test_dlv_weighted(self):
        policy = DynamicLinearVoting(weights={1: 3.0})
        # Node 1 alone outweighs 2+3.
        assert policy.is_quorum({1}, (1, 2, 3), [1, 2, 3])
        assert not policy.is_quorum({2, 3}, (1, 2, 3), [1, 2, 3])

    def test_dlv_ignores_nonmembers_of_last_prim(self):
        policy = DynamicLinearVoting()
        # 4 and 5 are connected but were not in the last primary.
        assert not policy.is_quorum({3, 4, 5}, (1, 2, 3), [1, 2, 3, 4, 5])

    def test_static_majority(self):
        policy = StaticMajority()
        assert policy.is_quorum({1, 2, 3}, (1, 2), [1, 2, 3, 4, 5])
        assert not policy.is_quorum({1, 2}, (1, 2), [1, 2, 3, 4, 5])

    def test_describe(self):
        assert "dynamic" in DynamicLinearVoting().describe()
        assert "static" in StaticMajority().describe()
