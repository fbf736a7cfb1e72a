"""Tests for Section 6 application semantics."""

import pytest

from repro.semantics import (ActiveTransactions, BlockedQuery,
                             InteractiveTransaction, InventoryStore,
                             QueryService, ReplicatedService,
                             TimestampStore, register_everywhere)

from conftest import make_cluster


@pytest.fixture
def cluster():
    c = make_cluster(3)
    c.start_all(settle=1.0)
    return c


def services(cluster):
    return {n: ReplicatedService(r) for n, r in cluster.replicas.items()}


class TestQueryServices:
    def test_consistent_query_in_primary(self, cluster):
        svc = services(cluster)
        svc[1].update(("SET", "k", "v"))
        cluster.run_for(1.0)
        assert svc[2].query(("GET", "k")) == "v"

    def test_weak_query_returns_stale_but_consistent(self, cluster):
        svc = services(cluster)
        svc[1].update(("SET", "k", "green"))
        cluster.run_for(1.0)
        cluster.partition([1], [2, 3])
        cluster.run_for(1.5)
        # Majority moves on; node 1 serves its old green state weakly.
        svc[2].update(("SET", "k", "newer"))
        cluster.run_for(1.0)
        assert svc[1].query(("GET", "k"),
                            service=QueryService.WEAK) == "green"

    def test_consistent_query_blocked_in_nonprimary(self, cluster):
        svc = services(cluster)
        cluster.partition([1], [2, 3])
        cluster.run_for(1.5)
        with pytest.raises(BlockedQuery):
            svc[1].query(("GET", "k"))

    def test_blocked_query_answers_after_rejoin(self, cluster):
        svc = services(cluster)
        svc[1].update(("SET", "k", "v0"))
        cluster.run_for(1.0)
        cluster.partition([1], [2, 3])
        cluster.run_for(1.5)
        svc[2].update(("SET", "k", "v1"))
        cluster.run_for(0.5)
        answers = []
        svc[1].query(("GET", "k"), on_result=answers.append)
        cluster.run_for(0.5)
        assert answers == []  # still partitioned
        cluster.heal()
        cluster.run_for(2.5)
        assert answers == ["v1"]

    def test_dirty_query_sees_red_actions(self, cluster):
        svc = services(cluster)
        cluster.partition([1], [2, 3])
        cluster.run_for(1.5)
        svc[1].update(("SET", "k", "red-value"))
        cluster.run_for(0.5)
        assert svc[1].query(("GET", "k"),
                            service=QueryService.DIRTY) == "red-value"
        assert svc[1].query(("GET", "k"),
                            service=QueryService.WEAK) is None

    def test_weak_query_cannot_write_into_the_green_state(self, cluster):
        svc = services(cluster)
        svc[1].update(("APPEND", "L", "a"))
        cluster.run_for(1.0)
        assert svc[1].query(("APPEND", "L", "q"),
                            service=QueryService.WEAK) == ["a", "q"]
        cluster.run_for(0.5)
        cluster.assert_converged()
        for replica in cluster.replicas.values():
            assert replica.database.state["L"] == ["a"]

    def test_dirty_read_cannot_replay_into_the_green_state(self, cluster):
        svc = services(cluster)
        svc[1].update(("APPEND", "L", "a"))
        cluster.run_for(1.0)
        cluster.partition([1], [2, 3])
        cluster.run_for(1.5)
        svc[1].update(("APPEND", "L", "red"))
        cluster.run_for(0.5)
        assert svc[1].query(("GET", "L"),
                            service=QueryService.DIRTY) == ["a", "red"]
        assert svc[1].query(("GET", "L"),
                            service=QueryService.WEAK) == ["a"]
        cluster.heal()
        cluster.run_for(2.5)
        cluster.assert_converged()
        for replica in cluster.replicas.values():
            assert replica.database.state["L"] == ["a", "red"]


class TestTimestampSemantics:
    def test_lww_converges_across_partition(self, cluster):
        svc = services(cluster)
        stores = {n: TimestampStore(svc[n]) for n in (1, 2, 3)}
        cluster.partition([1], [2, 3])
        cluster.run_for(1.5)
        # Both sides update the same key; the newer timestamp must win
        # after merge, regardless of the final application order.
        stores[2].set("tracker", "old-position", timestamp=10.0)
        stores[1].set("tracker", "new-position", timestamp=20.0)
        cluster.run_for(0.5)
        cluster.heal()
        cluster.run_for(2.5)
        cluster.assert_converged()
        for n in (1, 2, 3):
            assert stores[n].get("tracker",
                                 QueryService.WEAK) == "new-position"

    def test_lww_older_write_ignored(self, cluster):
        svc = services(cluster)
        store = TimestampStore(svc[1])
        store.set("k", "newer", timestamp=5.0)
        cluster.run_for(0.5)
        store.set("k", "older", timestamp=1.0)
        cluster.run_for(0.5)
        assert store.get("k", QueryService.WEAK) == "newer"
        assert store.get_with_timestamp(
            "k", QueryService.WEAK) == ("newer", 5.0)


class TestCommutativeSemantics:
    def test_inventory_converges_after_partition(self, cluster):
        svc = services(cluster)
        stores = {n: InventoryStore(svc[n]) for n in (1, 2, 3)}
        stores[1].add_stock("widget", 10)
        cluster.run_for(1.0)
        cluster.partition([1], [2, 3])
        cluster.run_for(1.5)
        stores[1].take_stock("widget", 4)    # red in the minority
        stores[2].take_stock("widget", 9)    # green in the majority
        cluster.run_for(0.5)
        # Dirty view shows the local latest; may go negative later.
        assert stores[1].stock("widget") == 6
        assert stores[2].stock("widget") == 1
        cluster.heal()
        cluster.run_for(2.5)
        cluster.assert_converged()
        for n in (1, 2, 3):
            assert stores[n].stock("widget", QueryService.WEAK) == -3

    def test_temporary_negative_stock(self, cluster):
        svc = services(cluster)
        store = InventoryStore(svc[1])
        store.take_stock("rare", 2)
        cluster.run_for(1.0)
        assert store.stock("rare", QueryService.WEAK) == -2


class TestActiveActions:
    def test_procedure_runs_at_ordering_time(self, cluster):
        def apply_interest(state, rate):
            state["balance"] = round(state.get("balance", 0)
                                     * (1 + rate), 2)
            return state["balance"]

        register_everywhere(cluster, "interest", apply_interest)
        svc = services(cluster)
        svc[1].update(("SET", "balance", 100))
        cluster.run_for(0.5)
        active = ActiveTransactions(svc[2])
        results = []
        active.invoke("interest", 0.10,
                      on_complete=lambda _a, _p, r: results.append(r))
        cluster.run_for(1.0)
        assert results == [[110.0]]
        cluster.assert_converged()
        for replica in cluster.replicas.values():
            assert replica.database.state["balance"] == 110.0

    def test_deterministic_procedure_same_result_everywhere(self, cluster):
        def bump(state, _args):
            state["c"] = state.get("c", 0) + 1
            return state["c"]

        register_everywhere(cluster, "bump", bump)
        svc = services(cluster)
        active = {n: ActiveTransactions(svc[n]) for n in (1, 2, 3)}
        for n in (1, 2, 3):
            active[n].invoke("bump", None)
        cluster.run_for(1.0)
        cluster.assert_converged()
        assert cluster.replicas[1].database.state["c"] == 3


class TestInteractiveTransactions:
    def test_commit_when_read_set_unchanged(self, cluster):
        svc = services(cluster)
        svc[1].update(("SET", "seat", "free"))
        cluster.run_for(1.0)
        txn = InteractiveTransaction(svc[2])
        assert txn.read("seat") == "free"
        outcomes = []
        txn.commit({"seat": "alice"}, on_done=outcomes.append)
        cluster.run_for(1.0)
        assert outcomes == [True]
        assert txn.committed is True
        assert cluster.replicas[3].database.state["seat"] == "alice"

    def test_abort_when_read_value_changed(self, cluster):
        svc = services(cluster)
        svc[1].update(("SET", "seat", "free"))
        cluster.run_for(1.0)
        txn = InteractiveTransaction(svc[2])
        txn.read("seat")
        # A conflicting write is ordered before the certification.
        svc[1].update(("SET", "seat", "bob"))
        cluster.run_for(0.5)
        outcomes = []
        txn.commit({"seat": "alice"}, on_done=outcomes.append)
        cluster.run_for(1.0)
        assert outcomes == [False]
        assert cluster.replicas[3].database.state["seat"] == "bob"
        cluster.assert_converged()

    def test_all_replicas_agree_on_abort(self, cluster):
        """If one server aborts, all servers abort that transaction."""
        svc = services(cluster)
        svc[1].update(("SET", "x", 1))
        cluster.run_for(1.0)
        first = InteractiveTransaction(svc[2])
        second = InteractiveTransaction(svc[3])
        first.read("x")
        second.read("x")
        first.commit({"x": 2})
        second.commit({"x": 3})
        cluster.run_for(1.0)
        # Exactly one of the two optimistic transactions wins.
        assert [first.committed, second.committed].count(True) == 1
        cluster.assert_converged()

    def test_double_commit_rejected(self, cluster):
        txn = InteractiveTransaction(services(cluster)[1])
        txn.commit({})
        with pytest.raises(RuntimeError):
            txn.commit({})


class TestQueryOnlyFastPath:
    def test_answers_immediately_with_no_own_writes(self, cluster):
        svc = services(cluster)
        answers = []
        svc[2].query_after_my_writes(("GET", "k"), answers.append)
        assert answers == [None]

    def test_waits_for_own_writes_then_answers(self, cluster):
        svc = services(cluster)
        answers = []
        svc[1].update(("SET", "k", "mine"))
        # Immediately after submitting, the write is not yet ordered.
        svc[1].query_after_my_writes(("GET", "k"), answers.append)
        assert answers == []
        cluster.run_for(1.0)
        assert answers == ["mine"]

    def test_later_writes_do_not_hold_back_the_answer(self, cluster):
        """The read waits for the writes issued before it, not for the
        server to have no write in flight: it is answered at W1's
        green, before W2 (issued after it) is green."""
        svc = services(cluster)
        events = []

        def log(name):
            return lambda *_args: events.append((name, cluster.sim.now))
        svc[1].update(("SET", "k", "w1"), on_complete=log("w1"))
        answers = []
        svc[1].query_after_my_writes(("GET", "k"), answers.append)
        svc[1].query_after_my_writes(("GET", "k"), log("read"))
        cluster.run_for(0.002)  # W1 in flight, not yet green
        svc[1].update(("SET", "k", "w2"), on_complete=log("w2"))
        cluster.run_for(1.0)
        assert answers == ["w1"]
        assert [name for name, _t in events] == ["w1", "read", "w2"]
        (_w1, w1_at), (_r, read_at), (_w2, w2_at) = events
        assert read_at == w1_at < w2_at

    def test_does_not_generate_an_ordered_action(self, cluster):
        svc = services(cluster)
        engine = cluster.replicas[2].engine
        before = engine.stats["client_requests"]
        svc[2].query_after_my_writes(("GET", "k"), lambda _r: None)
        cluster.run_for(0.5)
        assert engine.stats["client_requests"] == before

    def test_read_your_writes_in_nonprimary(self, cluster):
        """The fast path waits while the own write is red; it answers
        only once the write is globally ordered."""
        svc = services(cluster)
        cluster.partition([1], [2, 3])
        cluster.run_for(1.5)
        svc[1].update(("SET", "k", "red-write"))
        answers = []
        svc[1].query_after_my_writes(("GET", "k"), answers.append)
        cluster.run_for(0.5)
        assert answers == []  # own write still red
        cluster.heal()
        cluster.run_for(2.5)
        assert answers == ["red-write"]
