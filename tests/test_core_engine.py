"""Engine behavior tests on a live (simulated) cluster."""

import pytest

from repro.core import EngineState
from repro.db import ActionId

from conftest import make_cluster


class TestPrimaryFormation:
    def test_all_replicas_reach_regprim(self, cluster3):
        assert all(r.engine.state is EngineState.REG_PRIM
                   for r in cluster3.replicas.values())

    def test_prim_component_recorded(self, cluster3):
        for replica in cluster3.replicas.values():
            assert replica.engine.prim_component.prim_index == 1
            assert replica.engine.prim_component.servers == (1, 2, 3)

    def test_vulnerable_valid_while_in_primary(self, cluster3):
        # A server in RegPrim is vulnerable to the attempt that
        # installed it (cleared only when it leaves with full
        # knowledge).
        for replica in cluster3.replicas.values():
            assert replica.engine.vulnerable.is_valid


class TestOrdering:
    def test_actions_from_all_nodes_identically_ordered(self, cluster3):
        clients = {n: cluster3.client(n) for n in (1, 2, 3)}
        for i in range(4):
            for n, client in clients.items():
                client.submit(("SET", f"k{n}.{i}", i))
        cluster3.run_for(1.0)
        cluster3.assert_converged()
        logs = cluster3.applied_logs()
        assert len(logs[1]) == 12

    def test_client_completion_counts(self, cluster3):
        client = cluster3.client(2)
        for i in range(10):
            client.submit(("INC", "n", 1))
        cluster3.run_for(1.0)
        assert client.completed == 10
        assert cluster3.replicas[1].database.state["n"] == 10

    def test_fifo_per_client_server(self, cluster3):
        client = cluster3.client(1)
        for i in range(5):
            client.submit(("APPEND", "log", i))
        cluster3.run_for(1.0)
        assert cluster3.replicas[3].database.state["log"] == \
            [0, 1, 2, 3, 4]

    def test_green_lines_propagate_and_whites_truncate(self, cluster3):
        # Green lines travel as piggybacks on each creator's actions,
        # so every server must create actions for the white line (min
        # over lines) to advance.
        clients = {n: cluster3.client(n) for n in (1, 2, 3)}
        for _round in range(4):
            for client in clients.values():
                client.submit(("INC", "n", 1))
            cluster3.run_for(0.5)
        for replica in cluster3.replicas.values():
            assert replica.engine.queue.white_line > 0
            assert replica.engine.queue.green_offset > 0


class TestPartitionBehavior:
    def test_minority_goes_nonprim(self, cluster5):
        cluster5.partition([1, 2], [3, 4, 5])
        cluster5.run_for(1.5)
        states = {n: cluster5.replicas[n].engine.state for n in range(1, 6)}
        assert states[1] is EngineState.NON_PRIM
        assert states[2] is EngineState.NON_PRIM
        assert states[3] is EngineState.REG_PRIM

    def test_no_quorum_anywhere_in_three_way_split(self, cluster5):
        cluster5.partition([1, 2], [3, 4], [5])
        cluster5.run_for(1.5)
        assert cluster5.primary_members() == []

    def test_minority_actions_stay_red(self, cluster5):
        cluster5.partition([1, 2], [3, 4, 5])
        cluster5.run_for(1.5)
        client = cluster5.client(1)
        client.submit(("SET", "red", 1))
        cluster5.run_for(0.5)
        assert client.completed == 0
        engine = cluster5.replicas[1].engine
        assert len(engine.queue.red_actions()) == 1
        cluster5.assert_single_primary()

    def test_red_actions_complete_after_merge(self, cluster5):
        cluster5.partition([1, 2], [3, 4, 5])
        cluster5.run_for(1.5)
        client = cluster5.client(1)
        client.submit(("SET", "late", "minority"))
        cluster5.run_for(0.5)
        cluster5.heal()
        cluster5.run_for(2.0)
        assert client.completed == 1
        cluster5.assert_converged()
        assert cluster5.replicas[5].database.state["late"] == "minority"

    def test_majority_keeps_serving_during_partition(self, cluster5):
        cluster5.partition([1, 2], [3, 4, 5])
        cluster5.run_for(1.5)
        client = cluster5.client(4)
        for i in range(5):
            client.submit(("INC", "maj", 1))
        cluster5.run_for(1.0)
        assert client.completed == 5

    def test_cascaded_partitions_converge(self, cluster5):
        client = cluster5.client(3)
        client.submit(("SET", "pre", 1))
        cluster5.run_for(0.5)
        cluster5.partition([1, 2, 3], [4, 5])
        cluster5.run_for(1.0)
        cluster5.partition([1], [2, 3], [4, 5])
        cluster5.run_for(1.0)
        cluster5.partition([1, 4, 5], [2, 3])
        cluster5.run_for(1.0)
        cluster5.heal()
        cluster5.run_for(3.0)
        cluster5.assert_converged()

    def test_quorum_follows_last_primary(self, cluster5):
        # After {3,4,5} is primary, {1,2}+{3} is 1-of-3 + others: the
        # component {1,2,3} contains only one member of the last
        # primary {3,4,5} -> no quorum; {4,5} has 2 of 3 -> primary.
        cluster5.partition([1, 2], [3, 4, 5])
        cluster5.run_for(1.5)
        cluster5.partition([1, 2, 3], [4, 5])
        cluster5.run_for(1.5)
        assert sorted(cluster5.primary_members()) == [4, 5]
        states = cluster5.states()
        assert states[1] == "NonPrim" and states[3] == "NonPrim"


class TestBuffering:
    def test_requests_buffered_during_exchange_complete_later(self):
        cluster = make_cluster(3)
        cluster.start_all(settle=1.0)
        cluster.partition([1], [2, 3])
        # Submit while the view change is still settling.
        client = cluster.client(2)
        client.submit(("SET", "mid-exchange", 1))
        cluster.run_for(2.0)
        assert client.completed == 1


class TestQueryOnlyFastPath:
    def test_consistent_read_in_primary(self, cluster3):
        client = cluster3.client(1)
        client.submit(("SET", "k", "v"))
        cluster3.run_for(1.0)
        assert cluster3.replicas[2].database.query(("GET", "k")) == "v"


class TestMembershipScenarios:
    """Commit, partition, crash, join and split end to end."""

    def test_commit_and_convergence(self, cluster3):
        clients = {n: cluster3.client(n) for n in (1, 2, 3)}
        for i in range(4):
            for client in clients.values():
                client.submit(("APPEND", "log", i))
        cluster3.run_for(2.0)
        assert all(c.completed == 4 for c in clients.values())
        cluster3.assert_converged()

    def test_minority_majority_partition(self, cluster3):
        cluster3.partition([1], [2, 3])
        cluster3.run_for(2.0)
        assert sorted(cluster3.primary_members()) == [2, 3]
        cluster3.replicas[1].submit(("SET", "red", 1))
        client = cluster3.client(3)
        client.submit(("SET", "green", 1))
        cluster3.run_for(1.5)
        assert client.completed == 1
        cluster3.heal()
        cluster3.run_for(3.0)
        cluster3.assert_converged()
        assert cluster3.replicas[2].database.state["red"] == 1

    def test_crash_recovery(self, cluster3):
        client = cluster3.client(1)
        for i in range(3):
            client.submit(("SET", f"k{i}", i))
        cluster3.run_for(1.5)
        cluster3.crash(2)
        cluster3.run_for(1.5)
        client.submit(("SET", "while-down", 1))
        cluster3.run_for(1.0)
        cluster3.recover(2)
        cluster3.run_for(3.5)
        cluster3.assert_converged()
        assert cluster3.replicas[2].database.state["while-down"] == 1

    def test_dynamic_join(self, cluster3):
        client = cluster3.client(1)
        client.submit(("SET", "base", 1))
        cluster3.run_for(1.0)
        cluster3.add_replica(4, peer=2)
        cluster3.run_for(6.0)
        cluster3.assert_converged()
        assert cluster3.replicas[4].engine.state is EngineState.REG_PRIM
        assert cluster3.replicas[4].database.state["base"] == 1

    def test_no_quorum_three_way(self, cluster3):
        cluster3.partition([1], [2], [3])
        cluster3.run_for(2.0)
        assert cluster3.primary_members() == []
        cluster3.heal()
        cluster3.run_for(3.0)
        assert len(cluster3.primary_members()) == 3
