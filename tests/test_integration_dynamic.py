"""Dynamic replica instantiation and deactivation (Section 5.1/5.2)."""

import pytest

from repro.core import EngineState

from conftest import make_cluster


@pytest.fixture
def cluster():
    c = make_cluster(3)
    c.start_all(settle=1.0)
    client = c.client(1)
    for i in range(5):
        client.submit(("SET", f"base{i}", i))
    c.run_for(1.0)
    return c


class TestJoin:
    def test_new_replica_joins_and_converges(self, cluster):
        cluster.add_replica(4, peer=2)
        cluster.run_for(4.0)
        cluster.assert_converged()
        replica = cluster.replicas[4]
        assert replica.engine.state is EngineState.REG_PRIM
        assert replica.database.state["base4"] == 4

    def test_all_structures_extended(self, cluster):
        cluster.add_replica(4, peer=2)
        cluster.run_for(4.0)
        for replica in cluster.replicas.values():
            assert replica.engine.queue.servers == [1, 2, 3, 4]

    def test_joiner_green_line_set_at_join_action(self, cluster):
        cluster.add_replica(4, peer=2)
        cluster.run_for(4.0)
        engine = cluster.replicas[1].engine
        assert engine.queue.green_lines[4] > 0

    def test_new_replica_can_submit(self, cluster):
        cluster.add_replica(4, peer=2)
        cluster.run_for(4.0)
        client = cluster.client(4)
        client.submit(("SET", "from4", 44))
        cluster.run_for(1.0)
        assert client.completed == 1
        cluster.assert_converged()
        assert cluster.replicas[1].database.state["from4"] == 44

    def test_join_under_live_load(self, cluster):
        client = cluster.client(2)
        done = []

        def pump(*_args):
            if len(done) < 30:
                done.append(1)
                client.submit(("INC", "load", 1), on_complete=pump)

        pump()
        cluster.add_replica(4, peer=3)
        cluster.run_for(6.0)
        cluster.assert_converged()
        assert cluster.replicas[4].database.state["load"] == 30

    def test_join_counts_toward_quorum(self, cluster):
        cluster.add_replica(4, peer=2)
        cluster.run_for(4.0)
        # With last prim {1,2,3,4}, the {1,4} half holds exactly half
        # the votes plus the distinguished (lowest-id) member, so it
        # continues as primary under the linear tie-break; {2,3} — a
        # strict majority of the pre-join prim {1,2,3} — must not,
        # which proves the joiner's vote is counted.
        cluster.partition([1, 4], [2, 3])
        cluster.run_for(2.0)
        assert sorted(cluster.primary_members()) == [1, 4]

    def test_duplicate_persistent_join_ignored(self, cluster):
        """Only the first ordered PERSISTENT_JOIN defines the entry
        point; a later announcement for the same server neither re-adds
        it (no second transfer) nor resets its cuts.  Its green line
        still moves: heartbeats carry server 4's durable line."""
        cluster.add_replica(4, peer=2)
        cluster.run_for(4.0)
        cluster.client(4).submit(("SET", "from4", 1))
        cluster.run_for(1.0)
        replica = cluster.replicas[1]
        queue = replica.engine.queue
        servers, red_cut = queue.servers, queue.red_cut[4]
        line = queue.green_lines[4]
        senders = dict(replica.representative._senders)
        from repro.db import join_action
        replica.engine.submit_action(
            join_action(replica.engine.next_action_id(), 4))
        cluster.run_for(1.0)
        assert queue.servers == servers
        assert queue.red_cut[4] == red_cut == 1
        assert queue.green_lines[4] >= line
        assert replica.representative._senders == senders
        cluster.assert_converged()

    def test_joiner_switches_representative_on_crash(self, cluster):
        """If the representative fails mid-transfer, the joiner
        reconnects to a different member (Section 5.1)."""
        replica = cluster.add_replica(4, peer=2, peers=[2, 3, 1])
        # Crash the representative immediately, before transfer ends.
        cluster.crash(2)
        cluster.run_for(8.0)
        assert replica.engine.state in (EngineState.REG_PRIM,
                                        EngineState.NON_PRIM)
        assert replica.database.state.get("base0") == 0
        cluster.recover(2)
        cluster.run_for(3.0)
        cluster.assert_converged()


class TestLeave:
    def test_voluntary_leave(self, cluster):
        cluster.replicas[3].leave()
        cluster.run_for(2.0)
        assert cluster.replicas[3].engine.exited
        for node in (1, 2):
            assert cluster.replicas[node].engine.queue.servers == [1, 2]

    def test_system_continues_after_leave(self, cluster):
        cluster.replicas[3].leave()
        cluster.run_for(2.0)
        client = cluster.client(1)
        client.submit(("SET", "post", 1))
        cluster.run_for(1.0)
        assert client.completed == 1

    def test_leave_shrinks_quorum_requirements(self, cluster):
        cluster.replicas[3].leave()
        cluster.run_for(2.0)
        # New primary is {1,2}.  Splitting it leaves each side exactly
        # half the votes: the linear tie-break lets the side with the
        # distinguished member 1 continue alone — server 2 must not.
        cluster.partition([1], [2, 3])
        cluster.run_for(2.0)
        assert cluster.primary_members() == [1]
        cluster.heal()
        cluster.run_for(2.0)
        assert sorted(cluster.primary_members()) == [1, 2]

    def test_administrative_removal_of_dead_replica(self, cluster):
        """A PERSISTENT_LEAVE can be inserted by a live member to
        remove a permanently failed replica, restoring availability."""
        cluster.crash(3)
        cluster.run_for(1.0)
        cluster.replicas[1].remove_dead_replica(3)
        cluster.run_for(1.5)
        for node in (1, 2):
            assert cluster.replicas[node].engine.queue.servers == [1, 2]
        # {1,2} is now the whole system; losing 2 leaves 1 of 2 ->
        # still no quorum, but removing 2 as well would unblock 1.
        assert sorted(cluster.primary_members()) == [1, 2]


class TestJoinLeaveInterplay:
    def test_leave_then_join_same_id_is_fresh(self, cluster):
        cluster.replicas[3].leave()
        cluster.run_for(2.0)
        cluster.client(1).submit(("SET", "between", 1))
        cluster.run_for(1.0)
        # A brand-new replica (new id) joins afterwards.
        cluster.add_replica(7, peer=1)
        cluster.run_for(4.0)
        assert cluster.replicas[7].database.state.get("between") == 1
        for node in (1, 2, 7):
            assert cluster.replicas[node].engine.queue.servers == [1, 2, 7]
