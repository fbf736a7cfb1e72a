"""Adversarial message-level fault injection via the network
interceptor: targeted drops and delays of specific protocol messages.

These exercise resilience paths that random partitions rarely hit:
lost CPC votes, delayed order stamps, dropped retransmissions,
lost stability acks.
"""

import pytest

from repro.core.messages import EngineActionMsg, EngineCpcMsg, \
    EngineStateMsg
from repro.gcs.types import AckMsg, DataMsg, StampMsg

from conftest import make_cluster


@pytest.fixture
def cluster():
    c = make_cluster(3)
    c.start_all(settle=1.0)
    return c


def payload_of(datagram):
    inner = datagram.payload
    if isinstance(inner, DataMsg):
        return inner.payload
    return inner


class TestTargetedDrops:
    def test_lost_stamps_recovered_by_nack(self, cluster):
        """Drop every StampMsg for a while: SAFE delivery stalls, then
        the NACK path restores it once the interceptor lifts."""
        dropped = {"n": 0}

        def drop_stamps(datagram):
            if isinstance(datagram.payload, StampMsg) \
                    and dropped["n"] < 4:
                dropped["n"] += 1
                return False
            return True

        cluster.network.interceptor = drop_stamps
        client = cluster.client(2)
        client.submit(("SET", "k", 1))
        cluster.run_for(2.0)
        assert dropped["n"] > 0
        assert client.completed == 1
        cluster.assert_converged()

    def test_data_lost_on_its_way_to_the_sequencer_is_resent(self):
        """The sequencer (node 1) stamps each origin in FIFO order, so a
        DataMsg it never receives blocks every later message from that
        origin, and no NACK names an unstamped message: the origin must
        re-send it, without a view change."""
        from repro.core import ReplicaCluster
        cluster = ReplicaCluster(3, seed=1)
        cluster.start_all(settle=2.0)
        views = {n: r.daemon.views_installed
                 for n, r in cluster.replicas.items()}
        dropped = []

        def drop_first_to_sequencer(datagram):
            if (isinstance(datagram.payload, DataMsg) and not dropped
                    and datagram.payload.origin == 2
                    and datagram.dst == 1):
                dropped.append(datagram.payload.fifo_seq)
                return False
            return True

        cluster.network.interceptor = drop_first_to_sequencer
        for i in range(5):
            cluster.submit(2, ("SET", f"a{i}", i))
        cluster.run_for(0.5)
        cluster.network.interceptor = None
        for i in range(5):
            cluster.submit(2, ("SET", f"b{i}", i))
        cluster.run_for(10.0)
        assert dropped
        assert cluster.green_counts() == {1: 10, 2: 10, 3: 10}
        cluster.assert_converged()
        assert {n: r.daemon.views_installed
                for n, r in cluster.replicas.items()} == views

    def test_lost_acks_delay_but_not_break_safety(self, cluster):
        dropped = {"n": 0}

        def drop_some_acks(datagram):
            if isinstance(datagram.payload, AckMsg) and dropped["n"] < 6:
                dropped["n"] += 1
                return False
            return True

        cluster.network.interceptor = drop_some_acks
        client = cluster.client(1)
        for i in range(3):
            client.submit(("INC", "n", 1))
        cluster.run_for(2.0)
        assert client.completed == 3
        cluster.assert_converged()

    def test_lost_cpc_forces_membership_retry(self, cluster):
        """Dropping a CPC vote stalls Construct; the failure detector /
        phase timers eventually re-run the exchange and install."""
        state = {"dropped": 0}

        def drop_first_cpcs(datagram):
            inner = payload_of(datagram)
            if isinstance(inner, EngineCpcMsg) and state["dropped"] < 2:
                state["dropped"] += 1
                return False
            return True

        # Force a view change while intercepting CPCs.
        cluster.network.interceptor = drop_first_cpcs
        cluster.partition([1], [2, 3])
        cluster.run_for(3.0)
        cluster.network.interceptor = None
        cluster.heal()
        cluster.run_for(4.0)
        assert state["dropped"] > 0
        client = cluster.client(1)
        client.submit(("SET", "alive", 1))
        cluster.run_for(1.5)
        assert client.completed == 1
        cluster.assert_converged()

    def test_lost_state_messages_retry(self, cluster):
        state = {"dropped": 0}

        def drop_first_state_msgs(datagram):
            inner = payload_of(datagram)
            if isinstance(inner, EngineStateMsg) and state["dropped"] < 2:
                state["dropped"] += 1
                return False
            return True

        cluster.network.interceptor = drop_first_state_msgs
        cluster.partition([1], [2, 3])
        cluster.run_for(3.0)
        cluster.network.interceptor = None
        cluster.heal()
        cluster.run_for(4.0)
        cluster.assert_converged()
        assert len(cluster.primary_members()) == 3


class TestTargetedDelays:
    def test_delayed_actions_preserve_total_order(self, cluster):
        """Randomly delaying action datagrams must never reorder the
        global sequence (the sequencer stamps FIFO per origin)."""
        toggle = {"i": 0}

        def delay_alternate(datagram):
            inner = datagram.payload
            if isinstance(inner, DataMsg) and \
                    isinstance(inner.payload, EngineActionMsg):
                toggle["i"] += 1
                if toggle["i"] % 2 == 0:
                    return 0.004  # 4 ms extra
            return True

        cluster.network.interceptor = delay_alternate
        clients = {n: cluster.client(n) for n in (1, 2, 3)}
        for i in range(5):
            for client in clients.values():
                client.submit(("APPEND", "log", i))
        cluster.run_for(3.0)
        assert all(c.completed == 5 for c in clients.values())
        cluster.assert_converged()

    def test_delayed_heartbeats_below_timeout_are_harmless(self, cluster):
        from repro.gcs.types import HeartbeatMsg

        def delay_heartbeats(datagram):
            if isinstance(datagram.payload, HeartbeatMsg):
                return 0.01
            return True

        cluster.network.interceptor = delay_heartbeats
        before = cluster.replicas[1].daemon.views_installed
        cluster.run_for(2.0)
        # No spurious membership churn from the mild delay.
        assert cluster.replicas[1].daemon.views_installed == before
        client = cluster.client(1)
        client.submit(("SET", "fine", 1))
        cluster.run_for(1.0)
        assert client.completed == 1
