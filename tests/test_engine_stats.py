"""Engine statistics counters: observable, correct, and useful."""

import pytest

from conftest import make_cluster
from repro.obs import Observability


@pytest.fixture
def cluster():
    c = make_cluster(3)
    c.start_all(settle=1.0)
    return c


def stats_sum(cluster, key):
    return sum(r.engine.stats[key] for r in cluster.replicas.values())


def test_client_requests_counted_at_origin(cluster):
    client = cluster.client(2)
    for _ in range(4):
        client.submit(("INC", "n", 1))
    cluster.run_for(1.0)
    assert cluster.replicas[2].engine.stats["client_requests"] == 4
    assert cluster.replicas[1].engine.stats["client_requests"] == 0


def test_greens_counted_at_every_replica(cluster):
    client = cluster.client(1)
    for _ in range(5):
        client.submit(("INC", "n", 1))
    cluster.run_for(1.0)
    for replica in cluster.replicas.values():
        assert replica.engine.stats["greens"] == 5


def test_exchanges_count_view_changes(cluster):
    before = stats_sum(cluster, "exchanges")
    cluster.partition([1], [2, 3])
    cluster.run_for(1.5)
    cluster.heal()
    cluster.run_for(1.5)
    # Each replica ran at least two more exchanges (split + merge).
    assert stats_sum(cluster, "exchanges") >= before + 6


def test_installs_track_primary_formations(cluster):
    assert stats_sum(cluster, "installs") == 3  # the initial primary
    cluster.partition([1], [2, 3])
    cluster.run_for(1.5)
    cluster.heal()
    cluster.run_for(1.5)
    # Split primary {2,3} (2 installs) + merged primary (3 installs).
    assert stats_sum(cluster, "installs") == 3 + 2 + 3


def test_retransmissions_happen_only_when_needed(cluster):
    client = cluster.client(1)
    for _ in range(5):
        client.submit(("INC", "n", 1))
    cluster.run_for(1.0)
    assert stats_sum(cluster, "retrans_actions") == 0
    cluster.partition([1], [2, 3])
    cluster.run_for(1.0)
    cluster.client(2).submit(("SET", "gap", 1))
    cluster.run_for(0.5)
    cluster.heal()
    cluster.run_for(2.0)
    # Node 1 missed 'gap': someone retransmitted it in the merge.
    assert stats_sum(cluster, "retrans_actions") >= 1


def test_state_and_cpc_message_counts_match_membership(cluster):
    state_msgs = stats_sum(cluster, "state_msgs_sent")
    cpcs = stats_sum(cluster, "cpc_sent")
    # Initial formation: one state message and one CPC per member.
    assert state_msgs == 3
    assert cpcs == 3


def test_disabled_observability_keeps_counts_and_registers_nothing():
    """The engine counts in ``engine.stats`` whatever the observability;
    a disabled deployment's registry never sees an instrument."""
    obs = Observability.disabled()
    c = make_cluster(3, observability=obs)
    c.start_all(settle=1.0)
    client = c.client(1)
    for _ in range(10):
        client.submit(("INC", "n", 1))
    c.run_for(1.0)
    assert obs.registry.collect() == []
    for replica in c.replicas.values():
        assert replica.engine.stats["greens"] == 10


def test_recovered_replica_counters_restart_from_zero():
    """The exported counters read the live engine: a recovered
    replica's rebuilt engine starts from zero, its peers keep
    counting."""
    obs = Observability()
    c = make_cluster(3, observability=obs)
    c.start_all(settle=1.0)

    def greens(node):
        return obs.registry.get_sample(
            "repro_engine_green_actions_total", node).value

    def submit(count):
        for _ in range(count):
            c.client(1).submit(("INC", "n", 1))
        c.run_for(1.0)

    submit(5)
    assert [greens(node) for node in (1, 2, 3)] == [5, 5, 5]
    c.crash(3)
    submit(5)
    c.recover(3)
    assert greens(3) == c.replicas[3].engine.stats["greens"] == 0
    c.run_for(2.0)
    submit(3)
    c.assert_converged()
    assert greens(1) == greens(2) == 13
    assert greens(3) == c.replicas[3].engine.stats["greens"]
    assert 0 < greens(3) < 13
