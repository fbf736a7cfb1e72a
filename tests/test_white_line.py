"""White-line (garbage collection) behaviour across the live system."""

from conftest import make_cluster


def all_submit(cluster, rounds=4, nodes=(1, 2, 3)):
    clients = {n: cluster.client(n) for n in nodes}
    for _ in range(rounds):
        for client in clients.values():
            client.submit(("INC", "n", 1))
        cluster.run_for(0.4)
    return clients


def test_white_line_never_exceeds_any_green_line():
    cluster = make_cluster(3)
    cluster.start_all(settle=1.0)
    all_submit(cluster)
    for replica in cluster.replicas.values():
        queue = replica.engine.queue
        assert queue.white_line <= min(queue.green_lines.values())
        assert queue.green_offset <= queue.green_count


def test_partitioned_member_pins_the_white_line():
    """An unreachable member's stale green line caps truncation, so
    the survivors retain what it will need at the merge."""
    cluster = make_cluster(3)
    cluster.start_all(settle=1.0)
    all_submit(cluster, rounds=2)
    cluster.partition([1], [2, 3])
    cluster.run_for(1.0)
    pinned = cluster.replicas[2].engine.queue.green_lines[1]
    client = cluster.client(2)
    for _ in range(10):
        client.submit(("INC", "n", 1))
    cluster.run_for(1.5)
    queue2 = cluster.replicas[2].engine.queue
    assert queue2.green_offset <= pinned
    # And the merge succeeds precisely because nothing was dropped.
    cluster.heal()
    cluster.run_for(2.5)
    cluster.assert_converged()


def test_quiet_members_advance_the_white_line_without_a_view_change():
    """With one submitter, every replica still truncates: members that
    never create actions advertise their durable green lines on their
    GCS heartbeats, so no exchange round is needed to learn them."""
    cluster = make_cluster(3)
    cluster.start_all(settle=1.0)
    views = {n: r.daemon.views_installed
             for n, r in cluster.replicas.items()}
    client = cluster.client(1)           # only node 1 ever submits
    for _ in range(8):
        client.submit(("INC", "n", 1))
    cluster.run_for(1.0)
    for node, replica in cluster.replicas.items():
        assert replica.daemon.views_installed == views[node]
        assert replica.engine.queue.green_count == 8
        assert replica.engine.queue.green_offset == 8, node
