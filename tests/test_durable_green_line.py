"""The advertised green line is durable.

A server's green line is what its peers may truncate below (the white
line), so it must never exceed what the server would recover after a
crash: greens whose WAL records a completed sync covers.  Both carriers
of the line — a fresh action message and every GCS heartbeat — send the
engine's durable green count, never its in-memory one.
"""

from repro.core import EngineConfig
from repro.core.messages import EngineActionMsg
from repro.storage import DiskProfile

from conftest import make_cluster, recoverable_greens


def spy_action_lines(replica, sent):
    """Record (advertised line, green count, recoverable greens) at
    every fresh action message the replica multicasts."""
    channel = replica.channel
    original = channel.multicast

    def multicast(payload, *args, **kwargs):
        if isinstance(payload, EngineActionMsg) and not payload.retrans:
            sent.append((payload.green_line,
                         replica.engine.queue.green_count,
                         recoverable_greens(replica)))
        original(payload, *args, **kwargs)
    channel.multicast = multicast


def test_greens_applied_during_the_forced_write_are_not_advertised():
    """Node 2's forced write is in flight while node 1's action turns
    green at node 2; the action node 2 sends when the write completes
    advertises the line from before the write, not the green count at
    send time (that green's record is staged behind this sync)."""
    cluster = make_cluster(3, disk_profile=DiskProfile(
        forced_write_latency=0.010, async_write_latency=0.00001))
    cluster.start_all(settle=1.0)
    sent_by_1, sent = [], []
    spy_action_lines(cluster.replicas[1], sent_by_1)
    spy_action_lines(cluster.replicas[2], sent)
    cluster.replicas[1].submit(("SET", "x", 1))
    while not sent_by_1:                    # x's own forced write
        cluster.run_for(0.0005)
    # x is on the wire: it turns green well within y's forced write.
    before = cluster.replicas[2].engine.queue.green_count
    cluster.replicas[2].submit(("SET", "y", 1))
    cluster.run_for(0.5)
    [(line, count_at_send, durable_at_send)] = sent
    assert count_at_send == before + 1      # x turned green mid-write
    assert line == before
    assert line <= durable_at_send
    cluster.assert_converged()


def test_advertised_line_never_exceeds_recoverable_greens():
    """Every node submits, two nodes crash and recover, logs compact:
    at every sample no heartbeat line and no action-message line
    exceeds what its sender would recover, and a recovered node comes
    back at or above the line it advertised before the crash."""
    cluster = make_cluster(3, engine_config=EngineConfig(
        log_compaction_threshold=150))
    cluster.start_all(settle=1.0)
    sent = []
    for replica in cluster.replicas.values():
        spy_action_lines(replica, sent)

    def keep_submitting(node):
        def submit(*_completion):
            replica = cluster.replicas[node]
            if replica.running:
                replica.submit(("INC", f"n{node}", 1), on_complete=submit)
        return submit

    def check():
        for replica in cluster.replicas.values():
            durable = recoverable_greens(replica)
            assert replica.daemon.green_line <= durable
            assert replica.engine.durable_green_count <= durable

    def run(seconds):
        for _ in range(int(seconds / 0.002)):
            cluster.run_for(0.002)
            check()

    for node in cluster.replicas:
        keep_submitting(node)()
    run(0.5)
    for node in (3, 1):
        advertised = cluster.replicas[node].daemon.green_line
        assert advertised > 0
        cluster.crash(node)
        run(0.3)
        cluster.recover(node)
        assert cluster.replicas[node].engine.queue.green_count >= advertised
        keep_submitting(node)()
        run(0.5)
    assert sent and all(line <= durable for line, _c, durable in sent)
    assert any(count > line for line, count, _d in sent)
    cluster.run_for(2.0)
    cluster.assert_converged()
    for replica in cluster.replicas.values():
        assert replica.engine.queue.green_offset > 0
