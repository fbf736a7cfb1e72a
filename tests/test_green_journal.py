"""The green journal's position rule on running clusters.

A green is journaled as the bare action; its position is implied by
journal order from the latest ``db_snapshot`` record (see
``repro.core.recovery``).  These tests crash replicas where the rule
has to hold by construction: right after log compaction with a sync in
flight, and on a joiner whose journal starts at its transfer snapshot.
"""

from repro.core import EngineConfig
from repro.storage import LogRecord

from conftest import fast_disk_profile, make_cluster, recoverable_greens


class _Load:
    """One closed-loop writer per node, until :meth:`stop`."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.active = True

    def start(self, node):
        def submit(*_completion):
            replica = self.cluster.replicas[node]
            if self.active and replica.running:
                replica.submit(("INC", f"n{node}", 1), on_complete=submit)
        submit()

    def stop(self):
        self.active = False


def _run_until(cluster, condition, limit=5.0, step=0.0005):
    elapsed = 0.0
    while not condition():
        assert elapsed < limit, "condition never held"
        cluster.run_for(step)
        elapsed += step


def test_recovery_after_compaction_with_sync_in_flight():
    """Compaction mid-run, then a crash while a sync is in flight: the
    replica recovers the same green order and digest as its peers.

    The compaction it recovers from shared its sync with the flush its
    checkpoint issued just before (the platter was busy), and that
    flush carried greens the snapshot already holds.  A slow platter
    keeps it busy often enough for that to happen within the run."""
    cluster = make_cluster(
        3, engine_config=EngineConfig(log_compaction_threshold=20,
                                      checkpoint_interval=0.05),
        disk_profile=fast_disk_profile(forced_write_latency=0.01))
    cluster.start_all(settle=1.0)
    load = _Load(cluster)
    for node in cluster.replicas:
        load.start(node)
    victim = cluster.replicas[3]
    disk = victim.disk
    queued_greens = [False]
    shared_sync = {}  # id -> snapshot record, kept alive so ids stay unique
    flush, rewrite = disk.flush, disk.rewrite

    def flush_spy(*args, **kwargs):
        # Queued behind a sync in flight, with greens among its records.
        queued_greens[0] = disk._busy and any(
            entry.__class__ is not LogRecord for entry in disk.volatile)
        flush(*args, **kwargs)

    def rewrite_spy(contents, callback=None):
        if queued_greens[0]:
            shared_sync[id(contents[0])] = contents[0]
        rewrite(contents, callback)
    disk.flush, disk.rewrite = flush_spy, rewrite_spy
    cluster.run_for(0.5)
    assert victim.engine.durable_green_count > 50
    _run_until(cluster, lambda: disk._busy and disk.durable
               and id(disk.durable[0]) in shared_sync)
    disk.flush, disk.rewrite = flush, rewrite
    advertised = victim.engine.durable_green_count
    recoverable = recoverable_greens(victim)
    assert recoverable >= advertised > 0
    cluster.crash(3)
    cluster.run_for(0.3)
    cluster.recover(3)
    recovered = victim.engine
    assert recovered.queue.green_count == recoverable
    assert recovered.database.applied_count == recoverable
    cluster.assert_prefix_consistent()
    load.start(3)
    cluster.run_for(0.5)
    load.stop()
    cluster.run_for(2.0)
    cluster.assert_converged()


def test_joiner_recovers_at_least_its_advertised_line():
    """A joiner's journal starts at its transfer snapshot: after it
    applied greens of its own, crashed and recovered, its count is at
    least the durable green line it last advertised."""
    cluster = make_cluster(3)
    cluster.start_all(settle=1.0)
    load = _Load(cluster)
    for node in cluster.replicas:
        load.start(node)
    cluster.run_for(0.5)
    bases = []
    joiner = cluster.add_replica(
        4, peer=2,
        on_joined=lambda replica: bases.append(
            replica.database.applied_count))
    _run_until(cluster, lambda: bases
               and joiner.daemon.green_line > bases[0] + 20)
    advertised = joiner.daemon.green_line
    base = bases[0]
    assert base > 0 and joiner.wal.rewrites == 0
    assert recoverable_greens(joiner) >= advertised
    cluster.crash(4)
    cluster.run_for(0.3)
    cluster.recover(4)
    recovered = joiner.engine
    assert recovered.queue.green_offset == base
    assert recovered.queue.green_count >= advertised
    cluster.assert_prefix_consistent()
    load.stop()
    cluster.run_for(2.0)
    cluster.assert_converged()
