"""Retention gate: a replica's heap is flat in steady state.

Per applied action a replica keeps one packed 8-byte id word and
nothing the garbage collector tracks: the action queue truncates at the
white line, the WAL compacts, and closed action spans live only in the
latency histograms.  Deterministic — the
gate counts ``gc.get_objects()``, no wall clock — on both runtimes,
with every retention knob at its library default.

The white line advances even when only one member originates actions:
the quiet members publish their durable green lines on their GCS
heartbeats, so the green actions a replica retains stay within what one
heartbeat interval plus one checkpoint interval delivers.

Until compaction the journal keeps every green, as the action object
itself: the footprint gate counts, with ``tracemalloc``, the bytes the
storage layer and the engine's green path still hold per green.
"""

import asyncio
import gc
import inspect
import os
import tracemalloc

import repro
from repro.core import EngineConfig, ReplicationEngine
from repro.core.state_machine import EngineState
from repro.obs import MAX_COMPLETED, Observability
from repro.runtime import LiveCluster
from repro.storage import LogRecord

from conftest import make_cluster, recoverable_greens

NODES = (1, 2, 3)
# Every node originates a third of the load (a silent member pins the
# white line): N actions are enough greens for a per-green leak to
# show against MAX_TRACKED_PER_ACTION.
N = 3 * MAX_COMPLETED
BATCH = 256
MAX_TRACKED_PER_ACTION = 0.5


def _submit_batch(submit, done):
    for i in range(done, done + BATCH):
        submit(NODES[i % 3], ("SET", f"k{i % 16}", i))
    return done + BATCH


def _checkpoint_all(cluster):
    """Truncate every queue to the white line and compact every WAL:
    what is left afterwards is what a replica retains for good.  The
    rewrite completes a disk latency later, so the caller lets the
    runtime run before taking the census."""
    for replica in cluster.replicas.values():
        replica.engine.checkpoint()
        replica.engine.compact_log()


def _tracked_objects():
    gc.collect()
    return len(gc.get_objects())


def _assert_flat(before, after, cluster):
    per_action = (after - before) / N
    assert per_action < MAX_TRACKED_PER_ACTION, \
        f"{per_action:.2f} tracked objects retained per green action"
    for node in NODES:
        assert cluster.replicas[node].database.applied_count == 2 * N


def test_simulated_cluster_heap_is_flat_per_green_action():
    cluster = make_cluster(3, observability=Observability())
    cluster.start_all(settle=1.0)

    def drive(done, target):
        while done < target:
            done = _submit_batch(
                lambda node, update: cluster.replicas[node].submit(update),
                done)
            while min(r.database.applied_count
                      for r in cluster.replicas.values()) < done:
                cluster.run_for(0.05)
        _checkpoint_all(cluster)
        # Idle long enough to pop the cancelled timers off the heap.
        cluster.run_for(5.0)

    drive(0, N)
    before = _tracked_objects()
    drive(N, 2 * N)
    after = _tracked_objects()
    _assert_flat(before, after, cluster)


def test_live_cluster_heap_is_flat_per_green_action():
    async def scenario():
        cluster = LiveCluster(
            NODES, engine_config=EngineConfig(apply_cpu=0.0))
        try:
            cluster.start_all()
            await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                                timeout=10)

            async def drive(done, target):
                while done < target:
                    done = _submit_batch(cluster.submit, done)
                    await cluster.wait_green(done, timeout=30)
                _checkpoint_all(cluster)
                await asyncio.sleep(0.05)

            await drive(0, N)
            before = _tracked_objects()
            await drive(N, 2 * N)
            after = _tracked_objects()
            _assert_flat(before, after, cluster)
        finally:
            cluster.shutdown()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# one submitter: retained greens bounded by heartbeat + checkpoint
# ----------------------------------------------------------------------
def _probe_retention(cluster, now):
    """Record green times per replica and, right after every
    checkpoint (where the queue truncates), the greens still retained;
    also check each heartbeat line against the disk at that instant."""
    greens = {node: [] for node in cluster.replicas}
    samples = []
    for node, replica in cluster.replicas.items():
        replica.add_green_listener(
            lambda *_green, _n=node: greens[_n].append(now()))
        engine = replica.engine
        checkpoint = engine.checkpoint

        def probe(_engine=engine, _checkpoint=checkpoint, _n=node,
                  _replica=replica):
            _checkpoint()
            queue = _engine.queue
            samples.append((_n, now(),
                            queue.green_count - queue.green_offset))
            assert _replica.daemon.green_line \
                <= recoverable_greens(_replica)
        engine.checkpoint = probe
    return greens, samples


def _assert_bounded(greens, samples, window, since):
    measured = [(node, at, retained) for node, at, retained in samples
                if at >= since]
    assert len(measured) >= 3 * len(NODES)
    for node, at, retained in measured:
        delivered = sum(1 for t in greens[node] if at - window < t <= at)
        assert retained <= delivered, (node, at, retained, delivered)
    total = min(len(times) for times in greens.values())
    assert max(retained for _n, _t, retained in measured) * 5 < total


def _closed_loop(replica):
    def submit(*_completion):
        replica.submit(("INC", "n", 1), on_complete=submit)
    submit()


def test_single_submitter_retention_is_bounded_in_simulation():
    cluster = make_cluster(3)
    cluster.start_all(settle=1.0)
    greens, samples = _probe_retention(cluster, lambda: cluster.sim.now)
    began = cluster.sim.now
    _closed_loop(cluster.replicas[1])
    cluster.run_for(3.0)
    # One heartbeat plus one checkpoint interval, plus the forced write
    # and delivery of the line itself.
    window = (cluster.gcs_settings.heartbeat_interval
              + EngineConfig().checkpoint_interval + 0.01)
    _assert_bounded(greens, samples, window, since=began + 0.5)


def test_single_submitter_retention_is_bounded_on_a_live_cluster():
    async def scenario():
        cluster = LiveCluster(
            NODES, engine_config=EngineConfig(apply_cpu=0.0))
        try:
            cluster.start_all()
            await cluster.wait_all_engine_state(EngineState.REG_PRIM,
                                                timeout=10)
            greens, samples = _probe_retention(
                cluster, lambda: cluster.runtime.now)
            began = cluster.runtime.now
            _closed_loop(cluster.replicas[1])
            await asyncio.sleep(2.0)
            # Event-loop scheduling jitter on top of the simulated
            # bound's slack.
            window = (cluster.gcs_settings.heartbeat_interval
                      + EngineConfig().checkpoint_interval + 0.1)
            _assert_bounded(greens, samples, window, since=began + 0.5)
        finally:
            cluster.shutdown()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# footprint: what the journal keeps per green until compaction
# ----------------------------------------------------------------------
FOOTPRINT_GREENS = 2048
MAX_JOURNAL_BYTES_PER_GREEN = 32
_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_STORAGE = os.path.join(_PACKAGE, "storage") + os.sep
_ENGINE = inspect.getsourcefile(ReplicationEngine)


def _lines(function):
    source, first = inspect.getsourcelines(function)
    return range(first, first + len(source))


def _journal_bytes(snapshot):
    """Bytes still allocated by the storage layer or by the engine's
    green path (``_mark_green``).  Each allocation is charged to its
    innermost frame inside the package, so a ``LogRecord`` (built in
    generated code) counts as the WAL's and a deep copy as the store's.
    The ongoingQueue journal is left out: it is one record per own
    action at the originator (A.1), not a cost of applying a green."""
    green_path = _lines(ReplicationEngine._mark_green)
    ongoing = _lines(ReplicationEngine._journal_and_generate)
    total = 0
    for trace in snapshot.traces:
        frames = trace.traceback  # oldest frame first
        inner = next((frame for frame in reversed(frames)
                      if frame.filename.startswith(_PACKAGE)), None)
        if inner is None or any(frame.filename == _ENGINE
                                and frame.lineno in ongoing
                                for frame in frames):
            continue
        if inner.filename.startswith(_STORAGE) or (
                inner.filename == _ENGINE and inner.lineno in green_path):
            total += trace.size
    return total


def test_journal_keeps_each_green_as_the_applied_action():
    cluster = make_cluster(3)
    cluster.start_all(settle=1.0)
    applied = {node: [] for node in NODES}
    for node, replica in cluster.replicas.items():
        replica.add_green_listener(
            lambda action, *_rest, _n=node: applied[_n].append(action))

    def drive(done, target):
        while done < target:
            done = _submit_batch(
                lambda node, update: cluster.replicas[node].submit(update),
                done)
            # Green listeners trail the apply cost; waiting for them
            # leaves no pending notification holding a position.
            while min(len(actions) for actions in applied.values()) < done:
                cluster.run_for(0.05)
        return done

    done = drive(0, BATCH)
    start = {node: r.database.applied_count
             for node, r in cluster.replicas.items()}
    tracemalloc.start(4)
    try:
        gc.collect()
        before = _journal_bytes(tracemalloc.take_snapshot())
        drive(done, done + FOOTPRINT_GREENS)
        gc.collect()
        after = _journal_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    greens = sum(r.database.applied_count - start[node]
                 for node, r in cluster.replicas.items())
    assert greens >= len(NODES) * FOOTPRINT_GREENS
    for node, replica in cluster.replicas.items():
        assert replica.wal.rewrites == 0  # below the compaction threshold
        journal = [entry for entry in replica.disk.durable
                   + replica.disk.volatile
                   if entry.__class__ is not LogRecord]
        assert len(journal) == replica.database.applied_count
        assert len(applied[node]) == len(journal)
        assert all(entry is action
                   for entry, action in zip(journal, applied[node]))
    per_green = (after - before) / greens
    assert per_green <= MAX_JOURNAL_BYTES_PER_GREEN, \
        f"the journal retains {per_green:.1f} B per replica-green"
