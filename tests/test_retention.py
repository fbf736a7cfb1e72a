"""Retention gate: a replica's heap is flat in steady state.

Per applied action a replica keeps one packed 8-byte id word and
nothing the garbage collector tracks: the action queue truncates at the
white line, the WAL compacts, the span ring wraps.  Deterministic — the
gate counts ``gc.get_objects()``, no wall clock — on both runtimes,
with every retention knob at its library default.
"""

import asyncio
import gc

from repro.core import EngineConfig
from repro.core.state_machine import EngineState
from repro.obs import DEFAULT_MAX_COMPLETED, Observability
from repro.runtime import LiveCluster

from conftest import make_cluster

NODES = (1, 2, 3)
# Every node originates a third of the load (a silent member pins the
# white line), so each span ring is full once N actions are green.
N = 3 * DEFAULT_MAX_COMPLETED
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
        assert len(cluster.obs.trackers[node].completed) \
            == DEFAULT_MAX_COMPLETED
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
