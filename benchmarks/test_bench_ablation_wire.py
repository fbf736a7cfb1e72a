"""Ablation — wire batching (coalesced multicasts + piggybacked acks).

Sweeps ``WireBatchConfig.max_batch`` over an open-loop burst: every
action is submitted at one replica up front, so the sustained per-node
send rate is what engages the coalescer.  Batching is a transport
optimisation, so the guard is transparency: every variant must converge
to the identical database digest, and ``max_batch = 1`` must reproduce
the unbatched datapath exactly (same event count, same datagrams).
What's allowed to change — and what the table reports — is the
datagram count, the bytes on the wire, and the simulator event count
(fewer datagrams = fewer delivery events per action).
"""

import time

from bench_common import write_report
from repro.core import ReplicaCluster
from repro.gcs import GcsSettings
from repro.net import WireBatchConfig
from repro.storage import DiskProfile

ACTIONS = 600
#: max_batch sweep (1 = batching off).
WIRE_SWEEP = [1, 4, 16, 64]


def _wire_run(settings, actions):
    """The burst on 5 replicas under the given wire settings: submit
    every action at replica 1 up front, then run until all are green
    there."""
    start = time.perf_counter()
    cluster = ReplicaCluster(
        n=5, seed=0, gcs_settings=settings,
        disk_profile=DiskProfile(forced_write_latency=0.001))
    cluster.start_all(settle=1.5)
    replica = cluster.replicas[1]
    base = replica.green_count
    client = cluster.client(1)
    for _ in range(actions):
        client.submit(("INC", "n", 1))
    deadline = cluster.sim.now + 120.0
    while replica.green_count - base < actions:
        assert cluster.sim.now < deadline, "burst workload stalled"
        cluster.run_for(0.25)
    cluster.assert_converged()
    wall = time.perf_counter() - start
    stats = {
        "events": cluster.sim.events_processed,
        "datagrams": cluster.network.datagrams_sent,
        "bytes_sent": cluster.network.bytes_sent,
        "actions_per_wall_sec": round(actions / wall, 1),
    }
    return stats, replica.database.digest()


def run_sweep():
    reference, ref_digest = _wire_run(GcsSettings(), ACTIONS)
    variants = {}
    for max_batch in WIRE_SWEEP:
        stats, digest = _wire_run(
            GcsSettings(wire=WireBatchConfig(max_batch=max_batch)),
            ACTIONS)
        variants[max_batch] = (stats, digest)
    return reference, ref_digest, variants


def check_shape(reference, ref_digest, variants):
    # max_batch=1 constructs no batcher: bit-identical to unbatched.
    base, base_digest = variants[1]
    assert base["events"] == reference["events"]
    assert base["datagrams"] == reference["datagrams"]
    assert base["bytes_sent"] == reference["bytes_sent"]
    # Transparency: every variant converged to the same state.
    assert all(digest == ref_digest
               for _stats, digest in variants.values())
    # The coalescer earns its keep: monotone datagram reduction with
    # batch depth, and a real cut at the top of the sweep.
    datagrams = [variants[b][0]["datagrams"] for b in WIRE_SWEEP]
    assert all(later <= earlier
               for earlier, later in zip(datagrams, datagrams[1:]))
    assert variants[64][0]["datagrams"] < variants[1][0]["datagrams"]
    assert variants[64][0]["events"] < variants[1][0]["events"]


def test_wire_batching_ablation(benchmark):
    reference, ref_digest, variants = benchmark.pedantic(
        run_sweep, rounds=1, iterations=1)
    check_shape(reference, ref_digest, variants)
    header = (f"{'max_batch':>9} {'datagrams':>10} {'bytes':>10} "
              f"{'events':>9} {'actions/wall-s':>14}")
    lines = [
        f"Ablation: wire batching ({ACTIONS} open-loop actions, "
        f"5 replicas)",
        "",
        header,
        "-" * len(header),
    ]
    for max_batch in WIRE_SWEEP:
        stats, _digest = variants[max_batch]
        lines.append(f"{max_batch:>9} {stats['datagrams']:>10} "
                     f"{stats['bytes_sent']:>10} {stats['events']:>9} "
                     f"{stats['actions_per_wall_sec']:>14}")
    top = variants[WIRE_SWEEP[-1]][0]
    lines += [
        "",
        f"datagram reduction at max_batch=64: "
        f"{variants[1][0]['datagrams'] / top['datagrams']:.2f}x; "
        f"identical digests across the sweep.",
        "max_batch=1 constructs no batcher and matches the unbatched "
        "datapath bit for bit.",
    ]
    write_report("ablation_wire", lines)
