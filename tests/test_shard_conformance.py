"""Shard-fabric conformance: identical per-shard protocol trace on the
simulator and on live UDP.

The same scripted workload — boot two 3-replica shards, four
shard-local commits per shard, one cross-shard transaction through the
coordinator — runs on a :class:`ShardFabric` (one ``SimRuntime``) and
on a :class:`LiveShardFabric` over real UDP loopback sockets (one
``AsyncioRuntime``, shared transport, namespaced GCS groups).  The
protocol observables must match exactly:

* each shard's applied green order (including the prepare / decide /
  finish records of the cross-shard transaction),
* each shard's database digest,
* the transaction outcome.

Wall-clock timings and datagram counts may differ arbitrarily; the
per-shard total orders may not — the coordinator is runtime-agnostic
and the router is a pure function, so not one protocol decision may
depend on the substrate.
"""

import asyncio

from repro.gcs import GcsSettings
from repro.runtime import live_gcs_settings
from repro.shard import LiveShardFabric, ShardFabric
from repro.storage import DiskProfile

LOCALS = 4
#: greens per shard: locals + prepare/decide/finish at the decider
#: (shard 0), locals + prepare/finish at the other participant.
EXPECTED_GREENS = {0: LOCALS + 3, 1: LOCALS + 2}

SIM_GCS = GcsSettings(heartbeat_interval=0.02, failure_timeout=0.08,
                      gather_settle=0.02, phase_timeout=0.15)
SIM_DISK = DiskProfile(forced_write_latency=0.001)


def _cross_keys(router):
    """One deterministic key per shard (identical on both fabrics —
    placement is a pure function of the key)."""
    key_for = {}
    probe = 0
    while 0 not in key_for or 1 not in key_for:
        key_for.setdefault(router.shard_for_key(f"xk{probe}"),
                           f"xk{probe}")
        probe += 1
    return key_for


def _load(fabric, outcomes):
    key_for = _cross_keys(fabric.router)
    for shard in range(2):
        for i in range(LOCALS):
            fabric.submit_local(shard, ("SET", f"s{shard}-k{i}", i))
    fabric.submit([("SET", key_for[0], "x0"), ("SET", key_for[1], "x1")],
                  lambda _txn, outcome: outcomes.append(outcome))


def _trace(fabric, outcomes):
    return {"greens": {s: fabric.green_order(s) for s in (0, 1)},
            "digests": fabric.digests(),
            "outcomes": list(outcomes)}


def _sim_trace():
    fabric = ShardFabric(2, 3, seed=0, gcs_settings=SIM_GCS,
                         disk_profile=SIM_DISK)
    fabric.start_all(settle=1.5)
    outcomes = []
    _load(fabric, outcomes)
    deadline = fabric.sim.now + 60.0
    while (any(fabric.green_count(s) < EXPECTED_GREENS[s]
               for s in EXPECTED_GREENS) or not outcomes):
        assert fabric.sim.now < deadline, "sim fabric stalled"
        fabric.run_for(0.05)
    fabric.run_for(1.0)
    fabric.assert_converged()
    return _trace(fabric, outcomes)


def _live_trace(udp):
    async def scenario():
        fabric = LiveShardFabric(2, 3, udp=udp,
                                 gcs_settings=live_gcs_settings())
        try:
            fabric.start_all()
            await fabric.wait_all_primary(timeout=15)
            outcomes = []
            _load(fabric, outcomes)
            for shard, count in EXPECTED_GREENS.items():
                await fabric.wait_green(shard, count, timeout=20)
            await fabric.wait_no_inflight(timeout=10)
            fabric.assert_converged()
            assert fabric.runtime.callback_errors == 0, \
                fabric.runtime.last_callback_error
            return _trace(fabric, outcomes)
        finally:
            fabric.shutdown()

    return asyncio.run(scenario())


def _check(trace):
    assert trace["outcomes"] == ["commit"]
    assert {s: len(g) for s, g in trace["greens"].items()} \
        == EXPECTED_GREENS
    assert len(trace["digests"]) == 2


def test_sim_and_live_udp_fabric_traces_are_identical():
    sim = _sim_trace()
    live = _live_trace(udp=True)
    _check(sim)
    _check(live)
    assert sim["greens"] == live["greens"]
    assert sim["digests"] == live["digests"]


def test_sim_and_memory_transport_fabric_traces_are_identical():
    # The in-process MemoryTransport variant: same asyncio runtime and
    # commit path, no sockets — the cheap half of the conformance
    # matrix, worth keeping separate so a UDP-environment failure
    # doesn't mask a protocol drift.
    sim = _sim_trace()
    live = _live_trace(udp=False)
    _check(live)
    assert sim["greens"] == live["greens"]
    assert sim["digests"] == live["digests"]
