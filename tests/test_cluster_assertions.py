"""The cluster's executable consistency assertions must actually fire
on violations (tests of the test oracles).

The checks are the rules of ``repro.core.invariants``, evaluated by the
runtime-neutral cluster base over real engines, so the oracle
cases run on a simulated cluster and on a live one (asyncio on an
in-process transport); the crash and leave cases stay on the
simulator, which can step time around the fault."""

import asyncio

import pytest

from repro.core import EngineState, PrimComponent
from repro.db import ActionId
from repro.gcs import Configuration, ViewId
from repro.runtime import AsyncioRuntime, LiveCluster

from conftest import make_cluster


def _submit_three(cluster):
    client = cluster.client(1)
    for i in range(3):
        client.submit(("SET", f"k{i}", i))


@pytest.fixture
def cluster():
    c = make_cluster(3)
    c.start_all(settle=1.0)
    _submit_three(c)
    c.run_for(1.0)
    return c


@pytest.fixture
def live_cluster():
    """Three replicas brought to a primary and three green actions,
    then frozen: the loop stays open but idle while the test reads and
    forges state."""
    loop = asyncio.new_event_loop()
    c = LiveCluster([1, 2, 3], runtime=AsyncioRuntime(loop))

    async def settle():
        c.start_all()
        await c.wait_all_engine_state(EngineState.REG_PRIM, timeout=10)
        _submit_three(c)
        await c.wait_green(3, timeout=10)

    try:
        loop.run_until_complete(settle())
        yield c
    finally:
        c.shutdown()
        loop.close()


def healthy_cluster_converges(c):
    c.assert_converged()


def prefix_violation_detected(c):
    # Forge a divergent applied log at replica 2.
    log = c.replicas[2].database.applied_log
    log[0] = ActionId(99, 99)
    with pytest.raises(AssertionError, match="^green-prefix: "):
        c.assert_prefix_consistent()


def count_divergence_detected(c):
    c.replicas[2].database.applied_log.append(ActionId(9, 9))
    c.replicas[2].database.applied_count += 1
    with pytest.raises(AssertionError, match="not converged"):
        c.assert_converged()


def digest_divergence_detected(c):
    c.replicas[2].database.state["k0"] = "corrupted"
    with pytest.raises(AssertionError, match="digests differ"):
        c.assert_converged()


def multiple_primaries_detected(c):
    # Forge two different views both claiming RegPrim.
    c.replicas[1].engine.conf = Configuration(ViewId(99, 1), frozenset([1]))
    with pytest.raises(AssertionError, match="^single-primary: "):
        c.assert_single_primary()


def duplicate_install_detected(c):
    # Replica 2 claims replica 1's primary index with another attempt.
    prim = c.replicas[1].engine.prim_component
    c.replicas[2].engine.prim_component = PrimComponent(
        prim.prim_index, prim.attempt_index + 1, prim.servers)
    with pytest.raises(AssertionError, match="^unique-install: "):
        c.assert_single_primary()


def unguarded_quorum_detected(c):
    # Replica 1, cut off alone, claims the next primary, while the
    # quorum {2, 3} of the current one neither holds that install nor
    # is vulnerable to an attempt at it.
    c.partition([1], [2, 3])
    prim = c.replicas[1].engine.prim_component
    for n in (2, 3):
        vulnerable = c.replicas[n].engine.vulnerable
        assert not (vulnerable.is_valid
                    and vulnerable.prim_index == prim.prim_index)
    c.replicas[1].engine.prim_component = PrimComponent(
        prim.prim_index + 1, 0, (1,))
    with pytest.raises(AssertionError,
                       match=r"^vulnerable-net: component \(2, 3\) "):
        c.assert_single_primary()


ORACLES = [healthy_cluster_converges, prefix_violation_detected,
           count_divergence_detected, digest_divergence_detected,
           multiple_primaries_detected, duplicate_install_detected,
           unguarded_quorum_detected]


def test_assert_converged_passes_on_healthy_cluster(cluster):
    healthy_cluster_converges(cluster)


def test_prefix_violation_detected(cluster):
    prefix_violation_detected(cluster)


def test_count_divergence_detected(cluster):
    count_divergence_detected(cluster)


def test_digest_divergence_detected(cluster):
    digest_divergence_detected(cluster)


def test_multiple_primaries_detected(cluster):
    multiple_primaries_detected(cluster)


def test_duplicate_install_detected(cluster):
    duplicate_install_detected(cluster)


def test_unguarded_quorum_detected(cluster):
    unguarded_quorum_detected(cluster)


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda f: f.__name__)
def test_oracle_on_live_cluster(live_cluster, oracle):
    oracle(live_cluster)


def test_crashed_replicas_excluded_from_checks(cluster):
    cluster.crash(3)
    cluster.run_for(1.0)
    client = cluster.client(1)
    client.submit(("SET", "after", 1))
    cluster.run_for(1.0)
    # Node 3's stale database must not fail the check while it is down.
    cluster.assert_converged()


def test_exited_replicas_excluded(cluster):
    cluster.replicas[3].leave()
    cluster.run_for(2.0)
    cluster.client(1).submit(("SET", "post", 1))
    cluster.run_for(1.0)
    cluster.assert_converged()


def test_applied_logs_only_running(cluster):
    cluster.crash(2)
    logs = cluster.applied_logs()
    assert set(logs) == {1, 3}
