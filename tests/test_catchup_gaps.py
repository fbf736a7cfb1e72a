"""Known catch-up gaps: a member needs green positions nobody retains.

The exchange plan takes the member with the highest ``green_count`` as
green holder and assumes its log reaches back to ``green_start``; a
joiner's snapshot and recovery from a compacted WAL both raise a log
base (``green_offset``) above what a peer may still need.  Strict
xfails: a fix fails them until the marker is removed.
"""

import pytest

from repro.core import EngineConfig, EngineState

import test_property_membership as membership
from conftest import make_cluster


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="green retrans gap below a joiner's snapshot")
def test_joiner_snapshot_leaves_a_retransmission_gap():
    """Recipe A, replayed through the membership property."""
    membership.test_membership_churn_preserves_theorems.hypothesis \
        .inner_test([("leave", 2), ("partition", None), ("join", 4),
                     ("submit", 1), ("partition", None)])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="nobody retains the greens replica 3 needs")
def test_compacted_recovery_wedges_the_merge():
    """Recipe B: 1 and 2 order 60 actions without 3, compact, crash and
    recover from the compacted WAL; after the heal the exchange never
    finishes.  A setup that misses that state fails outright."""
    cluster = make_cluster(
        3, engine_config=EngineConfig(log_compaction_threshold=20))
    cluster.start_all(settle=1.0)
    cluster.partition([1, 2], [3])
    cluster.run_for(1.0)
    for i in range(60):
        cluster.replicas[1].submit(("SET", f"k{i}", i))
        cluster.run_for(0.05)
    cluster.run_for(1.0)
    for node in (1, 2):
        cluster.crash(node)
        cluster.recover(node)
    cluster.run_for(1.0)
    bases = {n: (cluster.replicas[n].engine.queue.green_offset,
                 cluster.replicas[n].engine.queue.green_count)
             for n in (1, 2)}
    if bases != {1: (60, 60), 2: (60, 60)}:
        pytest.fail(f"recovered log bases moved: {bases}")
    cluster.heal()
    cluster.run_for(30.0)
    states = {n: r.engine.state for n, r in cluster.replicas.items()}
    applied = {n: r.database.applied_count
               for n, r in cluster.replicas.items()}
    assert set(states.values()) == {EngineState.REG_PRIM}, states
    assert set(applied.values()) == {60}, applied
