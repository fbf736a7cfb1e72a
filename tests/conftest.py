"""Shared fixtures for the test suite.

Test clusters default to small sizes and fast GCS timers so the suite
stays quick; the benchmark directory uses the paper's 14-replica
configuration.
"""

from __future__ import annotations

import pytest

from repro.core import EngineConfig, ReplicaCluster
from repro.gcs import GcsSettings
from repro.net import NetworkProfile
from repro.sim import Simulator
from repro.storage import DiskProfile


def fast_gcs_settings(**overrides) -> GcsSettings:
    """GCS timers scaled down for quick membership in tests."""
    params = dict(heartbeat_interval=0.02, failure_timeout=0.08,
                  gather_settle=0.02, phase_timeout=0.15,
                  nack_timeout=0.01)
    params.update(overrides)
    return GcsSettings(**params)


def fast_disk_profile(**overrides) -> DiskProfile:
    """A fast disk so protocol logic, not disk latency, dominates."""
    params = dict(forced_write_latency=0.001, async_write_latency=0.00001)
    params.update(overrides)
    return DiskProfile(**params)


def make_cluster(n: int = 3, seed: int = 0, **kwargs) -> ReplicaCluster:
    kwargs.setdefault("gcs_settings", fast_gcs_settings())
    kwargs.setdefault("disk_profile", fast_disk_profile())
    return ReplicaCluster(n=n, seed=seed, **kwargs)


def recoverable_greens(replica) -> int:
    """The green count recovery would rebuild from ``replica``'s disk
    right now: walking the durable journal in order, the latest
    snapshot's base plus one per green journaled after it
    (``recover_engine``'s position rule)."""
    count = 0
    for record in replica.wal.recover():
        if record.kind == "db_snapshot":
            count = record.data["applied_count"]
        elif record.kind == "green":
            count += 1
    return count


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def cluster3() -> ReplicaCluster:
    cluster = make_cluster(3)
    cluster.start_all(settle=1.0)
    return cluster


@pytest.fixture
def cluster5() -> ReplicaCluster:
    cluster = make_cluster(5)
    cluster.start_all(settle=1.0)
    return cluster
