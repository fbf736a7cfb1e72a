"""Common interface for the replication systems under benchmark.

The harness in :mod:`repro.bench` drives any object implementing
:class:`ReplicationSystemAPI`: our engine (via the adapter below),
COReL, and two-phase commit.  All three run over identical simulated
networks and disks so the comparison isolates protocol costs — message
counts and forced-write counts per action — exactly as in Section 7.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import EngineConfig, ReplicaCluster
from ..db import ActionId
from ..gcs import GcsSettings
from ..net import NetworkProfile
from ..sim import Simulator
from ..storage import DiskProfile

Completion = Callable[[], None]


class ReplicationSystemAPI:
    """What the benchmark harness needs from a replicated system."""

    name = "abstract"

    @property
    def sim(self) -> Simulator:
        raise NotImplementedError

    @property
    def nodes(self) -> List[int]:
        raise NotImplementedError

    def start(self, settle: float = 2.0) -> None:
        raise NotImplementedError

    def submit(self, node: int, update: Tuple,
               on_complete: Completion) -> None:
        """Submit one action at ``node``; ``on_complete`` fires when the
        action is globally ordered (the paper's client response point)."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Aggregate resource counters for the metrics report."""
        raise NotImplementedError


class EngineSystem(ReplicationSystemAPI):
    """Adapter: the paper's replication engine as a benchmark system."""

    name = "engine"

    def __init__(self, n: int, seed: int = 0,
                 network_profile: Optional[NetworkProfile] = None,
                 disk_profile: Optional[DiskProfile] = None,
                 gcs_settings: Optional[GcsSettings] = None,
                 engine_config: Optional[EngineConfig] = None,
                 observability: Optional[Any] = None):
        self.cluster = ReplicaCluster(
            n=n, seed=seed, network_profile=network_profile,
            disk_profile=disk_profile, gcs_settings=gcs_settings,
            engine_config=engine_config, observability=observability)
        if engine_config is not None and not \
                engine_config.forced_client_writes:
            self.name = "engine-delayed-writes"

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    @property
    def nodes(self) -> List[int]:
        return list(self.cluster.server_ids)

    def start(self, settle: float = 2.0) -> None:
        self.cluster.start_all(settle=settle)

    def submit(self, node: int, update: Tuple,
               on_complete: Completion) -> None:
        self.cluster.replicas[node].submit(
            update=update,
            on_complete=lambda _a, _p, _r: on_complete())

    def counters(self) -> Dict[str, float]:
        replicas = self.cluster.replicas.values()
        return {
            "datagrams": self.cluster.network.datagrams_sent,
            "bytes": self.cluster.network.bytes_sent,
            "forced_writes": sum(r.disk.forced_writes for r in replicas),
            "syncs": sum(r.disk.syncs for r in replicas),
            "greens": sum(r.engine.stats["greens"] for r in replicas),
        }

