"""Execution runtimes for the replication stack.

The protocol layers (engine, GCS daemon, storage) are written against
two narrow protocols — :class:`Runtime` (clock + timers) and
:class:`Transport` (datagram fabric) — and this package provides both
production pairs:

============================  =========================================
deterministic (virtual time)  :class:`repro.sim.Simulator` +
                              :class:`repro.net.Network`
live (wall-clock, asyncio)    :class:`AsyncioRuntime` +
                              :class:`AsyncioTransport` (UDP) or
                              :class:`MemoryTransport` (in-process)
============================  =========================================

:class:`LiveCluster` is the asyncio counterpart of
:class:`repro.core.ReplicaCluster`, both built on
:class:`repro.core.cluster.Cluster`; ``examples/live_cluster.py`` drives
a real three-process deployment with it.
"""

from .asyncio_runtime import AsyncioHandle, AsyncioRuntime
from .base import Handle, Runtime, Transport
from .cluster import (LiveCluster, LiveClusterTimeout, live_disk_profile,
                      live_engine_config, live_gcs_settings, udp_cluster)
from .transport import AsyncioTransport, MemoryTransport, loopback_addresses

__all__ = [
    "Runtime", "Handle", "Transport",
    "AsyncioRuntime", "AsyncioHandle",
    "MemoryTransport", "AsyncioTransport",
    "loopback_addresses",
    "LiveCluster", "LiveClusterTimeout", "udp_cluster",
    "live_gcs_settings", "live_disk_profile", "live_engine_config",
]
