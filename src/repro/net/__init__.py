"""Partitionable network substrate.

Unreliable datagram fabric with latency/bandwidth/loss models and a
partition/crash topology.  Faults are injected through
``repro.core.cluster.Cluster``; randomized fault schedules live in
``repro.check.fuzz``.
"""

from .latency import (NetworkProfile, lan_profile,
                      lossless_instant_profile, wan_profile)
from .message import Datagram
from .network import Network
from .topology import Topology, TopologyError

# NOTE: repro.net.codec is intentionally *not* imported here — it
# depends on repro.gcs (message types), which depends back on this
# package; the live transports import it directly.

__all__ = [
    "Datagram",
    "Network",
    "NetworkProfile",
    "Topology",
    "TopologyError",
    "lan_profile",
    "lossless_instant_profile",
    "wan_profile",
]
