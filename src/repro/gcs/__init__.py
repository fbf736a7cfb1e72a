"""Group communication substrate with Extended Virtual Synchrony.

A Spread-like toolkit over the simulated network: totally ordered
multicast with FIFO/AGREED/SAFE service levels, membership with
transitional + regular configuration notifications, NACK loss recovery,
and reliable point-to-point channels for out-of-group transfer.
"""

from .channel import ReliableChannelEndpoint
from .daemon import DaemonState, GcsDaemon, GcsListener
from .group import GroupChannel
from .ordering import ViewOrdering
from .types import (ChanAck, ChanData, Configuration, GcsSettings,
                    ServiceLevel, ViewId)

__all__ = [
    "ChanAck",
    "ChanData",
    "Configuration",
    "DaemonState",
    "GcsDaemon",
    "GcsListener",
    "GcsSettings",
    "GroupChannel",
    "ReliableChannelEndpoint",
    "ServiceLevel",
    "ViewId",
    "ViewOrdering",
]
