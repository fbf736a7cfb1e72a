"""Core types of the group communication service.

The replication engine consumes the *Extended Virtual Synchrony* (EVS)
interface: ordered message delivery plus two-stage configuration-change
notifications (transitional configuration, then regular configuration),
with the **safe delivery** guarantee of [Moser et al. 94] — the property
Section 4.1 of the paper builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, FrozenSet, NamedTuple, Optional, Tuple

from ..net.message import wire_size


class ServiceLevel(Enum):
    """Delivery guarantees, weakest to strongest.

    The implementation delivers everything in the view's total order, so
    RELIABLE/FIFO/CAUSAL/AGREED differ only in what they *promise*;
    SAFE additionally waits for stability (all view members received the
    message) before delivery.
    """

    RELIABLE = "reliable"
    FIFO = "fifo"
    CAUSAL = "causal"
    AGREED = "agreed"
    SAFE = "safe"


class ViewId(NamedTuple):
    """Identifier of a regular configuration: (epoch, coordinator).

    A NamedTuple rather than a frozen dataclass: view ids are compared
    and hashed on every datagram the GCS daemon handles, and the
    C-level tuple operations keep that off the interpreter's profile.
    """

    epoch: int
    coordinator: int

    def __str__(self) -> str:
        return f"v{self.epoch}.{self.coordinator}"


@dataclass(frozen=True)
class Configuration:
    """A membership notification.

    ``transitional`` distinguishes the reduced transitional
    configuration from a regular configuration.  For a transitional
    configuration, ``view_id`` is the id of the regular configuration it
    terminates and ``members`` is the subset moving together to the next
    regular configuration.
    """

    view_id: ViewId
    members: FrozenSet[int]
    transitional: bool = False

    def __contains__(self, node: int) -> bool:
        return node in self.members

    def __str__(self) -> str:  # pragma: no cover - debug aid
        kind = "trans" if self.transitional else "reg"
        return f"{kind}({self.view_id}, {sorted(self.members)})"


@dataclass
class GcsSettings:
    """Tunable protocol timers (seconds) and policies.

    Defaults are tuned for the paper's 100 Mbit LAN profile: safe
    delivery completes in ~2 ms, membership changes settle in a few
    hundred ms.
    """

    heartbeat_interval: float = 0.050
    failure_timeout: float = 0.200
    gather_settle: float = 0.060
    phase_timeout: float = 0.400
    stamp_window: float = 0.0004
    ack_window: float = 0.0010
    # Turn-end flushing for live runs: never wait out a coalescing
    # window.  A due stamp batch or ack leaves at the end of the loop
    # turn that made it due, at most one of each per node per turn, so
    # stamp_window and ack_window go unused.  Batching comes from the
    # loop itself (a busier turn drains more datagrams, so its flush
    # carries more) and the processor paces the turns; the policy has
    # no rate bound of its own.  A membership gather settles at the end
    # of the dispatch in which every directory member has answered or
    # is presumed failed (heard from, but not within failure_timeout),
    # instead of waiting out gather_settle, and failure detection checks
    # at the earliest member's deadline (last heard + failure_timeout)
    # instead of polling every failure_timeout / 2.  Live runs turn it
    # on (an event loop rounds each timer up to a millisecond, paid
    # twice per safe delivery at any load, an idle gather costs a whole
    # gather_settle, and a poll adds up to half a timeout to every
    # partition); the simulator keeps the paper-calibrated timing its
    # figures are pinned to.
    idle_immediate: bool = False
    nack_timeout: float = 0.020
    use_topology_hints: bool = True


# ----------------------------------------------------------------------
# wire messages (GCS-internal protocol)
# ----------------------------------------------------------------------
# ``wire_size``: each kind's price in bytes on the simulated link
# (repro.net.message.wire_size); a data message adds _HEADER to its
# payload's.
_HEADER = 48


@dataclass(frozen=True)
class DataMsg:
    """Application payload multicast by its origin within a view."""

    view_id: ViewId
    origin: int
    fifo_seq: int
    payload: object
    service: ServiceLevel

    @property
    def wire_size(self) -> int:
        return _HEADER + wire_size(self.payload)


@dataclass(frozen=True)
class StampMsg:
    """Sequencer order stamps: tuples of (seq, origin, fifo_seq)."""

    view_id: ViewId
    stamps: Tuple[Tuple[int, int, int], ...]

    @property
    def wire_size(self) -> int:
        return _HEADER + 16 * len(self.stamps)


@dataclass(frozen=True)
class AckMsg:
    """Cumulative stability acknowledgment: ``node`` has stamp+data for
    every sequence number <= ``ack_seq`` in ``view_id``."""

    view_id: ViewId
    node: int
    ack_seq: int
    wire_size = 64


@dataclass(frozen=True)
class HeartbeatMsg:
    """Liveness + piggybacked stability ack.

    ``green_line`` is the sender's *durable* green count — globally
    ordered actions whose log records a completed sync covers, so a
    crash cannot roll the sender back below it.  Every member
    heartbeats, so members that originate no actions still publish
    their line and the white line advances with them.
    """

    node: int
    view_id: Optional[ViewId]
    joined: bool
    ack_seq: int
    green_line: int = 0
    wire_size = 64


@dataclass(frozen=True)
class NackMsg:
    """Request retransmission of missing stamps/data in a live view."""

    view_id: ViewId
    node: int
    missing_data: Tuple[int, ...]
    want_stamps_from: int
    wire_size = 96


@dataclass(frozen=True)
class RetransDataMsg:
    """Retransmitted stamped messages: (seq, origin, fifo_seq, payload,
    service) tuples, each priced as the data message it repeats."""

    view_id: ViewId
    items: Tuple[Tuple, ...]

    @property
    def wire_size(self) -> int:
        return sum(_HEADER + wire_size(item[3]) for item in self.items)


# -- reliable point-to-point channel messages ---------------------------
# (defined here rather than in repro.gcs.channel so the wire codec
# depends only on data types, never on the channel's Actor machinery)

@dataclass(frozen=True)
class ChanData:
    """A sequenced channel payload."""

    src: int
    seq: int
    payload: Any

    @property
    def wire_size(self) -> int:
        return wire_size(self.payload)


@dataclass(frozen=True)
class ChanAck:
    """Cumulative ack: receiver got everything below ``ack_seq``."""

    src: int
    ack_seq: int
    wire_size = 64


# -- membership protocol messages --------------------------------------

@dataclass(frozen=True)
class GatherMsg:
    """Membership round announcement."""

    node: int
    attempt: int
    joined: bool
    wire_size = 96


@dataclass(frozen=True)
class ProposeMsg:
    """Coordinator's proposed membership for this attempt."""

    coordinator: int
    attempt: int
    members: Tuple[int, ...]
    wire_size = 96


@dataclass(frozen=True)
class StateReportMsg:
    """A member's old-view delivery state, sent to the coordinator."""

    node: int
    attempt: int
    old_view_id: Optional[ViewId]
    stamps: Tuple[Tuple[int, int, int], ...]   # (seq, origin, fifo_seq)
    have_data: Tuple[int, ...]                 # seqs with payload held
    stability_line: int                        # known min ack across view

    @property
    def wire_size(self) -> int:
        return 96 + 24 * len(self.stamps)


@dataclass(frozen=True)
class FlushPlanMsg:
    """Coordinator's per-old-view flush plan, broadcast to members."""

    coordinator: int
    attempt: int
    old_view_id: Optional[ViewId]
    union_stamps: Tuple[Tuple[int, int, int], ...]
    data_available: Tuple[int, ...]
    stable_line: int

    @property
    def wire_size(self) -> int:
        return 96 + 16 * len(self.union_stamps)


@dataclass(frozen=True)
class FlushRetransCmd:
    """Coordinator tells the member it is sent to (a holder) to send
    ``seqs`` of ``old_view_id`` to ``to_node``."""

    coordinator: int
    attempt: int
    to_node: int
    old_view_id: ViewId
    seqs: Tuple[int, ...]
    wire_size = 96


@dataclass(frozen=True)
class FlushDoneMsg:
    """Member signals it holds everything its flush plan requires."""

    node: int
    attempt: int
    wire_size = 96


@dataclass(frozen=True)
class InstallMsg:
    """Coordinator commits the new regular configuration."""

    coordinator: int
    attempt: int
    new_view_id: ViewId
    members: Tuple[int, ...]
    # node -> members of the new view coming from node's old view
    trans_sets: Tuple[Tuple[int, Tuple[int, ...]], ...]
    wire_size = 96


@dataclass(frozen=True)
class LeaveMsg:
    """Voluntary group leave announcement."""

    node: int
    wire_size = 96
