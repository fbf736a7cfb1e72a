"""Reliable FIFO point-to-point channels (ARQ over the datagram fabric).

The group-communication daemon recovers losses through its own NACK and
flush machinery; these channels serve *out-of-group* communication — in
this reproduction, the database transfer from a representative peer to a
joining replica (Section 5.1), which the paper performs over a direct
connection rather than through the replicated group.

Standard go-back-N: cumulative acks, retransmission timer, per-peer send
windows.  Duplicates are filtered, delivery is in send order, and every
received payload is answered by one cumulative ``ChanAck``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..net import Datagram
from ..sim import Actor
from .types import ChanAck, ChanData

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability
    from ..runtime.base import Runtime, Transport


class _PeerState:
    """Per-peer send/receive bookkeeping."""

    __slots__ = ("next_out", "acked", "outstanding", "next_in", "buffer")

    def __init__(self) -> None:
        self.next_out = 0
        self.acked = 0
        self.outstanding: Dict[int, Tuple[Any, int]] = {}
        self.next_in = 0
        self.buffer: Dict[int, Any] = {}


class ReliableChannelEndpoint(Actor):
    """One node's endpoint for reliable unicast to any peer.

    This endpoint shares the node's network attachment: the owner
    dispatches ChanData/ChanAck datagrams to :meth:`on_datagram`.
    """

    def __init__(self, sim: "Runtime", node: int, network: "Transport",
                 on_message: Callable[[int, Any], None],
                 retransmit_interval: float = 0.05,
                 obs: Optional["Observability"] = None) -> None:
        super().__init__(sim, name=f"chan{node}")
        self.node = node
        self.network = network
        self.on_message = on_message
        self._peers: Dict[int, _PeerState] = {}
        # Native counts on the datapath; mirrored into the registry at
        # collection time (one inc per message would be measurable on
        # the asyncio runtime, where every protocol message crosses a
        # channel).
        self.sends = 0
        self.retransmits = 0
        self.deliveries = 0
        if obs is not None and obs.enabled:
            registry = obs.registry
            registry.counter_callback(
                "repro_channel_sends_total",
                lambda: self.sends,
                "Payloads queued on reliable point-to-point channels.",
                ("server",), (node,))
            registry.counter_callback(
                "repro_channel_retransmits_total",
                lambda: self.retransmits,
                "Go-back-N retransmissions on reliable channels.",
                ("server",), (node,))
            registry.counter_callback(
                "repro_channel_deliveries_total",
                lambda: self.deliveries,
                "In-order payload deliveries on reliable channels.",
                ("server",), (node,))
            registry.gauge_callback(
                "repro_channel_unacked",
                lambda: sum(len(s.outstanding)
                            for s in self._peers.values()),
                "Unacknowledged payloads across all peers.",
                ("server",), (node,))
        self._retry = self.make_timer("retry", self._retransmit,
                                      retransmit_interval, periodic=True)
        self._running = False

    def start(self) -> None:
        self._running = True
        self._retry.start()

    def stop(self) -> None:
        self._running = False
        self.cancel_all()
        self._peers = {}

    def _peer(self, peer: int) -> _PeerState:
        if peer not in self._peers:
            self._peers[peer] = _PeerState()
        return self._peers[peer]

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, peer: int, payload: Any, size: int = 200) -> None:
        """Queue ``payload`` for reliable in-order delivery to ``peer``."""
        if not self._running:
            return
        state = self._peer(peer)
        seq = state.next_out
        state.next_out += 1
        state.outstanding[seq] = (payload, size)
        self.sends += 1
        self.network.send(self.node, peer, ChanData(self.node, seq, payload),
                          size)

    def _retransmit(self) -> None:
        for peer, state in self._peers.items():
            for seq in sorted(state.outstanding):
                payload, size = state.outstanding[seq]
                self.retransmits += 1
                self.network.send(self.node, peer,
                                  ChanData(self.node, seq, payload), size)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_datagram(self, datagram: Datagram) -> bool:
        """Handle a channel datagram; returns False if not ours."""
        payload = datagram.payload
        if isinstance(payload, ChanData):
            self._on_data(payload)
            return True
        if isinstance(payload, ChanAck):
            self._on_ack(payload)
            return True
        return False

    def _on_data(self, msg: ChanData) -> None:
        if not self._running:
            return
        state = self._peer(msg.src)
        if msg.seq >= state.next_in:
            state.buffer[msg.seq] = msg.payload
        delivered = []
        while state.next_in in state.buffer:
            delivered.append(state.buffer.pop(state.next_in))
            state.next_in += 1
        self.network.send(self.node, msg.src,
                          ChanAck(self.node, state.next_in), 64)
        self.deliveries += len(delivered)
        for payload in delivered:
            self.on_message(msg.src, payload)

    def _on_ack(self, msg: ChanAck) -> None:
        state = self._peer(msg.src)
        if msg.ack_seq > state.acked:
            state.acked = msg.ack_seq
            for seq in [s for s in state.outstanding if s < msg.ack_seq]:
                del state.outstanding[seq]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def unacked(self, peer: int) -> int:
        state = self._peers.get(peer)
        return len(state.outstanding) if state else 0
