"""Live :class:`~repro.runtime.base.Transport` implementations.

Two backends for the asyncio runtime:

* :class:`MemoryTransport` — all nodes in one process, datagrams handed
  across through the runtime's timer queue with a small configurable
  latency.  No sockets, no serialization; the backend of choice for
  conformance tests and single-process live clusters.  Its
  ``bytes_sent`` bills each delivery at the payload kind's price
  (:func:`~repro.net.message.wire_size`), as the simulator does.
* :class:`AsyncioTransport` — real UDP sockets (one per hosted node,
  loopback or LAN), datagrams framed by the binary wire codec
  (:mod:`repro.net.codec`), non-blocking receive via
  ``loop.add_reader``.  A process hosts any subset of the cluster's
  nodes; the address map names them all.

Both obey the cluster's :class:`~repro.net.Topology`, the reachability
model the simulated :class:`~repro.net.Network` obeys too: a datagram
between nodes that are down or in different components is dropped at
send time and again at delivery time (a partition or a crash cuts
messages already in flight).  In a multi-process deployment every
process drives the same partition and crash schedule into its own
topology; there is no hidden global coordinator.

UDP is lossy by nature and these transports make no reliability
promises — exactly the contract the GCS daemon's NACK and flush
machinery is built for.  That includes size: a frame that encodes
larger than ``_MAX_DGRAM`` is a counted drop (``oversize_dropped``,
``repro_transport_oversize_dropped_total``, one ``transport.oversize``
event in the sender's log), never an exception inside an event-loop
callback, and so is a payload outside the codec's grammar (one
``transport.unencodable`` event).
Nothing upstream bounds message size yet: NACK stamp replies and flush
plans grow with the backlog, and the joiner's ``TransferHeader`` still
carries the representative's whole applied log (one 8-byte word per
entry: on loopback UDP a join after 7,250 applied actions completes,
one after 7,500 is dropped here and the joiner keeps retrying).
Bounding those messages is ROADMAP 1(b)/2(a).
"""

from __future__ import annotations

import socket
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable,
                    Optional, Sequence, Tuple)

from ..net import Topology, codec
from ..net.message import Datagram, wire_size
from .asyncio_runtime import AsyncioRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability

Handler = Callable[[Datagram], None]

# Practical UDP payload ceiling on loopback (the kernel fragments up to
# 64 KiB; snapshot chunks are 8 KiB).
_MAX_DGRAM = 60000


class _LiveFabric:
    """What both live transports share: the handlers, the counters, and
    delivery, which checks reachability (``topology``) again so a
    partition or crash installed while a datagram is in flight still
    cuts it."""

    def __init__(self, runtime: AsyncioRuntime, topology: Topology):
        self.runtime = runtime
        self.topology = topology
        self._handlers: Dict[int, Handler] = {}
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_dropped = 0
        self.bytes_sent = 0

    def detach(self, node: int) -> None:
        """Silence a node; a socket stays bound for a later recover."""
        self._handlers.pop(node, None)

    def is_attached(self, node: int) -> bool:
        return node in self._handlers

    def _deliver(self, datagram: Datagram) -> None:
        if not self.topology.reachable(datagram.src, datagram.dst):
            self.datagrams_dropped += 1
            return
        handler = self._handlers.get(datagram.dst)
        if handler is None:
            self.datagrams_dropped += 1
            return
        self.datagrams_delivered += 1
        handler(datagram)


class MemoryTransport(_LiveFabric):
    """In-process datagram fabric over an :class:`AsyncioRuntime`.

    Every hosted node shares this object; a send posts the delivery
    callback ``latency`` seconds ahead on the runtime.  Reachability
    (``topology``) is checked at send *and* delivery time.
    """

    def __init__(self, runtime: AsyncioRuntime, topology: Topology,
                 latency: float = 0.0002):
        super().__init__(runtime, topology)
        self.latency = latency

    def attach(self, node: int, handler: Handler) -> None:
        self._handlers[node] = handler

    def send(self, src: int, dst: int, payload: Any) -> None:
        self.multicast(src, (dst,), payload)

    def multicast(self, src: int, dsts: Iterable[int], payload: Any) -> None:
        if src not in self._handlers:
            return
        size = wire_size(payload)
        for dst in dsts:
            self.datagrams_sent += 1
            self.bytes_sent += size
            if not self.topology.reachable(src, dst):
                self.datagrams_dropped += 1
                continue
            self.runtime.post(self.latency, self._deliver,
                              Datagram(src, dst, payload))


class AsyncioTransport(_LiveFabric):
    """UDP datagram fabric: one socket per *hosted* node.

    ``addresses`` maps every node id in the deployment to its
    ``(host, port)``.  :meth:`open` binds the socket for a locally
    hosted node (synchronously — sockets are non-blocking and reads are
    dispatched through ``loop.add_reader``); ``attach`` then binds the
    receive handler.  Pre-bound sockets can be injected instead
    (``open(node, sock=...)``), which lets a parent process bind all
    ports race-free and fork the cluster.

    Wire format: the frames of :mod:`repro.net.codec`.

    ``bytes_sent`` counts *real encoded bytes* handed to the kernel;
    loopback deliveries are never encoded, so they count their kind's
    price (:func:`~repro.net.message.wire_size`).
    """

    def __init__(self, runtime: AsyncioRuntime,
                 addresses: Dict[int, Tuple[str, int]],
                 topology: Topology):
        super().__init__(runtime, topology)
        self.addresses = dict(addresses)
        self._sockets: Dict[int, socket.socket] = {}
        self.oversize_dropped = 0
        self._obs: Optional["Observability"] = None

    def observe(self, obs: "Observability") -> None:
        """Export the oversize-drop count through ``obs`` and record
        each drop on the sender's event log.  The first caller wins: the
        count is transport-wide, so clusters sharing one transport
        export it once."""
        if self._obs is not None:
            return
        self._obs = obs
        if obs.enabled:
            obs.registry.counter_callback(
                "repro_transport_oversize_dropped_total",
                lambda: self.oversize_dropped,
                "Frames dropped at send because they encode larger "
                "than one UDP datagram.")

    # -- socket lifecycle ----------------------------------------------
    def open(self, node: int,
             sock: Optional[socket.socket] = None) -> None:
        """Bind (or adopt) the UDP socket for a locally hosted node.  A
        node missing from the address map (a replica added at run time)
        binds an OS-assigned loopback port."""
        if node in self._sockets:
            return
        if sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(self.addresses.get(node, ("127.0.0.1", 0)))
        sock.setblocking(False)
        self.addresses[node] = sock.getsockname()
        self._sockets[node] = sock
        self.runtime.loop.add_reader(sock.fileno(), self._on_readable,
                                     node, sock)

    def close(self) -> None:
        """Close every hosted socket (end of deployment)."""
        for node, sock in self._sockets.items():
            try:
                self.runtime.loop.remove_reader(sock.fileno())
            except (ValueError, OSError):  # pragma: no cover - shutdown
                pass
            sock.close()
        self._sockets = {}
        self._handlers = {}

    # -- attachment -----------------------------------------------------
    def attach(self, node: int, handler: Handler) -> None:
        if node not in self._sockets:
            self.open(node)
        self._handlers[node] = handler

    # -- sending --------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any) -> None:
        self.multicast(src, (dst,), payload)

    def multicast(self, src: int, dsts: Iterable[int], payload: Any) -> None:
        sock = self._sockets.get(src)
        if sock is None or src not in self._handlers:
            return
        blob: Optional[bytes] = None
        for dst in dsts:
            self.datagrams_sent += 1
            if not self.topology.reachable(src, dst):
                self.datagrams_dropped += 1
                continue
            if dst == src:
                # Loopback without a kernel round-trip, but still
                # asynchronous: the handler runs on a later loop tick,
                # never re-entrantly inside the send.  Never encoded,
                # so billed at its kind's price.
                self.bytes_sent += wire_size(payload)
                self.runtime.loop.call_soon(
                    self._deliver, Datagram(src, dst, payload))
                continue
            addr = self.addresses.get(dst)
            if addr is None:
                self.datagrams_dropped += 1
                continue
            if blob is None:
                blob = self._frame(src, payload)
            if not blob:
                self.datagrams_dropped += 1
                continue
            self.bytes_sent += len(blob)
            try:
                sock.sendto(blob, addr)
            except OSError:
                # Full socket buffer or transient network error: UDP
                # semantics say drop; the GCS NACK path recovers.
                self.datagrams_dropped += 1

    def _frame(self, src: int, payload: Any) -> bytes:
        """The frame for ``payload``, or ``b""`` when it cannot be sent:
        outside the codec's grammar, or larger than one datagram.  Each
        such payload leaves one event in the sender's log."""
        try:
            blob = codec.encode_frame(src, payload)
        except TypeError:
            blob, kind = b"", "transport.unencodable"
        else:
            if len(blob) <= _MAX_DGRAM:
                return blob
            self.oversize_dropped += 1
            kind = "transport.oversize"
        if self._obs is not None:
            self._obs.flight_hub.recorder(src).record(
                self.runtime.now, kind,
                detail={"bytes": len(blob),
                        "payload": type(payload).__name__})
        return b""

    # -- receiving ------------------------------------------------------
    def _on_readable(self, node: int, sock: socket.socket) -> None:
        # Drain everything ready; add_reader fires once per readability
        # edge, not once per datagram.
        while True:
            try:
                blob, _addr = sock.recvfrom(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover - socket torn down
                return
            try:
                src, payload = codec.decode_frame(blob)
            except codec.CodecError:
                # Garbage off the wire is a counted drop, never a
                # crashed receive loop.
                self.datagrams_dropped += 1
                continue
            self._deliver(Datagram(src, node, payload))


def loopback_addresses(server_ids: Sequence[int],
                       host: str = "127.0.0.1") -> Dict[int, Tuple[str, int]]:
    """Bind-to-zero address map: every node on an OS-assigned loopback
    port.  Useful for single-process deployments; multi-process ones
    should bind sockets in the parent (``AsyncioTransport.open(node,
    sock=...)``) so children agree on the ports."""
    return {node: (host, 0) for node in server_ids}
