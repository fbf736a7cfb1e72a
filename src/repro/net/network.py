"""The network fabric: unreliable datagram delivery with queueing.

Delivery pipeline for one datagram::

    sender egress port (FIFO, send_overhead + wire_size/bandwidth)
      -> propagation (+ seeded jitter)
        -> receiver ingress port (FIFO, recv_overhead)
          -> handler callback

Reachability (:class:`~repro.net.topology.Topology`) is checked both at
send time and at delivery time, so a partition cuts messages already in
flight — exactly the situation Extended Virtual Synchrony exists to
handle.  A multicast pays the sender's egress serialization once and
fans out to each destination (hardware multicast on a LAN, as used by
Spread).

Everything read per datagram — the kernel heap, its sequence counter,
the bound arrival callbacks, the profile-derived constants — is hoisted
into attributes at construction; the per-destination loop touches only
locals and dict lookups.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Any, Callable, Dict, Iterable, List, Optional, final

from ..sim.kernel import Simulator
from .latency import NetworkProfile
from .message import Datagram, wire_size
from .topology import Topology

Handler = Callable[[Datagram], None]


def _zero() -> float:
    """Stand-in RNG draw for the rng-less fabric (never actually drawn:
    jitter and loss are forced to 0.0 when no rng is configured, and the
    draws are guarded by ``> 0.0`` tests — this keeps the draw callable
    non-optional for the type checker)."""
    return 0.0


@final
class _Port:
    """FIFO service queues for one node's NIC (egress and ingress)."""

    __slots__ = ("egress_free_at", "ingress_free_at")

    def __init__(self) -> None:
        self.egress_free_at = 0.0
        self.ingress_free_at = 0.0

    def reset(self) -> None:
        self.egress_free_at = 0.0
        self.ingress_free_at = 0.0


@final
class Network:
    """Datagram fabric over a :class:`Topology`.

    This is the simulated implementation of the
    :class:`~repro.runtime.base.Transport` protocol — the live
    counterparts are :class:`~repro.runtime.MemoryTransport` and
    :class:`~repro.runtime.AsyncioTransport`.  Unlike the protocol
    layers above it, ``Network`` deliberately takes the concrete
    :class:`~repro.sim.kernel.Simulator` rather than the abstract
    Runtime: its delivery path pushes raw event tuples straight onto
    the kernel heap (see ``_send_batch``), which is the hottest loop in
    every throughput figure and must not pay a protocol indirection.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 profile: Optional[NetworkProfile] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.profile = profile if profile is not None else NetworkProfile()
        # Hoisted once: read per datagram on the delivery path.
        self._recv_overhead = self.profile.recv_overhead
        self._send_overhead = self.profile.send_overhead
        self._propagation = self.profile.propagation_delay
        bandwidth = self.profile.bandwidth
        self._inv_bandwidth = 1.0 / bandwidth if bandwidth > 0 else 0.0
        self._jitter = self.profile.jitter
        self._loss_rate = self.profile.loss_rate
        self.rng = rng
        self._handlers: Dict[int, Handler] = {}
        self._ports: Dict[int, _Port] = {}
        # Kernel internals, aliased for the raw event pushes below.  The
        # heap alias stays valid across compaction (the kernel compacts
        # in place); the bound ``__next__``/callback objects are
        # allocated once here instead of once per datagram.
        self._kheap: List[tuple] = sim._heap
        self._kseq_next: Callable[[], int] = sim._seq.__next__
        self._arrive_cb: Handler = self._arrive
        self._deliver_cb: Handler = self._deliver
        # Optional adversarial hook: called per datagram at send time;
        # returns True (deliver), False (drop), or a float (extra delay
        # in seconds).  Used by targeted fault-injection tests.
        self.interceptor: Optional[Callable[[Datagram], object]] = None
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_dropped = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, node: int, handler: Handler) -> None:
        """Bind ``handler`` as the receive callback for ``node``."""
        self._handlers[node] = handler
        self._ports.setdefault(node, _Port())

    def detach(self, node: int) -> None:
        """Silence a node (crash): future deliveries to it are dropped."""
        self._handlers.pop(node, None)
        port = self._ports.get(node)
        if port is not None:
            port.reset()

    def is_attached(self, node: int) -> bool:
        return node in self._handlers

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any) -> None:
        """Send one unicast datagram (fire and forget)."""
        self._send_batch(src, (dst,), payload)

    def multicast(self, src: int, dsts: Iterable[int], payload: Any) -> None:
        """Send to several destinations with a single egress serialization.

        The source is *not* implicitly included; GCS layers that need
        self-delivery handle it themselves (loopback is free and
        immediate on real stacks; here it costs one ingress service).
        ``dsts`` is consumed exactly once, so tuples and lists pass
        through without a copy.
        """
        if not isinstance(dsts, (tuple, list)):
            dsts = tuple(dsts)
        self._send_batch(src, dsts, payload)

    def _send_batch(self, src: int, dsts: Iterable[int], payload: Any) -> None:
        topology = self.topology
        if not topology.is_alive(src) or src not in self._handlers:
            return
        port = self._ports[src]  # attach() guarantees the port exists
        size = wire_size(payload)
        now = self.sim.now
        free = port.egress_free_at
        done = ((now if now > free else free) + self._send_overhead
                + size * self._inv_bandwidth)
        port.egress_free_at = done
        self.datagrams_sent += 1
        self.bytes_sent += size
        rng = self.rng
        jitter = self._jitter if rng is not None else 0.0
        loss_rate = self._loss_rate if rng is not None else 0.0
        rng_random: Callable[[], float] = \
            rng.random if rng is not None else _zero
        interceptor = self.interceptor
        base_arrival = done + self._propagation
        # Hottest push in the system: enqueue the kernel's raw
        # fire-and-forget entry directly (same shape post_at builds)
        # rather than paying a Python call per destination.  Arrival
        # times are ``>= now`` by construction.
        heap = self._kheap
        seq_next = self._kseq_next
        arrive = self._arrive_cb
        # Healthy fabric (every node up, one component): ``src`` was
        # vouched for above, so per-destination reachability collapses
        # to membership in the alive dict — no method call per dst.
        alive = topology._alive if topology._all_connected else None
        for dst in dsts:
            # Destinations already dead or cut off at send time never see
            # the datagram, so don't even construct it (one allocation per
            # destination on the hottest path in the fabric).
            if dst != src:
                if alive is not None:
                    if dst not in alive:
                        self.datagrams_dropped += 1
                        continue
                elif not topology.reachable(src, dst):
                    self.datagrams_dropped += 1
                    continue
            # Inlined profile.drops(): no draw at zero loss, identical
            # draw otherwise, one Python call fewer per destination.
            if loss_rate > 0.0 and rng_random() < loss_rate:
                self.datagrams_dropped += 1
                continue
            datagram = Datagram(src, dst, payload)
            extra_delay = 0.0
            if interceptor is not None:
                verdict = interceptor(datagram)
                if verdict is False:
                    self.datagrams_dropped += 1
                    continue
                if isinstance(verdict, (int, float)) \
                        and not isinstance(verdict, bool):
                    extra_delay = float(verdict)
            # The jitter draw happens per surviving destination — also
            # for self-delivery, whose arrival ignores it — to keep the
            # seeded random stream stable across code revisions.
            # ``jitter * rng_random()`` is bit-identical to
            # ``rng.uniform(0.0, jitter)`` with one Python call fewer.
            jit = jitter * rng_random() if jitter > 0.0 else 0.0
            if dst == src:
                heappush(heap, (done + extra_delay, seq_next(), arrive,
                                (datagram,)))
            else:
                heappush(heap, (base_arrival + jit + extra_delay,
                                seq_next(), arrive, (datagram,)))

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _arrive(self, datagram: Datagram) -> None:
        src = datagram.src
        dst = datagram.dst
        topology = self.topology
        # Healthy fabric (every node up, one component): the send-time
        # check already vouched for src and dst, so skip the per-hop
        # liveness/partition queries entirely.
        if not topology._all_connected:
            if dst != src and not topology.reachable(src, dst):
                self.datagrams_dropped += 1
                return
            if not topology.is_alive(dst):
                self.datagrams_dropped += 1
                return
        if dst not in self._handlers:
            self.datagrams_dropped += 1
            return
        port = self._ports[dst]  # handler present => port exists
        now = self.sim.now
        free = port.ingress_free_at
        ready = (now if now > free else free) + self._recv_overhead
        port.ingress_free_at = ready
        # Direct raw push (see _send_batch): ``ready >= now`` holds.
        heappush(self._kheap, (ready, self._kseq_next(), self._deliver_cb,
                               (datagram,)))

    def _deliver(self, datagram: Datagram) -> None:
        # Re-check at the actual delivery instant: the destination may
        # have crashed or been cut off while queued at the ingress port.
        src = datagram.src
        dst = datagram.dst
        topology = self.topology
        if not topology._all_connected:
            if not topology.is_alive(dst):
                self.datagrams_dropped += 1
                return
            if dst != src and not topology.reachable(src, dst):
                self.datagrams_dropped += 1
                return
        handler = self._handlers.get(dst)
        if handler is None:
            self.datagrams_dropped += 1
            return
        self.datagrams_delivered += 1
        handler(datagram)
