"""The Runtime and Transport protocols: the seam between the protocol
stack and whatever executes it.

The replication algorithm is runtime-agnostic: an event-driven state
machine over GCS deliveries.  Everything it needs from its host is
captured by two narrow interfaces:

* :class:`Runtime` — a clock plus a timer service.  ``post``/``post_at``
  are the fire-and-forget fast path (no handle allocated, cannot be
  cancelled); ``schedule``/``schedule_at`` return a cancellable
  :class:`Handle`; ``call_soon`` runs a callback after the current event
  and anything already queued for now.
* :class:`Transport` — point-to-point and multicast datagram send
  between integer node ids, with loss and latency left entirely to the
  implementation and reachability (partitions, crashes) given by its
  :class:`~repro.net.Topology`.

Two production implementations ship with the repository:

* :class:`~repro.sim.Simulator` + :class:`~repro.net.Network` —
  the deterministic discrete-event pair every test and paper figure
  runs on (virtual time, seeded loss/latency, bit-identical replays);
* :class:`~repro.runtime.AsyncioRuntime` +
  :class:`~repro.runtime.AsyncioTransport` — wall-clock time on a real
  asyncio event loop with UDP datagrams, for live deployments
  (``examples/live_cluster.py``).

To add a third backend (e.g. trio, or a TCP mesh), implement these two
protocols and hand the pair to :class:`~repro.core.Replica`; no layer
above this module needs to change.  See ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Iterable, Protocol,
                    runtime_checkable)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.message import Datagram
    from ..net.topology import Topology

Callback = Callable[..., None]


@runtime_checkable
class Handle(Protocol):
    """A cancellable reference to a scheduled callback."""

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        ...

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        ...

    @property
    def active(self) -> bool:
        """True while the callback has neither fired nor been cancelled."""
        ...


@runtime_checkable
class Runtime(Protocol):
    """Clock + timer service: the only execution substrate the protocol
    stack sees.

    ``now`` is seconds as a float — virtual seconds on the simulator,
    wall-clock seconds since runtime creation on asyncio.  Components
    must never compare ``now`` across two different runtime instances.
    """

    @property
    def now(self) -> float:
        """The current time in seconds."""
        ...

    def post(self, delay: float, callback: Callback, *args: Any) -> None:
        """Fire-and-forget: run ``callback(*args)`` after ``delay``
        seconds.  No handle is allocated; the call cannot be cancelled."""
        ...

    def post_at(self, time: float, callback: Callback, *args: Any) -> None:
        """Fire-and-forget at absolute time ``time``."""
        ...

    def schedule(self, delay: float, callback: Callback,
                 *args: Any) -> Handle:
        """Run ``callback(*args)`` after ``delay`` seconds; returns a
        cancellable :class:`Handle`."""
        ...

    def schedule_at(self, time: float, callback: Callback,
                    *args: Any) -> Handle:
        """Cancellable :meth:`schedule` at absolute time ``time``."""
        ...

    def call_soon(self, callback: Callback, *args: Any) -> Handle:
        """Run ``callback(*args)`` at the current time, after the
        currently-running event and anything already queued for now."""
        ...

    def stop(self) -> None:
        """Stop the runtime's dispatch loop after the current event."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Unreliable datagram fabric between integer node ids.

    Implementations deliver :class:`~repro.net.message.Datagram` objects
    to the handler attached for the destination node.  Delivery is
    best-effort: messages may be lost, delayed, or reordered — the GCS
    daemon's NACK and flush machinery recovers losses, so transports
    need no reliability of their own.  A datagram between nodes its
    ``topology`` does not connect is dropped.
    """

    topology: "Topology"

    def attach(self, node: int,
               handler: Callable[["Datagram"], None]) -> None:
        """Bind ``handler`` as the receive callback for ``node``."""
        ...

    def detach(self, node: int) -> None:
        """Silence a node (crash): future deliveries to it are dropped."""
        ...

    def is_attached(self, node: int) -> bool:
        ...

    def send(self, src: int, dst: int, payload: Any,
             size: int = 200) -> None:
        """Send one unicast datagram (fire and forget)."""
        ...

    def multicast(self, src: int, dsts: Iterable[int], payload: Any,
                  size: int = 200) -> None:
        """Send ``payload`` to several destinations.  The source is not
        implicitly included; consumers handle self-delivery themselves."""
        ...
