"""Datagram envelope used by the simulated network fabric."""

from __future__ import annotations

from typing import Any, final


@final
class Datagram:
    """One unreliable datagram in flight.

    ``payload`` is an arbitrary (treated as immutable) protocol message.
    ``size`` is the wire size in bytes used by the bandwidth model; the
    paper's workload uses 200-byte actions, and protocol layers add their
    own header estimates.

    A plain ``__slots__`` class rather than a dataclass: the fabric
    constructs one per destination per send, which makes this one of the
    hottest allocations in the whole simulator.
    """

    __slots__ = ("src", "dst", "payload", "size")

    def __init__(self, src: int, dst: int, payload: Any,
                 size: int = 200) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return (f"Datagram {self.src}->{self.dst} "
                f"{type(self.payload).__name__} {self.size}B")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Datagram(src={self.src}, dst={self.dst}, "
                f"payload={self.payload!r}, size={self.size})")
