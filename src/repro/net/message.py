"""Datagram envelope used by the simulated network fabric, and the
price list the fabric bills a payload at."""

from __future__ import annotations

from typing import Any, final


def wire_size(payload: Any) -> int:
    """Bytes the simulated link bills ``payload`` at: its kind's
    ``wire_size`` class attribute or property (never a dataclass field,
    which the codec would carry), or 200, the paper's action size.  Read
    by the bandwidth model and ``bytes_sent``, never by a receiver."""
    return getattr(payload, "wire_size", 200)


@final
class Datagram:
    """One unreliable datagram in flight.

    ``payload`` is an arbitrary (treated as immutable) protocol message.

    A plain ``__slots__`` class rather than a dataclass: the fabric
    constructs one per destination per send, which makes this one of the
    hottest allocations in the whole simulator.
    """

    __slots__ = ("src", "dst", "payload")

    def __init__(self, src: int, dst: int, payload: Any) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Datagram(src={self.src}, dst={self.dst}, "
                f"payload={self.payload!r})")
