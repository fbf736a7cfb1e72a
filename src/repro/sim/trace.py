"""Structured event tracing.

Components emit typed trace records (node, category, payload) to a shared
``Tracer``.  Tests assert on traces instead of scraping logs; benchmarks
use them to count messages and disk writes.  Tracing is cheap when
disabled: ``Tracer(enabled=False)`` drops records without formatting.

Retention is unbounded by default — simulation tests want every record —
but long-lived deployments (the asyncio runtime's ``LiveCluster``) pass
``max_records`` to cap memory: the record store becomes a ring buffer
that discards the oldest entries.  Category counters are exact either
way; only the kept records are windowed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, MutableSequence,
                    Optional)


@dataclass(frozen=True)
class TraceRecord:
    """One trace event."""

    time: float
    node: Any
    category: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        kv = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.6f}] {self.node} {self.category} {kv}"


class Tracer:
    """Collects :class:`TraceRecord` objects and dispatches subscribers."""

    def __init__(self, enabled: bool = True, keep: bool = True,
                 max_records: Optional[int] = None):
        self.enabled = enabled
        self.keep = keep
        self.max_records = max_records
        self.records: MutableSequence[TraceRecord]
        if max_records is None:
            self.records = []
        else:
            self.records = deque(maxlen=max_records)
        self.dropped = 0
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        self._counters: Dict[str, int] = {}

    def emit(self, time: float, node: Any, category: str,
             **detail: Any) -> None:
        if not self.enabled:
            return
        self._counters[category] = self._counters.get(category, 0) + 1
        record = TraceRecord(time, node, category, detail)
        if self.keep:
            if (self.max_records is not None
                    and len(self.records) == self.max_records):
                self.dropped += 1
            self.records.append(record)
        for subscriber in self._subscribers:
            subscriber(record)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Add ``callback``; one it already holds is not added again
        (bound methods compare equal per owner object)."""
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def count(self, category: str) -> int:
        """Number of records emitted in ``category`` (kept or not)."""
        return self._counters.get(category, 0)

    def select(self, category: Optional[str] = None,
               node: Any = None) -> Iterator[TraceRecord]:
        """Iterate kept records filtered by category and/or node."""
        for record in self.records:
            if category is not None and record.category != category:
                continue
            if node is not None and record.node != node:
                continue
            yield record

    def clear(self) -> None:
        """Drop kept records and counters; emission continues as before.

        Reallocates the store (preserving ``max_records``) instead of
        clearing in place: iterators and aliases handed out earlier —
        a live :meth:`select` generator, a saved ``records`` reference —
        keep the pre-clear snapshot rather than being emptied under the
        reader, and the ring-buffer capacity is guaranteed fresh."""
        if self.max_records is None:
            self.records = []
        else:
            self.records = deque(maxlen=self.max_records)
        self._counters = {}
        self.dropped = 0
