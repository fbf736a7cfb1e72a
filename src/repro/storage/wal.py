"""Write-ahead log over the simulated disk.

The replication engine journals actions (its ``ongoingQueue``), ordering
decisions, and membership records.  Records are typed so the recovery
scan can rebuild exactly the state the paper's Recover procedure
(CodeSegment A.13) expects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, \
    NamedTuple, Optional

from .disk import SimulatedDisk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability


class LogRecord(NamedTuple):
    """A typed WAL entry.

    A NamedTuple: one is allocated per journaled action on the hot
    apply path, and tuple construction stays out of the interpreter.
    """

    kind: str
    data: Any

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"LogRecord({self.kind})"


class WriteAheadLog:
    """Append-only typed log with forced or buffered appends.

    Recovery queries (:meth:`recover`, :meth:`recover_kind`,
    :meth:`last_of_kind`) are served from a typed index built in a
    single scan of the durable contents and cached against the disk's
    ``durable_version``, so a recovery that reads several kinds — and a
    checkpoint path that asks repeatedly — pays for one scan, not one
    per query.
    """

    def __init__(self, disk: SimulatedDisk,
                 obs: Optional["Observability"] = None,
                 node: Any = None):
        self.disk = disk
        self._index_version = -1
        self._records: List[LogRecord] = []
        self._by_kind: Dict[str, List[LogRecord]] = {}
        # Native counts on the hot path; the registry mirrors them at
        # collection time only (appends run once per journaled record,
        # so even one instrument call here would show up in
        # obs.self_us_per_action).
        self.appends = 0
        self.rewrites = 0
        if obs is not None and obs.enabled:
            registry = obs.registry
            label = disk.node if node is None else node
            registry.counter_callback(
                "repro_wal_appends_total",
                lambda: self.appends,
                "Records appended to the write-ahead log.",
                ("server",), (label,))
            registry.counter_callback(
                "repro_wal_rewrites_total",
                lambda: self.rewrites,
                "Log compactions (atomic rewrites).",
                ("server",), (label,))
            registry.gauge_callback(
                "repro_wal_durable_records",
                lambda: self.durable_size,
                "Records currently on stable storage.",
                ("server",), (label,))

    def _index(self) -> Dict[str, List[LogRecord]]:
        version = self.disk.durable_version
        if version != self._index_version:
            records: List[LogRecord] = []
            by_kind: Dict[str, List[LogRecord]] = {}
            for record in self.disk.durable:
                if isinstance(record, LogRecord):
                    records.append(record)
                    bucket = by_kind.get(record.kind)
                    if bucket is None:
                        bucket = by_kind[record.kind] = []
                    bucket.append(record)
            self._records = records
            self._by_kind = by_kind
            self._index_version = version
        return self._by_kind

    def append(self, kind: str, data: Any,
               callback: Optional[Callable[[], None]] = None,
               forced: bool = True) -> None:
        """Append one record; ``callback`` fires when it is on stable
        storage (or buffered, if ``forced`` is False)."""
        self.appends += 1
        self.disk.write(LogRecord(kind, data), callback=callback,
                        forced=forced)

    def sync(self, callback: Optional[Callable[[], None]] = None,
             on_durable: Optional[Callable[[], None]] = None) -> None:
        """Flush buffered records and wait for platter sync
        (``on_durable``: see :meth:`SimulatedDisk.flush`)."""
        self.disk.flush(callback, on_durable)

    def rewrite(self, records: List[LogRecord],
                callback: Optional[Callable[[], None]] = None) -> None:
        """Atomically replace the log with ``records`` (compaction)."""
        self.rewrites += 1
        self.disk.rewrite(list(records), callback)

    @property
    def durable_size(self) -> int:
        """Number of records currently on stable storage."""
        return len(self.disk.durable)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> List[LogRecord]:
        """All durable records in append order."""
        self._index()
        return list(self._records)

    def recover_kind(self, kind: str) -> Iterator[LogRecord]:
        """Durable records of ``kind`` in append order (indexed)."""
        return iter(self._index().get(kind, ()))

    def last_of_kind(self, kind: str) -> Optional[LogRecord]:
        """Latest durable record of ``kind``, or None (indexed)."""
        records = self._index().get(kind)
        return records[-1] if records else None
