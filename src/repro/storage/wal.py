"""Write-ahead log over the simulated disk.

The replication engine journals actions (its ``ongoingQueue``), ordering
decisions, and membership records.  Records are typed so the recovery
scan can rebuild exactly the state the paper's Recover procedure
(CodeSegment A.13) expects.

One kind is journaled bare: a green — one per applied action on every
replica — is the :class:`~repro.db.Action` object itself, one slot in
the disk's list.  Its position in the green order is implied by journal
order (see :mod:`repro.core.recovery`), so it needs neither a wrapper
nor a position; the recovery queries present it as
``LogRecord(GREEN, action)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, List, \
    NamedTuple, Optional

from .disk import SimulatedDisk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability

#: The kind journaled bare: the durable entry is the data itself.
GREEN = "green"


class LogRecord(NamedTuple):
    """A typed WAL entry (every kind but :data:`GREEN`)."""

    kind: str
    data: Any

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"LogRecord({self.kind})"


class WriteAheadLog:
    """Append-only typed log with forced or buffered appends.

    The recovery queries (:meth:`recover`, :meth:`recover_kind`,
    :meth:`last_of_kind`) scan the durable contents on every call and
    keep nothing: they run once per crash recovery, and a cached index
    would hold a wrapper per green long after it.
    """

    def __init__(self, disk: SimulatedDisk,
                 obs: Optional["Observability"] = None,
                 node: Any = None):
        self.disk = disk
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

    def append(self, kind: str, data: Any,
               callback: Optional[Callable[[], None]] = None,
               forced: bool = True) -> None:
        """Append one record; ``callback`` fires when it is on stable
        storage (or buffered, if ``forced`` is False).  A
        :data:`GREEN` record is journaled as ``data`` itself."""
        self.appends += 1
        self.disk.write(data if kind == GREEN else LogRecord(kind, data),
                        callback=callback, forced=forced)

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
        """All durable records in append order, a bare green presented
        as ``LogRecord(GREEN, action)``."""
        return [entry if entry.__class__ is LogRecord
                else LogRecord(GREEN, entry)
                for entry in self.disk.durable]

    def recover_kind(self, kind: str) -> Iterator[LogRecord]:
        """Durable records of ``kind`` in append order."""
        return iter([record for record in self.recover()
                     if record.kind == kind])

    def last_of_kind(self, kind: str) -> Optional[LogRecord]:
        """Latest durable record of ``kind``, or None."""
        for record in reversed(self.recover()):
            if record.kind == kind:
                return record
        return None
