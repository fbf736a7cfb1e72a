"""Persistent key/value snapshot records over the WAL.

The engine's small persistent records — ``vulnerable``, ``yellow``,
``primComponent``, ``greenLines``, ``redCut`` — are stored as latest-
value-wins keys.  A ``put`` journals the new value; recovery replays the
log and keeps the last durable value per key.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Optional

from .wal import WriteAheadLog

_KIND = "kv"
_ABSENT = object()


class StableStore:
    """Latest-value-wins persistent map with explicit sync points.

    ``put`` updates the in-memory view immediately and journals the
    change as a buffered write; :meth:`sync` forces everything written
    so far to the platter — this is the engine's ``** sync to disk``.

    The view holds the store's own copy of each value, and that copy is
    what the log holds: a value that changed is deep-copied once, so a
    later in-place mutation of a live engine structure cannot alter
    "what was on disk"; a value equal to the held copy journals that
    copy again and copies nothing.  The held copies are never mutated,
    so compaction and recovery share them rather than copy them.
    """

    def __init__(self, wal: WriteAheadLog):
        self.wal = wal
        self._view: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        """Stage ``key = value`` (buffered; durable at the next sync)."""
        held = self._view.get(key, _ABSENT)
        if held.__class__ is not value.__class__ or held != value:
            held = self._view[key] = copy.deepcopy(value)
        self.wal.append(_KIND, (key, held), forced=False)

    def sync(self, callback: Optional[Callable[[], None]] = None,
             on_durable: Optional[Callable[[], None]] = None) -> None:
        """Force all staged puts to stable storage (``on_durable``: see
        :meth:`SimulatedDisk.flush`)."""
        self.wal.sync(callback, on_durable)

    def put_sync(self, key: str, value: Any,
                 callback: Optional[Callable[[], None]] = None) -> None:
        """Convenience: ``put`` + ``sync``."""
        self.put(key, value)
        self.sync(callback)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Read the staged (in-memory) view; the result is the held
        copy and must not be mutated."""
        return self._view.get(key, default)

    def items(self) -> Dict[str, Any]:
        """The staged view (used by log compaction)."""
        return dict(self._view)

    # ------------------------------------------------------------------
    # crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Drop the volatile view (the disk handles its own crash)."""
        self._view = {}

    def recover(self) -> Dict[str, Any]:
        """Rebuild the durable view from the log and adopt it."""
        view: Dict[str, Any] = {}
        for record in self.wal.recover_kind(_KIND):
            key, value = record.data
            view[key] = value
        self._view = dict(view)
        return view
