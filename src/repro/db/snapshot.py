"""Chunked database transfer for joining replicas (Section 5.1).

When a PERSISTENT_JOIN becomes green at the representative peer, the
peer snapshots its database and streams it to the joiner in chunks.  If
the peer fails or a partition hits mid-transfer, the joiner reconnects
to a different member and *resumes* from the last chunk it holds (the
paper's lines 20-21: "continue database transfer to joining site").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class SnapshotChunk:
    """One piece of a database transfer."""

    transfer_id: str
    seq: int
    total: int
    items: tuple

    @property
    def is_last(self) -> bool:
        return self.seq == self.total - 1


class SnapshotSender:
    """Splits a snapshot into deterministic chunks."""

    def __init__(self, transfer_id: str, snapshot: Dict[str, Any],
                 chunk_items: int = 64):
        self.transfer_id = transfer_id
        self.header = {k: snapshot[k] for k in
                       ("applied_count", "applied_log", "applied_cut")}
        items = sorted(json.loads(snapshot["state"]).items(),
                       key=lambda kv: str(kv[0]))
        if chunk_items <= 0:
            raise ValueError("chunk_items must be positive")
        self.chunks: List[SnapshotChunk] = []
        total = max(1, math.ceil(len(items) / chunk_items))
        for seq in range(total):
            piece = tuple(items[seq * chunk_items:(seq + 1) * chunk_items])
            self.chunks.append(SnapshotChunk(transfer_id, seq, total, piece))

    def chunk(self, seq: int) -> SnapshotChunk:
        return self.chunks[seq]

    @property
    def total(self) -> int:
        return len(self.chunks)


class SnapshotReceiver:
    """Reassembles a snapshot; tolerates switching senders mid-stream.

    Resume logic: chunks are identified by (transfer_id, seq).  A new
    sender for the *same* transfer_id continues where the old one left
    off; a different transfer_id (a different PERSISTENT_JOIN entry
    point) restarts the transfer.
    """

    def __init__(self) -> None:
        self.transfer_id: Optional[str] = None
        self.header: Optional[Dict[str, Any]] = None
        self._received: Dict[int, SnapshotChunk] = {}
        self._total: Optional[int] = None

    def begin(self, transfer_id: str, header: Dict[str, Any]) -> None:
        if transfer_id != self.transfer_id:
            self.transfer_id = transfer_id
            self._received = {}
            self._total = None
        self.header = header

    def accept(self, chunk: SnapshotChunk) -> None:
        if chunk.transfer_id != self.transfer_id:
            # A new transfer supersedes the old one.
            self.transfer_id = chunk.transfer_id
            self._received = {}
        self._total = chunk.total
        self._received[chunk.seq] = chunk

    @property
    def next_needed(self) -> int:
        """Lowest chunk seq not yet received (resume point)."""
        seq = 0
        while seq in self._received:
            seq += 1
        return seq

    @property
    def complete(self) -> bool:
        return (self._total is not None
                and len(self._received) == self._total
                and self.header is not None)

    def assemble(self) -> Dict[str, Any]:
        """Produce a snapshot dict accepted by ``Database.restore``
        (``state`` serialized, as :meth:`Database.snapshot` makes it)."""
        if not self.complete:
            raise ValueError("transfer incomplete")
        state: Dict[str, Any] = {}
        for seq in range(self._total or 0):
            for key, value in self._received[seq].items:
                state[key] = value
        assert self.header is not None
        snapshot = dict(self.header)
        snapshot["state"] = json.dumps(state)
        return snapshot
