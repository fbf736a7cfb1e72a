"""Online replica instantiation and deactivation (Section 5.1/5.2).

A new replica joins by connecting *directly* (reliable point-to-point
channel, not the replicated group) to a member — its *representative* —
which announces it with a ``PERSISTENT_JOIN`` action.  When that action
becomes green at the representative, the representative snapshots its
database and streams it to the joiner.  If the representative fails or
a partition hits mid-transfer, the joiner reconnects to a different
member and resumes; a peer that has not yet ordered the original
PERSISTENT_JOIN issues a new one (only the first ordered announcement
defines the joiner's entry point; later ones are ignored by line 17's
"already in local structures" check).

Departure is a ``PERSISTENT_LEAVE`` action ordered like any other; it
can also be inserted administratively for a dead replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..db import (Action, SnapshotChunk, SnapshotReceiver, SnapshotSender,
                  join_action, leave_action)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.base import Runtime


# ----------------------------------------------------------------------
# transfer wire messages (sent over the reliable channel)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class JoinRequest:
    """Joiner -> member: announce/resume intent to join.

    transfer_id / next_needed are set when resuming a partial transfer.
    """

    joiner_id: int
    transfer_id: Optional[str] = None
    next_needed: int = 0
    wire_size = 128


@dataclass(frozen=True)
class TransferHeader:
    """Representative -> joiner: transfer metadata.  The joiner's
    green count is ``header["applied_count"]``, the snapshot's
    position."""

    transfer_id: str
    servers: tuple
    header: dict
    removed: tuple = ()
    wire_size = 512


class RepresentativeRole:
    """Member-side join support: announce joiners, stream snapshots."""

    def __init__(self, replica: "Any", chunk_items: int = 64) -> None:
        self.replica = replica
        self.chunk_items = chunk_items
        self._senders: Dict[str, SnapshotSender] = {}
        self._sender_meta: Dict[str, TransferHeader] = {}
        self.transfers_started = 0
        self.chunks_streamed = 0
        obs = getattr(replica, "obs", None)
        if obs is not None and obs.enabled:
            registry = obs.registry
            registry.counter_callback(
                "repro_transfer_starts_total",
                lambda: self.transfers_started,
                "Snapshot transfers started (or resumed) toward a "
                "joining replica.", ("server",), (replica.node,))
            registry.counter_callback(
                "repro_transfer_chunks_total",
                lambda: self.chunks_streamed,
                "Snapshot chunks streamed to joining replicas.",
                ("server",), (replica.node,))

    # -- called by the engine hook when a local JOIN action greens -----
    def start_transfer(self, join: Action, position: int) -> None:
        snapshot = self.replica.database.snapshot()
        transfer_id = str(join.action_id)
        sender = SnapshotSender(transfer_id, snapshot,
                                chunk_items=self.chunk_items)
        header = TransferHeader(
            transfer_id=transfer_id,
            servers=tuple(self.replica.engine.queue.servers),
            header=sender.header,
            removed=tuple(sorted(self.replica.engine.removed_servers)))
        self._senders[transfer_id] = sender
        self._sender_meta[transfer_id] = header
        assert join.join_id is not None
        self._stream(join.join_id, transfer_id, 0)

    def _stream(self, joiner_id: int, transfer_id: str,
                from_chunk: int) -> None:
        sender = self._senders[transfer_id]
        header = self._sender_meta[transfer_id]
        self.transfers_started += 1
        self.chunks_streamed += sender.total - from_chunk
        self.replica.endpoint.send(joiner_id, header)
        for seq in range(from_chunk, sender.total):
            self.replica.endpoint.send(joiner_id, sender.chunk(seq))

    # -- join requests arriving over the channel ------------------------
    def on_join_request(self, request: JoinRequest) -> None:
        engine = self.replica.engine
        if engine.exited:
            return
        joiner = request.joiner_id
        if joiner in engine.queue.red_cut:
            # Join already ordered here (line 17): resume the transfer.
            transfer_id = request.transfer_id
            if transfer_id is not None and transfer_id in self._senders:
                self._stream(joiner, transfer_id, request.next_needed)
            else:
                # We ordered the join but were not the representative:
                # rebuild a sender from our own (equivalent) state.
                # Safe only if our database is at least at the join
                # point, which is implied by the join being green here.
                # Until it is, send nothing: the joiner's retry timer
                # re-requests.
                if engine.queue.green_lines.get(joiner, 0) \
                        > engine.queue.green_count:
                    return
                snapshot = self.replica.database.snapshot()
                transfer_id = f"resume-{self.replica.node}-{joiner}-" \
                              f"{snapshot['applied_count']}"
                sender = SnapshotSender(transfer_id, snapshot,
                                        chunk_items=self.chunk_items)
                self._senders[transfer_id] = sender
                self._sender_meta[transfer_id] = TransferHeader(
                    transfer_id=transfer_id,
                    servers=tuple(engine.queue.servers),
                    header=sender.header,
                    removed=tuple(sorted(engine.removed_servers)))
                self._stream(joiner, transfer_id, 0)
        else:
            # First contact (lines 16-19): announce the newcomer.
            action = join_action(engine.next_action_id(), joiner)
            engine.submit_action(action)


class JoinerProtocol:
    """Joiner-side state machine: request, receive, resume, complete.

    ``on_ready(header_info)`` fires once the snapshot is assembled and
    restored; the host replica then sets up its engine and joins the
    replicated group (CodeSegment 5.2 line 29-30).
    """

    def __init__(self, sim: "Runtime", replica: "Any", peers: List[int],
                 on_ready: Callable[[TransferHeader], None],
                 retry_interval: float = 1.0) -> None:
        self.sim = sim
        self.replica = replica
        self.peers = list(peers)
        self.on_ready = on_ready
        self.retry_interval = retry_interval
        self.receiver = SnapshotReceiver()
        self.header: Optional[TransferHeader] = None
        self._peer_index = 0
        self._done = False
        self._last_progress = 0
        self._timer = None

    @property
    def current_peer(self) -> int:
        return self.peers[self._peer_index % len(self.peers)]

    def start(self) -> None:
        self._request()
        self._arm_retry()

    def _arm_retry(self) -> None:
        if self._done:
            return
        self._timer = self.sim.schedule(self.retry_interval, self._retry)

    def _retry(self) -> None:
        if self._done:
            return
        progress = self.receiver.next_needed
        if progress == self._last_progress:
            # Stalled: switch representative (Section 5.1's reconnect).
            self._peer_index += 1
            self._request()
        self._last_progress = progress
        self._arm_retry()

    def _request(self) -> None:
        transfer_id = self.receiver.transfer_id
        self.replica.endpoint.send(self.current_peer, JoinRequest(
            self.replica.node, transfer_id, self.receiver.next_needed))

    # -- channel deliveries ----------------------------------------------
    def on_message(self, payload: Any) -> bool:
        """Returns True if the payload belonged to the join protocol."""
        if self._done:
            return isinstance(payload, (TransferHeader, SnapshotChunk))
        if isinstance(payload, TransferHeader):
            self.header = payload
            self.receiver.begin(payload.transfer_id, payload.header)
            self._check_complete()
            return True
        if isinstance(payload, SnapshotChunk):
            self.receiver.accept(payload)
            self._check_complete()
            return True
        return False

    def _check_complete(self) -> None:
        if self.header is None or not self.receiver.complete:
            return
        if self.receiver.transfer_id != self.header.transfer_id:
            return
        self._done = True
        if self._timer is not None:
            self._timer.cancel()
        snapshot = self.receiver.assemble()
        self.replica.database.restore(snapshot)
        self.on_ready(self.header)


def make_leave_action(engine: "Any", leaving_server: int) -> Action:
    """Build a PERSISTENT_LEAVE (voluntary or administrative)."""
    return leave_action(engine.next_action_id(), leaving_server)
