"""Per-view total ordering and stability tracking.

Within one regular configuration, the lowest-id member acts as the
*sequencer*: it assigns consecutive sequence numbers to data messages
(per-origin in FIFO order; stamps are multicast in small batches).
Every member tracks, per view:

* which (origin, fifo_seq) data messages it holds,
* which sequence numbers are stamped and with what,
* each member's cumulative receipt acknowledgment (for stability).

A message is *deliverable* at position ``s`` when all positions below
``s`` were consumed, its stamp and payload are present, and — for SAFE
service — ``s`` is within the stability line (every view member acked
receipt of everything up to ``s``).  This is precisely the safe-delivery
guarantee the replication algorithm relies on (Section 4.1): if any
member delivers ``m`` as safe in the regular configuration, every member
holds ``m`` and will deliver it, at worst in its transitional
configuration, unless it crashes.

Delivered-and-stable prefixes are pruned (:meth:`prune_stable`) so that
memory and flush state-report sizes stay proportional to the *unstable
suffix*, not the view's lifetime.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple, final

from .types import DataMsg, ServiceLevel, StateReportMsg, ViewId

Key = Tuple[int, int]  # (origin, fifo_seq)

# Shared empty result for the (dominant) nothing-deliverable case;
# callers only iterate over it.
_NOTHING: List[Tuple[int, DataMsg]] = []

# Hoisted: ``service is _SAFE`` replaces an enum-property call on the
# delivery hot loop (only SAFE needs stability).
_SAFE = ServiceLevel.SAFE


@final
class ViewOrdering:
    """Ordering/stability bookkeeping for one regular configuration."""

    def __init__(self, view_id: ViewId, members: FrozenSet[int],
                 me: int) -> None:
        self.view_id = view_id
        self.members = frozenset(members)
        self.me = me
        self.sequencer = min(self.members)
        # Hoisted role test: read on every data ingestion, fixed for
        # the lifetime of the view.
        self._stamping = me == self.sequencer
        # -- data plane --------------------------------------------------
        self.data: Dict[Key, DataMsg] = {}
        self.stamp_of: Dict[Key, int] = {}
        self.key_at: Dict[int, Key] = {}
        self.max_stamp = -1
        # duplicate filter for pruned history: per-origin fifo floor
        self.fifo_floor: Dict[int, int] = {m: 0 for m in self.members}
        # -- sequencer role ----------------------------------------------
        self.next_seq = 0
        self.pending_stamp: List[Key] = []
        # per-origin next fifo_seq to stamp (stamps are FIFO per origin)
        self.fifo_stamp_next: Dict[int, int] = {m: 0 for m in self.members}
        # -- fifo send counter -------------------------------------------
        self.fifo_out = 0
        # lowest own fifo_seq possibly unstamped (see lowest_unstamped_own)
        self._own_unstamped_from = 0
        # -- receipt / stability ------------------------------------------
        self.ack_seq = -1            # my cumulative contiguous receipt
        self.acks: Dict[int, int] = {m: -1 for m in self.members}
        self.last_acked_sent = -1
        # cached min(acks.values()); recomputed only when the member
        # holding the minimum advances, so the per-delivery stability
        # check is O(1) instead of O(members)
        self._stability = -1
        # -- delivery ------------------------------------------------------
        self.delivered_seq = -1
        self.pruned_below = 0        # seqs < pruned_below were discarded
        # -- incremental gap tracking (NACK checks) ------------------------
        # stamped seqs whose payload we lack
        self._missing: Set[int] = set()
        # |{s in key_at : s > delivered_seq}| — with max_stamp and
        # delivered_seq this answers has_stamp_gap without a range scan
        self._stamped_undelivered = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add_data(self, msg: DataMsg) -> bool:
        """Store a data message; returns True if it is new."""
        key = (msg.origin, msg.fifo_seq)
        if key in self.data:
            return False
        if msg.fifo_seq < self.fifo_floor.get(msg.origin, 0):
            return False  # duplicate of an already-pruned message
        self.data[key] = msg
        seq = self.stamp_of.get(key)
        if seq is not None:
            self._missing.discard(seq)
        if self._stamping:
            self._stamp_contiguous(msg.origin)
        self._advance_ack()
        return True

    def _stamp_contiguous(self, origin: int) -> None:
        """(Sequencer) queue origin's contiguous unstamped fifo prefix."""
        nxt = self.fifo_stamp_next.get(origin, 0)
        while (origin, nxt) in self.data:
            key = (origin, nxt)
            if key not in self.stamp_of:
                self.pending_stamp.append(key)
            nxt += 1
        self.fifo_stamp_next[origin] = nxt

    def take_stamp_batch(self) -> List[Tuple[int, int, int]]:
        """(Sequencer) assign sequence numbers to pending data."""
        batch: List[Tuple[int, int, int]] = []
        for key in self.pending_stamp:
            if key in self.stamp_of:
                continue
            seq = self.next_seq
            self.next_seq += 1
            self._record_stamp(seq, key)
            batch.append((seq, key[0], key[1]))
        self.pending_stamp = []
        self._advance_ack()
        return batch

    def add_stamps(self, stamps: Tuple[Tuple[int, int, int], ...]) -> None:
        for seq, origin, fifo_seq in stamps:
            if seq < self.pruned_below:
                continue
            self._record_stamp(seq, (origin, fifo_seq))
        self._advance_ack()

    def _record_stamp(self, seq: int, key: Key) -> None:
        if seq in self.key_at:
            return
        self.key_at[seq] = key
        self.stamp_of[key] = seq
        if key not in self.data:
            self._missing.add(seq)
        if seq > self.delivered_seq:
            self._stamped_undelivered += 1
        if seq > self.max_stamp:
            self.max_stamp = seq

    def add_ack(self, node: int, ack_seq: int) -> None:
        old = self.acks.get(node)
        if old is not None and ack_seq > old:
            self.acks[node] = ack_seq
            if old == self._stability:
                self._stability = min(self.acks.values())

    def _advance_ack(self) -> None:
        s = self.ack_seq + 1
        key_at = self.key_at
        data = self.data
        while True:
            key = key_at.get(s)
            if key is None or key not in data:
                break
            s += 1
        # One attribute write per call, not one per advanced position.
        if s - 1 > self.ack_seq:
            self.ack_seq = s - 1
        me = self.me
        old = self.acks.get(me, -1)
        if old < self.ack_seq:
            self.acks[me] = self.ack_seq
            if old == self._stability:
                self._stability = min(self.acks.values())

    # ------------------------------------------------------------------
    # stability & delivery
    # ------------------------------------------------------------------
    @property
    def stability_line(self) -> int:
        """Highest seq known to be received by every view member."""
        return self._stability

    def pop_deliverable(self) -> List[Tuple[int, DataMsg]]:
        """Messages deliverable now, in order; advances delivered_seq.

        Most calls find nothing to deliver (delivery is attempted after
        every ingestion), so the head position is probed before any
        allocation happens.
        """
        key_at = self.key_at
        data = self.data
        s = self.delivered_seq + 1
        key = key_at.get(s)
        if key is None or key not in data:
            return _NOTHING
        out: List[Tuple[int, DataMsg]] = []
        stable = self._stability
        while True:
            msg = data[key]
            if s > stable and msg.service is _SAFE:
                break
            out.append((s, msg))
            s += 1
            key = key_at.get(s)
            if key is None or key not in data:
                break
        delivered = len(out)
        if delivered:
            # Counters are batched: one attribute write per call
            # instead of two per delivered message.
            self.delivered_seq += delivered
            self._stamped_undelivered -= delivered
        return out

    def needs_ack(self) -> bool:
        """True when peers have not seen our latest receipt progress."""
        return self.ack_seq > self.last_acked_sent

    def note_ack_sent(self) -> None:
        self.last_acked_sent = self.ack_seq

    # ------------------------------------------------------------------
    # pruning (garbage collection of the stable, delivered prefix)
    # ------------------------------------------------------------------
    def prune_stable(self) -> int:
        """Discard messages both delivered here and stable everywhere.

        Returns the number of messages discarded.  Nothing below the
        prune point can ever be needed again: every member holds it
        (stability) and we already delivered it.
        """
        limit = min(self.delivered_seq, self._stability)
        pruned = 0
        for seq in range(self.pruned_below, limit + 1):
            key = self.key_at.pop(seq, None)
            if key is None:
                continue
            self.stamp_of.pop(key, None)
            self._missing.discard(seq)
            if self.data.pop(key, None) is not None:
                pruned += 1
            origin, fifo = key
            if fifo >= self.fifo_floor.get(origin, 0):
                self.fifo_floor[origin] = fifo + 1
        self.pruned_below = max(self.pruned_below, limit + 1)
        return pruned

    # ------------------------------------------------------------------
    # gap detection (NACK-based loss recovery)
    # ------------------------------------------------------------------
    def missing_data_seqs(self) -> List[int]:
        """Stamped positions up to max_stamp whose payload we lack.

        Tracked incrementally (a stamped seq joins the set while its
        payload is absent); a stamped-but-missing seq is always above
        the delivered prefix, so no range scan is needed.
        """
        return sorted(self._missing)

    def has_stamp_gap(self) -> bool:
        """True if some position below max_stamp has no known stamp.

        ``_stamped_undelivered`` counts known stamps above the delivered
        prefix; comparing it against the width of
        ``(delivered_seq, max_stamp]`` detects a hole in O(1).
        """
        return self._stamped_undelivered < self.max_stamp - self.delivered_seq

    def has_unstamped_foreign_data(self) -> bool:
        """(Non-sequencer) data held with no stamp for it: the stamp
        batch was lost in transit — grounds for a NACK even when no
        later stamp ever arrived (max_stamp never advanced)."""
        if self.me == self.sequencer:
            return False
        return any(key not in self.stamp_of for key in self.data)

    def lowest_unstamped_own(self) -> int:
        """My lowest fifo_seq with no stamp known here, ``fifo_out`` if
        none.  Stamps are FIFO per origin, so my stamped messages form a
        prefix and the cursor only moves forward: amortised O(1)."""
        me = self.me
        nxt = max(self._own_unstamped_from, self.fifo_floor.get(me, 0))
        stamp_of = self.stamp_of
        while nxt < self.fifo_out and (me, nxt) in stamp_of:
            nxt += 1
        self._own_unstamped_from = nxt
        return nxt

    def retrans_items(self, seqs: List[int]) -> List[Tuple]:
        """Build retransmission payloads for stamped seqs we hold."""
        items: List[Tuple] = []
        for s in seqs:
            key = self.key_at.get(s)
            if key is None or key not in self.data:
                continue
            msg = self.data[key]
            items.append((s, msg.origin, msg.fifo_seq, msg.payload,
                          msg.service))
        return items

    def accept_retrans(self, items: Tuple[Tuple, ...]) -> None:
        for seq, origin, fifo_seq, payload, service in items:
            if seq < self.pruned_below:
                continue
            self._record_stamp(seq, (origin, fifo_seq))
            key = (origin, fifo_seq)
            if key not in self.data:
                self.data[key] = DataMsg(self.view_id, origin, fifo_seq,
                                         payload, service)
            if self.key_at.get(seq) in self.data:
                self._missing.discard(seq)
        self._advance_ack()

    # ------------------------------------------------------------------
    # flush support (membership change)
    # ------------------------------------------------------------------
    def state_report(self, node: int, attempt: int) -> StateReportMsg:
        ordered = sorted(self.key_at.items())
        stamps = tuple((s, k[0], k[1]) for s, k in ordered)
        have = tuple(s for s, k in ordered if k in self.data)
        return StateReportMsg(
            node=node, attempt=attempt, old_view_id=self.view_id,
            stamps=stamps, have_data=have,
            stability_line=self.stability_line)

    def unstamped_own(self) -> List[DataMsg]:
        """My own data messages never stamped (to re-submit next view)."""
        return [msg for key, msg in sorted(self.data.items())
                if key[0] == self.me and key not in self.stamp_of]

    def undelivered_stamped(self) -> List[int]:
        """Stamped seqs above the delivered prefix that we hold."""
        return [s for s in sorted(self.key_at)
                if s > self.delivered_seq and self.key_at[s] in self.data]
