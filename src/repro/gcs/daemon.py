"""The group communication daemon (one per node).

Provides the Extended Virtual Synchrony service the replication engine
consumes: within a regular configuration, totally ordered multicast with
FIFO/AGREED/SAFE service levels; on connectivity change, a membership
protocol that delivers a *transitional configuration*, flushes the old
view's messages under EVS rules, and installs the next *regular
configuration*.

Roles within a view:

* the lowest-id member is the **sequencer** (order stamps, batched);
* every member multicasts cumulative **stability acks** (coalesced in a
  short window) so each member tracks the safe-delivery line — with
  ``GcsSettings.idle_immediate`` a due stamp batch or ack leaves at the
  end of the loop turn that made it due instead, one per node per turn;
* missing data/stamps are recovered by **NACK** from peers.

A view member not heard from for more than ``failure_timeout`` is
suspected and starts a gather.  The check polls every
``failure_timeout / 2``; with ``idle_immediate`` it runs instead at the
earliest member's deadline (last heard + ``failure_timeout``), so a
silent member is suspected when its deadline passes rather than up to
half a timeout later.  Each suspicion is traced as ``gcs.suspect``.

Membership is a gather → propose → flush → install protocol driven by
the coordinator (lowest id of the gathered set), with attempt numbers
making restarts safe.  A gather settles when ``gather_settle`` passes
with no new member — or, with ``idle_immediate``, at the end of the
dispatch in which every directory member has answered or is presumed
failed.  The flush retransmits old-view messages so that
members coming from the same old view deliver the same message set
(virtual synchrony), splits delivery at the known-stability line
(regular vs transitional delivery, Section 4.1's three cases), and
computes per-member transitional configurations.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List,
                    Optional, Set, Tuple)

from ..net import Datagram
from ..obs.flight import FlightRecorder
from ..sim import Actor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Observability
    from ..runtime.base import Runtime, Transport
from .ordering import ViewOrdering
from .types import (AckMsg, Configuration, DataMsg, FlushDoneMsg,
                    FlushPlanMsg, FlushRetransCmd, GatherMsg, GcsSettings,
                    HeartbeatMsg, InstallMsg, LeaveMsg, NackMsg, ProposeMsg,
                    RetransDataMsg, ServiceLevel, StampMsg, StateReportMsg,
                    ViewId)

#: How long after a member's deadline the deadline-driven failure check
#: runs (seconds): far below any timer's resolution, far above the
#: rounding error of ``heard + failure_timeout``.
_FD_SLACK = 1e-6

#: Declared wire sizes (bytes) the daemon bills its messages at: the
#: header every data message adds to its payload, one order stamp, an
#: ack, and any other control message.
_HEADER_SIZE = 48
_STAMP_ENTRY_SIZE = 16
_ACK_SIZE = 64
_CONTROL_SIZE = 96


class GcsListener:
    """Callback interface for GCS consumers.  Subclass and override."""

    def on_regular_conf(self, conf: Configuration) -> None:
        """A new regular configuration was installed."""

    def on_transitional_conf(self, conf: Configuration) -> None:
        """The old configuration is ending; ``conf.members`` is the
        reduced membership moving together to the next regular one."""

    def on_message(self, payload: Any, origin: int,
                   in_transitional: bool,
                   service: ServiceLevel) -> None:
        """An ordered message delivery."""

    def on_green_line(self, node: int, line: int) -> None:
        """``node``'s heartbeat advertised its durable green count."""


class DaemonState:
    """Daemon lifecycle states (strings for cheap tracing)."""

    DOWN = "down"
    IDLE = "idle"          # running but not a group member
    OPERATIONAL = "operational"
    GATHER = "gather"
    FLUSH = "flush"

    #: Numeric codes for the state gauge (dashboards need numbers).
    CODES = {DOWN: 0, IDLE: 1, OPERATIONAL: 2, GATHER: 3, FLUSH: 4}


class GcsDaemon(Actor):
    """One node's group communication endpoint."""

    def __init__(self, sim: "Runtime", node: int, network: "Transport",
                 directory: Set[int],
                 settings: Optional[GcsSettings] = None,
                 extra_dispatch: Optional[
                     Callable[[Datagram], bool]] = None,
                 obs: Optional["Observability"] = None) -> None:
        super().__init__(sim, name=f"gcs{node}")
        self.node = node
        self.network = network
        self.directory = directory          # registry of the group's nodes
        self.settings = settings or GcsSettings()
        # This node's event log: gathers, proposals, installs,
        # suspicions, retransmissions.
        self._log = (obs.flight_hub.recorder(node) if obs is not None
                     else FlightRecorder(node))
        self.extra_dispatch = extra_dispatch
        self.listener: GcsListener = GcsListener()

        self.state = DaemonState.DOWN
        self.joined = False
        self.view: Optional[Configuration] = None
        self.ordering: Optional[ViewOrdering] = None
        self.max_epoch_seen = 0

        # membership round state
        self.attempt = 0
        self._perceived: Set[int] = set()
        self._round_coordinator: Optional[int] = None
        self._proposal_members: Tuple[int, ...] = ()
        self._reports: Dict[int, StateReportMsg] = {}
        self._my_plan: Optional[FlushPlanMsg] = None
        self._flush_done: Set[int] = set()
        self._sent_done = False

        # buffered application sends while membership is in progress
        self._outbox: List[Tuple[Any, ServiceLevel, int]] = []

        self._last_heard: Dict[int, float] = {}
        self._nack_signature: Tuple = ()
        self._unstamped_signature: Tuple = ()
        # The application's durable green count, advertised on every
        # heartbeat (set by the replication engine through its channel).
        self.green_line = 0

        # Turn-end policy (settings.idle_immediate): whether a stamp
        # batch / ack flush is already posted for the end of the
        # current loop turn.
        self._stamp_posted = False
        self._ack_posted = False
        # ... and for the gather: when the round began, and when this
        # daemon (re)started (a member never heard from may still be
        # starting until failure_timeout after that).
        self._gather_began = 0.0
        self._started_at = 0.0

        s = self.settings
        self._hb_timer = self.make_timer("heartbeat", self._send_heartbeat,
                                         s.heartbeat_interval, periodic=True)
        self._fd_timer = self.make_timer("fd", self._failure_check,
                                         s.failure_timeout / 2,
                                         periodic=not s.idle_immediate)
        self._stamp_timer = self.make_timer("stamp", self._flush_stamps,
                                            s.stamp_window)
        self._ack_timer = self.make_timer("ack", self._flush_ack,
                                          s.ack_window)
        self._gather_announce = self.make_timer(
            "gather_announce", self._announce_gather,
            s.gather_settle / 2, periodic=True)
        self._settle_timer = self.make_timer("settle", self._gather_settled,
                                             s.gather_settle)
        self._phase_timer = self.make_timer("phase", self._phase_timeout,
                                            s.phase_timeout)
        self._nack_timer = self.make_timer("nack", self._nack_check,
                                           s.nack_timeout, periodic=True)

        # statistics
        self.messages_multicast = 0
        self.deliveries = 0
        self.views_installed = 0
        self.gather_rounds = 0
        # Gather rounds settled, by what settled them.
        self.gathers_settled = {"answered": 0, "timer": 0}
        self._h_gather = None
        if obs is not None and obs.enabled:
            registry = obs.registry
            registry.counter_callback(
                "repro_gcs_gather_rounds_total",
                lambda: self.gather_rounds,
                "Membership gather rounds entered.", ("server",), (node,))
            self._h_gather = registry.histogram(
                "repro_gcs_gather_seconds",
                "Membership gather entered to settled.",
                ("server",)).labels(node)
            for how in self.gathers_settled:
                registry.counter_callback(
                    "repro_gcs_gather_settled_total",
                    lambda how=how: self.gathers_settled[how],
                    "Gather rounds settled, by what settled them: every "
                    "expected member answered, or the settle timer.",
                    ("server", "how"), (node, how))
            for name, help, fn in (
                    ("repro_gcs_messages_multicast",
                     "Application messages multicast by the daemon.",
                     lambda: self.messages_multicast),
                    ("repro_gcs_deliveries",
                     "Ordered message deliveries to the application.",
                     lambda: self.deliveries),
                    ("repro_gcs_views_installed",
                     "Group views installed.",
                     lambda: self.views_installed),
                    ("repro_gcs_outbox_depth",
                     "Application sends buffered during membership "
                     "changes.", lambda: len(self._outbox)),
                    ("repro_gcs_state",
                     "Daemon lifecycle state (0=down 1=idle "
                     "2=operational 3=gather 4=flush).",
                     lambda: DaemonState.CODES.get(self.state, -1))):
                registry.gauge_callback(name, fn, help,
                                        ("server",), (node,))

        # O(1) payload dispatch (bound methods, keyed by exact type) —
        # replaces a linear isinstance chain on the hottest receive path
        self._dispatch: Dict[type, Callable[[Any], None]] = {
            DataMsg: self._on_data,
            StampMsg: self._on_stamps,
            AckMsg: self._on_ack,
            HeartbeatMsg: self._on_heartbeat,
            NackMsg: self._on_nack,
            RetransDataMsg: self._on_retrans,
            GatherMsg: self._on_gather,
            ProposeMsg: self._on_propose,
            StateReportMsg: self._on_report,
            FlushPlanMsg: self._on_plan,
            FlushRetransCmd: self._on_retrans_cmd,
            FlushDoneMsg: self._on_flush_done,
            InstallMsg: self._on_install,
            LeaveMsg: self._on_leave,
        }

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> None:
        """Boot the daemon (not yet a group member)."""
        self.network.attach(self.node, self._on_datagram)
        self.state = DaemonState.IDLE
        self._started_at = self.sim.now
        self._hb_timer.start()
        # Explicit interval: a restart must not inherit whatever the
        # timer was last armed with.
        self._fd_timer.start(self.settings.failure_timeout / 2)
        self._nack_timer.start()

    def join(self) -> None:
        """Join the replication group; triggers a membership round."""
        if self.state == DaemonState.DOWN:
            raise RuntimeError("daemon not started")
        self.joined = True
        self._enter_gather(self.attempt + 1)

    def leave(self) -> None:
        """Voluntarily leave the group."""
        if self.joined:
            self._control_multicast(
                self._other_directory(), LeaveMsg(self.node))
        self.joined = False
        self.view = None
        self.ordering = None
        self._reset_round()
        self.state = DaemonState.IDLE

    def crash(self) -> None:
        """Lose all volatile state and go silent."""
        self.cancel_all()
        self.network.detach(self.node)
        self.state = DaemonState.DOWN
        self.joined = False
        self.view = None
        self.ordering = None
        self._reset_round()
        self._outbox = []
        self._last_heard = {}
        self.green_line = 0

    def recover(self) -> None:
        """Restart after a crash with fresh (empty) volatile state."""
        self.start()

    # ==================================================================
    # application interface
    # ==================================================================
    def multicast(self, payload: Any,
                  service: ServiceLevel = ServiceLevel.SAFE,
                  size: int = 200) -> None:
        """Multicast ``payload`` to the current group with ``service``
        guarantees.  While a membership change is in progress the send
        is buffered and re-issued in the next regular configuration."""
        if not self.joined:
            raise RuntimeError(f"node {self.node} is not a group member")
        if self.state != DaemonState.OPERATIONAL or self.ordering is None:
            self._outbox.append((payload, service, size))
            return
        ordering = self.ordering
        msg = DataMsg(ordering.view_id, self.node, ordering.fifo_out,
                      payload, service, size + _HEADER_SIZE)
        ordering.fifo_out += 1
        self.messages_multicast += 1
        ordering.add_data(msg)
        others = [m for m in ordering.members if m != self.node]
        if others:
            self.network.multicast(self.node, others, msg, msg.size)
        if self.node == ordering.sequencer:
            self._arm_stamp_timer()
        self._after_progress()

    # ==================================================================
    # datagram dispatch
    # ==================================================================
    def _on_datagram(self, datagram: Datagram) -> None:
        if self.state == DaemonState.DOWN:
            return
        payload = datagram.payload
        self._last_heard[datagram.src] = self.sim.now
        handler = self._dispatch.get(payload.__class__)
        if handler is not None:
            handler(payload)
        elif self.extra_dispatch is not None:
            self.extra_dispatch(datagram)

    # ==================================================================
    # normal operation: data / stamps / acks
    # ==================================================================
    def _current_view_msg(self, view_id: ViewId) -> bool:
        return self.ordering is not None and self.ordering.view_id == view_id

    def _on_data(self, msg: DataMsg) -> None:
        self._note_epoch(msg.view_id)
        if not self._current_view_msg(msg.view_id):
            return
        assert self.ordering is not None
        if self.ordering.add_data(msg):
            if self.node == self.ordering.sequencer:
                self._arm_stamp_timer()
            self._after_progress()

    def _on_stamps(self, msg: StampMsg) -> None:
        self._note_epoch(msg.view_id)
        if not self._current_view_msg(msg.view_id):
            return
        assert self.ordering is not None
        self.ordering.add_stamps(msg.stamps)
        self._after_progress()

    def _on_ack(self, msg: AckMsg) -> None:
        ordering = self.ordering
        if ordering is None or ordering.view_id != msg.view_id:
            return
        # Inlined ViewOrdering.add_ack (acks outnumber every other
        # message kind; keep in sync with the method).  An ack can only
        # unblock delivery by advancing the stability line; every
        # data/stamp/retrans ingestion path attempts delivery itself,
        # so an ack that moved nothing can be dropped without looking
        # at the queue head.
        acks = ordering.acks
        old = acks.get(msg.node)
        if old is not None and msg.ack_seq > old:
            acks[msg.node] = msg.ack_seq
            if old == ordering._stability:
                ordering._stability = stable = min(acks.values())
                if stable != old:
                    self._try_deliver()

    def _arm_stamp_timer(self) -> None:
        if (self.ordering is not None and self.ordering.pending_stamp
                and not self._stamp_timer.armed and not self._stamp_posted):
            if self.settings.idle_immediate:
                # Stamp at the end of this loop turn, never inside it —
                # a readable burst still coalesces into one batch, and a
                # delivery upcall that multicasts cannot recurse into
                # delivery (a one-member view delivers on stamping).
                self._stamp_posted = True
                self.sim.post(0.0, self._flush_stamps)
            else:
                self._stamp_timer.start()

    def _flush_stamps(self) -> None:
        self._stamp_posted = False
        if (self.state != DaemonState.OPERATIONAL
                or self.ordering is None
                or self.node != self.ordering.sequencer):
            return
        batch = self.ordering.take_stamp_batch()
        if not batch:
            return
        msg = StampMsg(self.ordering.view_id, tuple(batch))
        size = _HEADER_SIZE + _STAMP_ENTRY_SIZE * len(batch)
        others = [m for m in self.ordering.members if m != self.node]
        if others:
            self.network.multicast(self.node, others, msg, size)
        self._after_progress()

    def _after_progress(self) -> None:
        """Common post-ingestion step: ack coalescing + delivery."""
        if self.ordering is None:
            return
        if (self.ordering.needs_ack()
                and not self._ack_timer.armed and not self._ack_posted):
            if self.settings.idle_immediate:
                # Ack at the end of this loop turn (see _arm_stamp_timer).
                self._ack_posted = True
                self.sim.post(0.0, self._flush_ack)
            else:
                self._ack_timer.start()
        self._try_deliver()

    def _flush_ack(self) -> None:
        self._ack_posted = False
        if self.ordering is None or not self.ordering.needs_ack():
            return
        ordering = self.ordering
        msg = AckMsg(ordering.view_id, self.node, ordering.ack_seq)
        ordering.note_ack_sent()
        others = [m for m in ordering.members if m != self.node]
        if others:
            self.network.multicast(self.node, others, msg, _ACK_SIZE)
        self._try_deliver()
        if self.state == DaemonState.OPERATIONAL:
            ordering.prune_stable()

    def _try_deliver(self) -> None:
        ordering = self.ordering
        if self.state != DaemonState.OPERATIONAL or ordering is None:
            return
        # Inline head probe: most attempts find nothing deliverable,
        # and this skips the pop_deliverable call entirely.
        key = ordering.key_at.get(ordering.delivered_seq + 1)
        if key is None or key not in ordering.data:
            return
        for _seq, msg in ordering.pop_deliverable():
            self.deliveries += 1
            self.listener.on_message(msg.payload, msg.origin,
                                     in_transitional=False,
                                     service=msg.service)

    # ==================================================================
    # NACK-based loss recovery
    # ==================================================================
    def _nack_check(self) -> None:
        if self.state != DaemonState.OPERATIONAL or self.ordering is None:
            return
        self._resend_unstamped(self.ordering)
        missing = tuple(self.ordering.missing_data_seqs()[:64])
        want_stamps = (self.ordering.delivered_seq + 1
                       if (self.ordering.has_stamp_gap()
                           or self.ordering.has_unstamped_foreign_data())
                       else -1)
        signature = (self.ordering.view_id, missing, want_stamps)
        if not missing and want_stamps < 0:
            self._nack_signature = ()
            return
        if signature != self._nack_signature:
            # First observation: give the normal path one more period.
            self._nack_signature = signature
            return
        nack = NackMsg(self.ordering.view_id, self.node, missing,
                       want_stamps)
        target = self.ordering.sequencer
        if target == self.node:
            # The sequencer asks the member with the highest ack.
            candidates = [(ack, m) for m, ack in self.ordering.acks.items()
                          if m != self.node]
            if not candidates:
                return
            target = max(candidates)[1]
        self.network.send(self.node, target, nack, _CONTROL_SIZE)

    def _resend_unstamped(self, ordering: ViewOrdering) -> None:
        """(Non-sequencer) A DataMsg lost on its way to the sequencer is
        never stamped and, stamps being FIFO per origin, blocks every
        later message of mine, yet no NACK names it.  When my lowest
        unstamped message stays put for a whole NACK period, unicast the
        unstamped suffix to the sequencer (``add_data`` drops
        duplicates)."""
        if self.node == ordering.sequencer:
            return
        lowest = ordering.lowest_unstamped_own()
        if lowest >= ordering.fifo_out:
            self._unstamped_signature = ()
            return
        signature = (ordering.view_id, lowest)
        if signature != self._unstamped_signature:
            self._unstamped_signature = signature
            return
        for fifo in range(lowest, min(ordering.fifo_out, lowest + 64)):
            key = (self.node, fifo)
            msg = ordering.data.get(key)
            if msg is not None and key not in ordering.stamp_of:
                self.network.send(self.node, ordering.sequencer, msg,
                                  msg.size)

    def _on_nack(self, msg: NackMsg) -> None:
        if not self._current_view_msg(msg.view_id):
            return
        assert self.ordering is not None
        items = self.ordering.retrans_items(list(msg.missing_data))
        if items:
            size = sum(item[5] for item in items)
            self.network.send(self.node, msg.node,
                              RetransDataMsg(msg.view_id, tuple(items)),
                              size)
            self._log.record(self.sim.now, "gcs.retrans",
                             detail={"to": msg.node, "count": len(items)})
        if msg.want_stamps_from >= 0:
            stamps = tuple(
                (s, k[0], k[1])
                for s, k in sorted(self.ordering.key_at.items())
                if s >= msg.want_stamps_from)
            if stamps:
                size = _HEADER_SIZE + _STAMP_ENTRY_SIZE * len(stamps)
                self.network.send(self.node, msg.node,
                                  StampMsg(msg.view_id, stamps), size)

    def _on_retrans(self, msg: RetransDataMsg) -> None:
        if not self._current_view_msg(msg.view_id):
            return
        assert self.ordering is not None
        self.ordering.accept_retrans(msg.items)
        if self.state == DaemonState.FLUSH:
            self._check_flush_complete()
        else:
            self._after_progress()

    # ==================================================================
    # heartbeats and failure detection
    # ==================================================================
    def _other_directory(self) -> List[int]:
        return sorted(n for n in self.directory if n != self.node)

    def _control_multicast(self, dsts: List[int], payload: Any,
                           size: Optional[int] = None) -> None:
        if dsts:
            self.network.multicast(self.node, dsts, payload,
                                   size or _CONTROL_SIZE)

    def _send_heartbeat(self) -> None:
        if self.state == DaemonState.DOWN:
            return
        ack = self.ordering.ack_seq if self.ordering is not None else -1
        view_id = self.ordering.view_id if self.ordering is not None else None
        self._control_multicast(
            self._other_directory(),
            HeartbeatMsg(self.node, view_id, self.joined, ack,
                         self.green_line),
            _ACK_SIZE)

    def _on_heartbeat(self, msg: HeartbeatMsg) -> None:
        if msg.green_line:
            # Lines start at zero and only grow: zero tells nothing.
            self.listener.on_green_line(msg.node, msg.green_line)
        if (self.ordering is not None and msg.view_id is not None
                and msg.view_id == self.ordering.view_id):
            self.ordering.add_ack(msg.node, msg.ack_seq)
            self._try_deliver()
        # Merge detection: a joined foreigner is reachable.
        if (self.joined and self.state == DaemonState.OPERATIONAL
                and msg.joined and self.view is not None
                and msg.node not in self.view.members):
            self._enter_gather(self.attempt + 1)

    def _failure_check(self) -> None:
        """Suspect a view member not heard from within
        ``failure_timeout`` and start a gather.  With ``idle_immediate``
        the one-shot timer re-arms itself: at the earliest deadline
        still ahead while operational, otherwise at half a timeout."""
        if self.state == DaemonState.GATHER:
            # An unanswered member may have been silent past
            # failure_timeout since the last answer: presumed failed
            # now, it no longer holds the gather open.
            self._settle_if_answered()
        next_check = self._suspect_silent()
        if self.settings.idle_immediate:
            if next_check is None:
                self._fd_timer.start(self.settings.failure_timeout / 2)
            else:
                self._fd_timer.start_at(next_check)

    def _suspect_silent(self) -> Optional[float]:
        """Start a gather if some view member is silent; return when the
        next member could become suspect, or None when no deadline runs
        (not operational, or a gather just started)."""
        if (self.state != DaemonState.OPERATIONAL or not self.joined
                or self.view is None):
            return None
        now = self.sim.now
        timeout = self.settings.failure_timeout
        deadline = now - timeout
        earliest = now
        for member in self.view.members:
            if member == self.node:
                continue
            heard = self._last_heard.get(member, -1.0)
            if heard < deadline:
                self._log.record(now, "gcs.suspect", detail={
                    "member": member, "silent": now - heard})
                self._enter_gather(self.attempt + 1)
                return None
            if heard < earliest:
                earliest = heard
        # The rule is strict (silent for *more* than failure_timeout):
        # checking exactly at the deadline would find nobody and re-arm
        # at the same instant.
        return earliest + timeout + _FD_SLACK

    def topology_hint(self) -> None:
        """Fast-path notification that connectivity may have changed.

        Installed by the cluster when ``settings.use_topology_hints`` is
        on; the heartbeat/timeout path remains the correctness backstop.
        """
        if not self.joined or self.state == DaemonState.DOWN:
            return
        self._enter_gather(self.attempt + 1)

    def _on_leave(self, msg: LeaveMsg) -> None:
        if (self.joined and self.view is not None
                and msg.node in self.view.members):
            self._enter_gather(self.attempt + 1)

    # ==================================================================
    # membership: gather
    # ==================================================================
    def _reset_round(self) -> None:
        self._perceived = set()
        self._round_coordinator = None
        self._proposal_members = ()
        self._reports = {}
        self._my_plan = None
        self._flush_done = set()
        self._sent_done = False
        self._gather_announce.stop()
        self._settle_timer.stop()
        self._phase_timer.stop()

    def _enter_gather(self, attempt: int) -> None:
        if not self.joined:
            return
        self._reset_round()
        self.attempt = max(self.attempt, attempt)
        self.state = DaemonState.GATHER
        self.gather_rounds += 1
        self._perceived = {self.node}
        self._gather_began = self.sim.now
        self._log.record(self.sim.now, "gcs.gather",
                         detail={"attempt": self.attempt})
        self._announce_gather()
        self._gather_announce.start()
        self._settle_timer.start()
        self._settle_if_answered()

    def _announce_gather(self) -> None:
        if self.state != DaemonState.GATHER:
            return
        self._control_multicast(self._other_directory(),
                                GatherMsg(self.node, self.attempt, True))

    def _on_gather(self, msg: GatherMsg) -> None:
        if not msg.joined or not self.joined:
            return
        if self.state == DaemonState.GATHER:
            if msg.attempt > self.attempt:
                self._enter_gather(msg.attempt)
                self._perceived.add(msg.node)
            elif msg.attempt == self.attempt:
                if msg.node not in self._perceived:
                    self._perceived.add(msg.node)
                    self._settle_timer.start()
                    self._announce_gather()
        elif self.state == DaemonState.OPERATIONAL:
            self._enter_gather(max(self.attempt + 1, msg.attempt))
            self._perceived.add(msg.node)
        elif self.state == DaemonState.FLUSH:
            # Same-attempt announcements are stragglers of the round we
            # already settled; only a genuinely newer round restarts us.
            if msg.attempt > self.attempt:
                self._enter_gather(msg.attempt)
                self._perceived.add(msg.node)
        self._settle_if_answered()

    def _all_answered(self) -> bool:
        """Nothing is left to collect: every directory member is in the
        gathered set or presumed failed — heard from, but not within
        ``failure_timeout`` (a member never heard from counts as heard
        at start-up: it may still be starting)."""
        if self.state != DaemonState.GATHER:
            return False
        deadline = self.sim.now - self.settings.failure_timeout
        for member in self.directory:
            if (member not in self._perceived
                    and self._last_heard.get(member, self._started_at)
                    >= deadline):
                return False
        return True

    def _settle_if_answered(self) -> None:
        """Idle→immediate gather (settings.idle_immediate): once every
        expected member answered, settle at the end of this dispatch
        instead of waiting out ``gather_settle``.  Never inside the
        handler, as for stamps and acks; the timer stays the fallback."""
        if self.settings.idle_immediate and self._all_answered():
            self.sim.post(0.0, self._settle_answered)

    def _settle_answered(self) -> None:
        # Re-check: a newer round entered since the post gathers afresh.
        if self._all_answered():
            self._settle_timer.stop()
            self._gather_settled("answered")

    def _gather_settled(self, how: str = "timer") -> None:
        if self.state != DaemonState.GATHER:
            return
        self.gathers_settled[how] += 1
        if self._h_gather is not None:
            self._h_gather.observe(self.sim.now - self._gather_began)
        members = tuple(sorted(self._perceived))
        coordinator = members[0]
        self._gather_announce.stop()
        self._round_coordinator = coordinator
        if coordinator == self.node:
            self._proposal_members = members
            self._reports = {}
            self.state = DaemonState.FLUSH
            self._log.record(self.sim.now, "gcs.propose", detail={
                "attempt": self.attempt, "members": members})
            others = [m for m in members if m != self.node]
            self._control_multicast(
                others, ProposeMsg(self.node, self.attempt, members))
            self._accept_propose(
                ProposeMsg(self.node, self.attempt, members))
        else:
            # Wait for the coordinator's proposal.
            self.state = DaemonState.FLUSH
        self._phase_timer.start()

    def _phase_timeout(self) -> None:
        if self.state in (DaemonState.GATHER, DaemonState.FLUSH):
            self._enter_gather(self.attempt + 1)

    # ==================================================================
    # membership: propose / report
    # ==================================================================
    def _on_propose(self, msg: ProposeMsg) -> None:
        if not self.joined:
            return
        if msg.attempt < self.attempt or self.node not in msg.members:
            return
        if self.state not in (DaemonState.GATHER, DaemonState.FLUSH):
            return
        self.attempt = msg.attempt
        self._accept_propose(msg)

    def _accept_propose(self, msg: ProposeMsg) -> None:
        self.state = DaemonState.FLUSH
        self._round_coordinator = msg.coordinator
        self._proposal_members = msg.members
        self._sent_done = False
        self._my_plan = None
        self._phase_timer.start()
        report = self._build_report()
        if msg.coordinator == self.node:
            self._on_report(report)
        else:
            self.network.send(self.node, msg.coordinator, report,
                              _CONTROL_SIZE + 24 * len(report.stamps))

    def _build_report(self) -> StateReportMsg:
        if self.ordering is not None:
            return self.ordering.state_report(self.node, self.attempt)
        return StateReportMsg(
            node=self.node, attempt=self.attempt, old_view_id=None,
            stamps=(), have_data=(), stability_line=-1)

    def _on_report(self, msg: StateReportMsg) -> None:
        if (self.state != DaemonState.FLUSH
                or self._round_coordinator != self.node
                or msg.attempt != self.attempt):
            return
        self._reports[msg.node] = msg
        if set(self._reports) == set(self._proposal_members):
            self._coordinate_flush()

    # ==================================================================
    # membership: flush (coordinator side)
    # ==================================================================
    def _coordinate_flush(self) -> None:
        groups: Dict[Optional[ViewId], List[StateReportMsg]] = {}
        for report in self._reports.values():
            groups.setdefault(report.old_view_id, []).append(report)
        self._flush_done = set()
        for old_view_id, reports in groups.items():
            if old_view_id is None:
                # Nothing to flush for fresh joiners.
                for report in reports:
                    self._flush_done.add(report.node)
                continue
            self._note_epoch(old_view_id)
            union: Dict[int, Tuple[int, int]] = {}
            holders: Dict[int, List[int]] = {}
            for report in reports:
                for seq, origin, fifo in report.stamps:
                    union[seq] = (origin, fifo)
                for seq in report.have_data:
                    holders.setdefault(seq, []).append(report.node)
            stable_line = max(r.stability_line for r in reports)
            union_stamps = tuple((s, k[0], k[1])
                                 for s, k in sorted(union.items()))
            data_available = tuple(sorted(holders))
            plan = FlushPlanMsg(self.node, self.attempt, old_view_id,
                                union_stamps, data_available, stable_line)
            members = [r.node for r in reports]
            size = _CONTROL_SIZE + _STAMP_ENTRY_SIZE * len(union_stamps)
            others = [m for m in members if m != self.node]
            self._control_multicast(others, plan, size)
            if self.node in members:
                self._on_plan(plan)
            # retransmission commands
            commands: Dict[Tuple[int, int], List[int]] = {}
            for report in reports:
                have = set(report.have_data)
                for seq in holders:
                    if seq in have:
                        continue
                    holder = min(h for h in holders[seq])
                    commands.setdefault((holder, report.node),
                                        []).append(seq)
            for (holder, to_node), seqs in sorted(commands.items()):
                cmd = FlushRetransCmd(self.node, self.attempt, to_node,
                                      old_view_id, tuple(sorted(seqs)))
                if holder == self.node:
                    self._on_retrans_cmd(cmd)
                else:
                    self.network.send(self.node, holder, cmd, _CONTROL_SIZE)
        self._phase_timer.start()
        self._maybe_install()

    def _on_plan(self, msg: FlushPlanMsg) -> None:
        if (self.state != DaemonState.FLUSH
                or msg.attempt != self.attempt):
            return
        if self.ordering is None or self.ordering.view_id != msg.old_view_id:
            return
        self._my_plan = msg
        self.ordering.add_stamps(msg.union_stamps)
        self._phase_timer.start()
        self._check_flush_complete()

    def _on_retrans_cmd(self, msg: FlushRetransCmd) -> None:
        if self.ordering is None or self.ordering.view_id != msg.old_view_id:
            return
        items = self.ordering.retrans_items(list(msg.seqs))
        if not items:
            return
        size = sum(item[5] for item in items)
        retrans = RetransDataMsg(msg.old_view_id, tuple(items))
        self._log.record(self.sim.now, "gcs.retrans",
                         detail={"to": msg.to_node, "count": len(items)})
        if msg.to_node == self.node:
            self._on_retrans(retrans)
        else:
            self.network.send(self.node, msg.to_node, retrans, size)

    def _check_flush_complete(self) -> None:
        if (self.state != DaemonState.FLUSH or self._my_plan is None
                or self._sent_done or self.ordering is None):
            return
        # Sequence numbers below our prune point were delivered and are
        # stable everywhere — they count as held even though the
        # payloads were discarded (peers may have pruned less than us).
        needed = {s for s in self._my_plan.data_available
                  if s >= self.ordering.pruned_below}
        have = {s for s, k in self.ordering.key_at.items()
                if k in self.ordering.data}
        if not needed.issubset(have):
            return
        self._sent_done = True
        done = FlushDoneMsg(self.node, self.attempt)
        if self._round_coordinator == self.node:
            self._on_flush_done(done)
        else:
            assert self._round_coordinator is not None
            self.network.send(self.node, self._round_coordinator, done,
                              _CONTROL_SIZE)

    def _on_flush_done(self, msg: FlushDoneMsg) -> None:
        if (self.state != DaemonState.FLUSH
                or self._round_coordinator != self.node
                or msg.attempt != self.attempt):
            return
        self._flush_done.add(msg.node)
        self._maybe_install()

    def _maybe_install(self) -> None:
        if (self._round_coordinator != self.node
                or set(self._reports) != set(self._proposal_members)
                or self._flush_done != set(self._proposal_members)):
            return
        new_view_id = ViewId(self.max_epoch_seen + 1, self.node)
        trans_sets: List[Tuple[int, Tuple[int, ...]]] = []
        for member in self._proposal_members:
            old = self._reports[member].old_view_id
            if old is None:
                trans_sets.append((member, (member,)))
            else:
                same = tuple(sorted(
                    n for n in self._proposal_members
                    if self._reports[n].old_view_id == old))
                trans_sets.append((member, same))
        install = InstallMsg(self.node, self.attempt, new_view_id,
                             self._proposal_members, tuple(trans_sets))
        others = [m for m in self._proposal_members if m != self.node]
        self._control_multicast(others, install)
        self._on_install(install)

    # ==================================================================
    # membership: install (every member)
    # ==================================================================
    def _on_install(self, msg: InstallMsg) -> None:
        if (self.state != DaemonState.FLUSH
                or msg.attempt != self.attempt
                or self.node not in msg.members):
            return
        self._note_epoch(msg.new_view_id)
        trans_sets = dict(msg.trans_sets)
        my_trans = frozenset(trans_sets.get(self.node, (self.node,)))

        resubmit: List[DataMsg] = []
        if self.ordering is not None and self.view is not None:
            old = self.ordering
            stable_line = (self._my_plan.stable_line
                           if self._my_plan is not None else -1)
            # 1. Stable prefix: delivered in the (old) regular conf.
            for seq in range(old.delivered_seq + 1, stable_line + 1):
                key = old.key_at.get(seq)
                if key is None or key not in old.data:
                    continue
                data = old.data[key]
                old.delivered_seq = seq
                self.deliveries += 1
                self.listener.on_message(data.payload, data.origin,
                                         in_transitional=False,
                                         service=data.service)
            # 2. Transitional configuration notification.
            self.listener.on_transitional_conf(
                Configuration(old.view_id, my_trans, transitional=True))
            # 3. Remaining stamped messages: delivered in the
            #    transitional configuration (holes are skipped — nobody
            #    reachable holds them; EVS permits this, the relative
            #    order of commonly-delivered messages is preserved).
            for seq in old.undelivered_stamped():
                key = old.key_at[seq]
                data = old.data[key]
                old.delivered_seq = max(old.delivered_seq, seq)
                self.deliveries += 1
                self.listener.on_message(data.payload, data.origin,
                                         in_transitional=True,
                                         service=data.service)
            # 4. Own messages that never made the total order are
            #    re-submitted in the new configuration.
            resubmit = old.unstamped_own()
        else:
            # A fresh member gets a singleton transitional conf if it
            # had no previous view (nothing can be delivered in it).
            self.listener.on_transitional_conf(
                Configuration(msg.new_view_id, frozenset([self.node]),
                              transitional=True))

        members = frozenset(msg.members)
        self.view = Configuration(msg.new_view_id, members)
        self.ordering = ViewOrdering(msg.new_view_id, members, self.node)
        self.state = DaemonState.OPERATIONAL
        self.views_installed += 1
        self._reset_round()
        for member in members:
            self._last_heard[member] = self.sim.now
        self._log.record(self.sim.now, "gcs.install", detail={
            "view": str(msg.new_view_id), "members": tuple(sorted(members))})
        self.listener.on_regular_conf(self.view)
        outbox, self._outbox = self._outbox, []
        for data in resubmit:
            self.multicast(data.payload, data.service,
                           data.size - _HEADER_SIZE)
        for payload, service, size in outbox:
            self.multicast(payload, service, size)

    # ==================================================================
    # misc
    # ==================================================================
    def _note_epoch(self, view_id: ViewId) -> None:
        if view_id.epoch > self.max_epoch_seen:
            self.max_epoch_seen = view_id.epoch

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<GcsDaemon {self.node} {self.state} "
                f"view={self.view.view_id if self.view else None}>")
