"""The replication engine: Appendix A's algorithm, executable.

One engine runs per node, between the group communication daemon below
and the database + clients above.  It is a pure event-driven state
machine over the eight states of Figure 4, driven by five event kinds:
action message, state message, CPC message, regular configuration,
transitional configuration — plus client requests.

Faithfulness notes (pseudo-code references in parentheses):

* ``** sync to disk`` points are asynchronous in this implementation:
  the engine initiates the forced write and continues *only* in the
  completion callback, guarded by a generation counter so a membership
  change during the write safely supersedes the continuation.  The
  observable protocol order (sync happens-before the dependent message)
  is preserved exactly.
* Client requests are the paper's one-forced-write-per-action: the
  action is journaled to the ``ongoingQueue`` and synced *before* it is
  multicast (A.1/A.2 Client req).  ``EngineConfig.forced_client_writes
  = False`` gives the delayed-writes variant of Figure 5(b).
* Green application durability is asynchronous (``green`` WAL records);
  a crash may roll a server's green suffix back, which is exactly the
  window the **vulnerable** record guards (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from ..db import Action, ActionId, ActionType, Database
from ..gcs import Configuration, GroupChannel, ServiceLevel, ViewId
from ..obs import Observability, action_trace_id
from ..obs.spans import STALENESS_STRIDE

# Power-of-two stride lets the sampling test be a single AND.
_STALENESS_MASK = STALENESS_STRIDE - 1
from ..storage import StableStore
from .action_queue import ActionQueue
from .knowledge import (Knowledge, RetransPlan, compute_knowledge,
                        plan_retransmission, retransmission_complete)
from .messages import EngineActionMsg, EngineCpcMsg, EngineStateMsg
from .quorum import DynamicLinearVoting, QuorumPolicy
from .records import PrimComponent, Vulnerable, Yellow
from .state_machine import EngineInput, EngineState, check_transition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.base import Runtime

# Declared wire size (bytes) of the engine's state and CPC messages.
_CONTROL_SIZE = 128


@dataclass
class EngineConfig:
    """Tunables of the replication engine."""

    forced_client_writes: bool = True
    checkpoint_interval: float = 0.25
    action_size: int = 200
    # Per-action processing cost of the replication server (ordering,
    # indexing, handing to the DBMS).  Every replica pays it for every
    # globally ordered action — this is what caps the delayed-writes
    # engine at ~2500 actions/s in the paper's Figure 5(b).
    apply_cpu: float = 0.0004
    # Rewrite the WAL (database snapshot + live records) whenever it
    # grows past this many records; None disables compaction.
    log_compaction_threshold: Optional[int] = 4000
    quorum: QuorumPolicy = field(default_factory=DynamicLinearVoting)


#: ``engine.stats`` key -> (metric name, help).  The engine counts in
#: a plain dict; :class:`~repro.core.replica.Replica` exports each key as
#: a counter read at collection time.
ENGINE_COUNTERS = {
    "greens": ("repro_engine_green_actions_total",
               "Actions marked green (globally ordered) at this server."),
    "reds": ("repro_engine_red_actions_total",
             "Actions marked red (locally ordered) at this server."),
    "yellows": ("repro_engine_yellow_actions_total",
                "Actions marked yellow (transitional delivery)."),
    "exchanges": ("repro_engine_exchanges_total",
                  "State-exchange rounds entered (one per view change)."),
    "installs": ("repro_engine_installs_total",
                 "Primary components installed at this server."),
    "cpc_sent": ("repro_engine_cpc_sent_total",
                 "Create-primary-component votes multicast."),
    "state_msgs_sent": ("repro_engine_state_msgs_total",
                        "Exchange state messages multicast."),
    "retrans_actions": ("repro_engine_retrans_actions_total",
                        "Actions retransmitted during exchanges."),
    "client_requests": ("repro_engine_client_requests_total",
                        "Client requests submitted at this server."),
}


class EngineHooks:
    """Upcalls from the engine to its host replica.  Override freely."""

    def on_green(self, action: Action, position: int, result: Any) -> None:
        """``action`` took global position ``position`` and was applied."""

    def on_red(self, action: Action) -> None:
        """``action`` entered the local (red) order."""

    def on_state_change(self, old: EngineState, new: EngineState,
                        cause: EngineInput) -> None:
        """The engine moved between Figure 4 states on input ``cause``."""

    def start_transfer(self, join_action: Action, position: int) -> None:
        """This server is the representative for a green
        PERSISTENT_JOIN: begin the database transfer (Section 5.1)."""

    def on_exit(self) -> None:
        """A PERSISTENT_LEAVE for this server became green: shut down."""


class ReplicationEngine:
    """The replication algorithm of Amir & Tutu, one instance per node."""

    def __init__(self, sim: "Runtime", server_id: int,
                 channel: GroupChannel, store: StableStore,
                 database: Database, server_ids: List[int],
                 config: Optional[EngineConfig] = None,
                 hooks: Optional[EngineHooks] = None,
                 obs: Optional[Observability] = None) -> None:
        self.sim = sim
        self.server_id = server_id
        self.channel = channel
        self.store = store
        self.database = database
        self.config = config or EngineConfig()
        self.hooks = hooks or EngineHooks()
        self.obs = obs if obs is not None else Observability.disabled()
        # This node's event log: state transitions, installs, compactions.
        self._log = self.obs.flight_hub.recorder(server_id)
        # None when observability is off: the hot paths pay a None
        # check, not a call.
        self._spans = self.obs.tracker(server_id)
        # Distributed tracing (None when off, same None-check pattern):
        # the flight recorder keeps a bounded ring of submit/send/recv/
        # red/green events under each action's deterministic trace id.
        # The hot paths append (t, kind, trace, detail) tuples through
        # the cached bound method — the ring deque's identity is stable
        # across FlightRecorder.clear(), so the cache never goes stale.
        self._flight = self.obs.flight(server_id)
        self._flight_append = (self._flight.ring.append
                               if self._flight is not None else None)
        # Staleness probe (opt-in): remote greens measure originator
        # submit → local green lag from the timestamp in action meta,
        # sampled one green in every STALENESS_STRIDE (see spans.py).
        self._staleness = False
        self._staleness_tick = 0
        if self.obs.staleness and self._spans is not None:
            self._staleness = True
            self._spans.enable_staleness()

        self.state = EngineState.NON_PRIM
        self.queue = ActionQueue(server_ids)
        self.action_index = 0
        self.attempt_index = 0
        self.prim_component = PrimComponent(servers=tuple(sorted(server_ids)))
        self.vulnerable = Vulnerable()
        self.yellow = Yellow()
        self.conf: Optional[Configuration] = None
        self.ongoing: Dict[ActionId, Action] = {}
        # Servers permanently removed by a green PERSISTENT_LEAVE.
        # They no longer count toward the last primary component's
        # majority — the paper's cure for "blocking in case of a
        # permanent failure or disconnection of a majority" (Sec. 5.1).
        self.removed_servers: set = set()
        self.exited = False
        # Green actions whose WAL records a completed sync covers: a
        # crash cannot roll this server back below it, so it is the
        # green line this server advertises (action messages and GCS
        # heartbeats) for the white line.
        self.durable_green_count = 0

        # per-exchange volatile state
        self._state_messages: Dict[int, EngineStateMsg] = {}
        self._cpc_received: set = set()
        self._knowledge: Optional[Knowledge] = None
        self._plan: Optional[RetransPlan] = None
        self._red_retrans_sent: set = set()
        self._green_retrans_sent = False
        self._buffered: List[Action] = []
        # Actions delivered while in Construct (sequenced between the
        # exchange and the CPC votes — possible when the GCS re-submits
        # in-flight messages at a view change).  Every member of the
        # configuration sees them at the same point of the delivery
        # sequence, so buffering and green-marking them right after
        # Install keeps the global order identical everywhere.
        self._construct_buffer: List[Action] = []
        # Out-of-FIFO arrivals (a recovering server's red cut lags the
        # live traffic until the exchange retransmission catches it
        # up); drained in creator order as the cut advances.
        self._fifo_pending: Dict[int, Dict[int, Action]] = {}
        self._generation = 0

        # wire up GCS callbacks
        channel.message_handler = self._on_gcs_message
        channel.conf_handler = self._on_gcs_conf
        channel.green_line_handler = self._on_green_line

        # statistics: volatile, so a rebuilt engine after crash
        # recovery starts from zero.
        self.stats: Dict[str, int] = dict.fromkeys(ENGINE_COUNTERS, 0)

    # ==================================================================
    # public API
    # ==================================================================
    @property
    def server_ids(self) -> List[int]:
        """The current known replica set."""
        return self.queue.servers

    @property
    def in_primary(self) -> bool:
        return self.state in (EngineState.REG_PRIM, EngineState.TRANS_PRIM)

    def submit(self, update: Optional[Tuple], query: Optional[Tuple] = None,
               client: Any = None, meta: Optional[dict] = None) -> ActionId:
        """Submit a client request; returns the assigned action id.

        In RegPrim and NonPrim the action is journaled, synced, and
        multicast (A.1/A.2); in the intermediate states it is buffered
        (A.3/A.4/A.6/A.9/A.11/A.12) and issued when the engine settles.
        """
        if self.exited:
            raise RuntimeError(f"server {self.server_id} has left the system")
        self.stats["client_requests"] += 1
        action = self._create_action(update, query, client, meta or {})
        if self._spans is not None:
            self._spans.on_submit(action.action_id, self.sim.now)
        if self.state in (EngineState.REG_PRIM, EngineState.NON_PRIM):
            self._journal_and_generate([action])
        else:
            self._buffered.append(action)
        return action.action_id

    def submit_action(self, action: Action) -> None:
        """Submit a pre-built action (reconfiguration, semantics layer)."""
        if self._spans is not None \
                and action.action_id.server_id == self.server_id:
            self._spans.on_submit(action.action_id, self.sim.now)
        if self.state in (EngineState.REG_PRIM, EngineState.NON_PRIM):
            self._journal_and_generate([action])
        else:
            self._buffered.append(action)

    def next_action_id(self) -> ActionId:
        """Allocate the next action id for a pre-built action."""
        self.action_index += 1
        return ActionId(self.server_id, self.action_index)

    # ------------------------------------------------------------------
    # action creation and generation
    # ------------------------------------------------------------------
    def _create_action(self, update: Optional[Tuple], query: Optional[Tuple],
                       client: Any, meta: dict) -> Action:
        action_id = self.next_action_id()
        rec = self._flight_append
        if rec is not None:
            # Trace context: deterministic id (a pre-assigned id in
            # meta wins), recorded at the submit instant.
            trace = meta.get("trace")
            if trace is None:
                trace = meta["trace"] = action_trace_id(
                    self.server_id, action_id.index)
            rec((self.sim.now, "submit", trace, None))
        if self._staleness and "ts" not in meta:
            meta["ts"] = self.sim.now
        return Action(action_id=action_id,
                      green_line=None, client=client, query=query,
                      update=update, meta=meta,
                      size=self.config.action_size)

    def _journal_and_generate(self, actions: List[Action]) -> None:
        """Write actions to the ongoingQueue, sync, then multicast."""
        generation = self._generation
        for action in actions:
            self.ongoing[action.action_id] = action
            self.store.wal.append("ongoing", action,
                                  forced=False)
        if self.config.forced_client_writes:
            # The line is read before the sync: greens applied while it
            # is in flight are staged behind it, not made durable by it.
            line = self.queue.green_count
            self._sync(lambda: self._generate(actions, generation, line))
        else:
            # Delayed-writes mode (Figure 5b): no forced write in the
            # client path; the checkpoint timer makes it durable later.
            self._generate(actions, generation, self.durable_green_count)

    def _generate(self, actions: List[Action], generation: int,
                  green_line: int) -> None:
        if self.exited:
            return
        rec = self._flight_append
        for action in actions:
            msg = EngineActionMsg(action=action, green_line=green_line)
            if rec is None:
                self.channel.multicast(msg, ServiceLevel.SAFE,
                                       size=action.size)
            else:
                trace = action.meta.get("trace", 0)
                rec((self.sim.now, "send", trace, None))
                self.channel.multicast(msg, ServiceLevel.SAFE,
                                       size=action.size, trace=trace)

    def _handle_buffered(self) -> None:
        """Handle_buff_requests (A.8): batch-journal, one sync, send."""
        if not self._buffered:
            return
        actions, self._buffered = self._buffered, []
        self._journal_and_generate(actions)

    # ==================================================================
    # state transitions
    # ==================================================================
    def _set_state(self, new: EngineState, cause: EngineInput) -> None:
        old = self.state
        if old is new:
            return
        check_transition(cause, old, new)
        self.state = new
        self._log.record(self.sim.now, "engine.state",
                         detail={"old": str(old), "new": str(new)})
        self.hooks.on_state_change(old, new, cause)

    # ==================================================================
    # GCS event dispatch
    # ==================================================================
    def _on_gcs_conf(self, conf: Configuration) -> None:
        if self.exited:
            return
        if conf.transitional:
            self._on_trans_conf(conf)
        else:
            self._on_reg_conf(conf)

    def _on_trans_conf(self, conf: Configuration) -> None:
        if self._spans is not None and self.in_primary:
            # Steady state ends here; the span closes at the next
            # primary install (the paper's membership-change cost).
            self._spans.on_membership_start(self.sim.now)
        state = self.state
        if state == EngineState.REG_PRIM:
            self._set_state(EngineState.TRANS_PRIM, EngineInput.TRANS_CONF)
        elif state in (EngineState.EXCHANGE_STATES,
                       EngineState.EXCHANGE_ACTIONS):
            self._set_state(EngineState.NON_PRIM, EngineInput.TRANS_CONF)
        elif state == EngineState.CONSTRUCT:
            self._set_state(EngineState.NO, EngineInput.TRANS_CONF)
        # NonPrim: ignore (A.1).  No/Un/TransPrim: cannot receive a
        # second transitional conf before a regular one.

    def _on_reg_conf(self, conf: Configuration) -> None:
        state = self.state
        if state == EngineState.TRANS_PRIM:
            self.vulnerable.invalidate()
            if self._spans is not None:
                self._spans.close_vulnerable(self.sim.now)
            self.yellow.make_valid()
        elif state == EngineState.NO:
            self.vulnerable.invalidate()
            if self._spans is not None:
                self._spans.close_vulnerable(self.sim.now)
        elif state == EngineState.UN:
            pass  # stays vulnerable (the '?' transition of Figure 4)
        self.conf = conf
        # Own journaled actions that were never delivered back (sent
        # into a dying view) must be re-generated, or the client would
        # wait forever — the liveness counterpart of the ongoingQueue.
        queued = {a.action_id for a in self._buffered}
        for action_id in sorted(self.ongoing):
            if (action_id.index > self.queue.red_cut.get(self.server_id,
                                                         0)
                    and action_id not in queued):
                self._buffered.append(self.ongoing[action_id])
        self._shift_to_exchange_states()

    def _on_gcs_message(self, payload: Any, origin: int,
                        in_transitional: bool,
                        service: ServiceLevel) -> None:
        if self.exited:
            return
        if isinstance(payload, EngineActionMsg):
            rec = self._flight_append
            if rec is not None and origin != self.server_id:
                rec((self.sim.now, "recv",
                     payload.action.meta.get("trace", 0), origin))
            self._on_action(payload, origin)
        elif isinstance(payload, EngineStateMsg):
            self._on_state_msg(payload)
        elif isinstance(payload, EngineCpcMsg):
            self._on_cpc(payload)

    # ==================================================================
    # marking procedures (A.14 + CodeSegment 5.1)
    # ==================================================================
    def _mark_red(self, action: Action, greening: bool = False) -> bool:
        accepted = self.queue.mark_red(action)
        if accepted:
            self._note_red(action, greening)
            self._drain_fifo_pending(action.server_id)
        else:
            creator = action.server_id
            if (creator in self.queue.red_cut
                    and action.action_id.index
                    > self.queue.red_cut[creator]):
                # Ahead of our cut: park it until retransmission fills
                # the gap (cannot happen within one view's FIFO stream,
                # only across recovery/exchange boundaries).
                self._fifo_pending.setdefault(
                    creator, {})[action.action_id.index] = action
        return accepted

    def _note_red(self, action: Action, greening: bool = False) -> None:
        self.stats["reds"] += 1
        rec = self._flight_append
        if rec is not None and not greening:
            rec((self.sim.now, "red", action.meta.get("trace", 0), None))
        if self._spans is not None and not greening:
            # ``greening``: the caller marks this action green at this
            # same instant, and the green hook records a zero-gap span
            # by itself — opening one here would be churn.  An action
            # that was red *earlier* keeps its open span (greening only
            # suppresses the record when the red is accepted fresh
            # inside a green marking).
            self._spans.on_red(action.action_id, self.sim.now)
        if action.action_id.server_id == self.server_id:
            self.ongoing.pop(action.action_id, None)
        self.hooks.on_red(action)

    def _drain_fifo_pending(self, creator: int) -> None:
        pending = self._fifo_pending.get(creator)
        while pending:
            next_index = self.queue.red_cut.get(creator, 0) + 1
            action = pending.pop(next_index, None)
            if action is None:
                break
            if self.queue.mark_red(action):
                self._note_red(action)

    def _mark_yellow(self, action: Action) -> None:
        self._mark_red(action)
        if self.queue.color_of(action.action_id) is not None:
            self.yellow.add(action.action_id)
            self.stats["yellows"] += 1

    def _mark_green(self, action: Action) -> bool:
        """MarkGreen with the Section 5.1 reconfiguration hook."""
        fresh_red = self._mark_red(action, greening=True)
        if not self.queue.mark_green(action):
            return False
        position = self.queue.green_count - 1
        self.queue.set_green_line(self.server_id, self.queue.green_count)
        self.stats["greens"] += 1
        meta = action.meta
        now = self.sim.now
        spans = self._spans
        if spans is not None:
            if fresh_red and action.server_id != self.server_id:
                # Steady state on a non-originator: red and green at
                # this same instant, nothing to time — batch the count.
                spans.instant_greens += 1
            else:
                spans.on_green(action.action_id, now)
            if self._staleness and action.server_id != self.server_id:
                tick = self._staleness_tick
                self._staleness_tick = tick + 1
                # Probe one remote green in every STALENESS_STRIDE
                # (deterministic; tick 0 samples, so even tiny runs
                # populate the histogram).
                if not tick & _STALENESS_MASK:
                    submitted = meta.get("ts")
                    if submitted is not None:
                        spans.on_remote_green(submitted, now)
        rec = self._flight_append
        if rec is not None:
            rec((now, "green", meta.get("trace", 0), position))

        if (action.type is ActionType.PERSISTENT_JOIN
                and action.join_id is not None
                and action.join_id not in self.queue.red_cut):
            # lines 5-10 of CodeSegment 5.1
            self.queue.add_server(action.join_id,
                                  green_line=position + 1)
            self.database.apply(action)
            self.store.wal.append("green", action, forced=False)
            if action.server_id == self.server_id:
                self.hooks.start_transfer(action, position)
        elif (action.type is ActionType.PERSISTENT_LEAVE
                and action.leave_id is not None
                and action.leave_id in self.queue.red_cut):
            # lines 11-13
            self.queue.remove_server(action.leave_id)
            self.removed_servers.add(action.leave_id)
            self.database.apply(action)
            self.store.wal.append("green", action, forced=False)
            if action.leave_id == self.server_id:
                self._exit_system()
                return True
        else:
            result = self.database.apply(action)
            self.store.wal.append("green", action, forced=False)
            self.hooks.on_green(action, position, result)
            return True
        self.hooks.on_green(action, position, None)
        return True

    def _exit_system(self) -> None:
        self.exited = True
        self._log.record(self.sim.now, "engine.exit")
        self.hooks.on_exit()

    # ==================================================================
    # Action handling per state
    # ==================================================================
    def _on_action(self, msg: EngineActionMsg, origin: int) -> None:
        action = msg.action
        state = self.state
        if state == EngineState.REG_PRIM:
            self._mark_green(action)                       # OR-1.1
            self.queue.set_green_line(action.server_id, msg.green_line)
        elif state == EngineState.TRANS_PRIM:
            self._mark_yellow(action)
        elif state == EngineState.NON_PRIM:
            self._mark_red(action)
        elif state == EngineState.EXCHANGE_STATES:
            if msg.green_pos is not None:
                self._accept_green_retrans(msg)
            else:
                self._mark_red(action)
        elif state == EngineState.EXCHANGE_ACTIONS:
            self._on_retrans_action(msg)                   # OR-3
        elif state == EngineState.UN:
            # Someone installed the primary component and generated an
            # action before noticing the failure: install and join it
            # in spirit (transition 1b of Figure 4).
            self._install()
            self._mark_yellow(action)
            self._set_state(EngineState.TRANS_PRIM, EngineInput.ACTION)
        elif state == EngineState.CONSTRUCT:
            # Sequenced between the exchange and the CPC round (a GCS
            # re-submission of an in-flight message).  Identical at
            # every member of the configuration: buffer, and green
            # right after Install.
            self._construct_buffer.append(action)
        else:
            self._log.record(self.sim.now, "engine.unexpected_action",
                             detail={"state": str(state),
                                     "action": str(action.action_id)})

    def _accept_green_retrans(self, msg: EngineActionMsg) -> None:
        """A retransmitted, already-globally-ordered action."""
        assert msg.green_pos is not None
        if msg.green_pos < self.queue.green_count:
            return  # already have it green
        if msg.green_pos > self.queue.green_count:
            # Out-of-order green retransmission cannot happen: the
            # retransmitter sends positions consecutively through the
            # same totally ordered channel.
            raise AssertionError(
                f"green retrans gap at {self.server_id}: have "
                f"{self.queue.green_count}, got {msg.green_pos}")
        self._mark_green(msg.action)

    def _on_retrans_action(self, msg: EngineActionMsg) -> None:
        if msg.green_pos is not None:
            self._accept_green_retrans(msg)
        elif (self._knowledge is not None
                and self._knowledge.yellow.is_valid
                and msg.action.action_id in self._knowledge.yellow.set):
            self._mark_yellow(msg.action)
        else:
            self._mark_red(msg.action)
        self._retransmit_if_my_turn()
        self._check_end_of_retrans(EngineInput.ACTION)

    # ==================================================================
    # exchange protocol
    # ==================================================================
    def _shift_to_exchange_states(self) -> None:
        """Shift_to_exchange_states (A.5)."""
        assert self.conf is not None
        self._generation += 1
        generation = self._generation
        self.stats["exchanges"] += 1
        if self._spans is not None:
            self._spans.on_membership_start(self.sim.now)
        self._state_messages = {}
        self._cpc_received = set()
        self._knowledge = None
        self._plan = None
        self._red_retrans_sent = set()
        self._green_retrans_sent = False
        self._construct_buffer = []
        self._set_state(EngineState.EXCHANGE_STATES, EngineInput.REG_CONF)
        self._persist_records()
        self.store.put("red_actions", self.queue.red_actions())
        self._sync(lambda: self._send_state_msg(generation))

    def _send_state_msg(self, generation: int) -> None:
        if (generation != self._generation or self.exited
                or self.state != EngineState.EXCHANGE_STATES):
            return
        assert self.conf is not None
        msg = EngineStateMsg(
            server_id=self.server_id, conf_id=self.conf.view_id,
            green_count=self.queue.green_count,
            red_cut=dict(self.queue.red_cut),
            green_lines=dict(self.queue.green_lines),
            attempt_index=self.attempt_index,
            prim_component=self.prim_component,
            vulnerable=self.vulnerable,
            yellow_valid=self.yellow.is_valid,
            yellow_ids=tuple(self.yellow.set))
        self.stats["state_msgs_sent"] += 1
        self.channel.multicast(msg, ServiceLevel.SAFE, size=_CONTROL_SIZE)

    def _on_state_msg(self, msg: EngineStateMsg) -> None:
        if self.state != EngineState.EXCHANGE_STATES:
            return  # A.1/A.4: ignore outside the exchange
        assert self.conf is not None
        if msg.conf_id != self.conf.view_id:
            return
        self._state_messages[msg.server_id] = msg
        if set(self._state_messages) == set(self.conf.members):
            self._all_states_delivered()

    def _all_states_delivered(self) -> None:
        self._knowledge = compute_knowledge(self._state_messages)
        self._plan = plan_retransmission(self._state_messages)
        # Adopt the computed yellow record (identical at all members).
        self.yellow = Yellow(status=self._knowledge.yellow.status,
                             set=list(self._knowledge.yellow.set))
        self._set_state(EngineState.EXCHANGE_ACTIONS, EngineInput.STATE_MSG)
        if self._plan.green_holder == self.server_id:
            self._retransmit_greens()
        self._retransmit_if_my_turn()
        self._check_end_of_retrans(EngineInput.STATE_MSG)

    def _retransmit_greens(self) -> None:
        assert self._plan is not None
        if self._green_retrans_sent:
            return
        self._green_retrans_sent = True
        for pos, action in self.queue.green_slice(self._plan.green_start,
                                                  self._plan.green_target):
            self.stats["retrans_actions"] += 1
            self.channel.multicast(
                EngineActionMsg(action=action, green_pos=pos, retrans=True,
                                green_line=self.queue.green_count),
                ServiceLevel.SAFE, size=action.size)

    def _retransmit_if_my_turn(self) -> None:
        """Red tails go out once our green prefix reached the target, so
        their total-order position follows every green retransmission."""
        if (self.state != EngineState.EXCHANGE_ACTIONS
                or self._plan is None
                or self.queue.green_count < self._plan.green_target):
            return
        for creator, holder in self._plan.red_holders.items():
            if holder != self.server_id or creator in self._red_retrans_sent:
                continue
            self._red_retrans_sent.add(creator)
            floor = self._plan.red_floor.get(creator, 0)
            for action in self.queue.red_actions_of(creator):
                if action.action_id.index <= floor:
                    continue
                self.stats["retrans_actions"] += 1
                self.channel.multicast(
                    EngineActionMsg(action=action, retrans=True,
                                    green_line=self.queue.green_count),
                    ServiceLevel.SAFE, size=action.size)

    def _check_end_of_retrans(self, cause: EngineInput) -> None:
        if (self.state != EngineState.EXCHANGE_ACTIONS
                or self._plan is None):
            return
        if retransmission_complete(self._plan, self.queue.green_count,
                                   self.queue.red_cut):
            self._end_of_retrans(cause)

    def _end_of_retrans(self, cause: EngineInput) -> None:
        """End_of_retrans (A.5), on the retransmitted action or the
        last state message (``cause``) that completed the plan."""
        assert self.conf is not None and self._knowledge is not None
        generation = self._generation
        for msg in self._state_messages.values():
            self.queue.set_green_line(msg.server_id, msg.green_count)
            for server, line in msg.green_lines.items():
                if server in self.queue.green_lines:
                    self.queue.set_green_line(server, line)
        knowledge = self._knowledge
        self.prim_component = PrimComponent(
            prim_index=knowledge.prim_component.prim_index,
            attempt_index=knowledge.prim_component.attempt_index,
            servers=tuple(knowledge.prim_component.servers))
        self.attempt_index = knowledge.attempt_index
        if self.vulnerable.is_valid:
            resolved = knowledge.vulnerable_resolution.get(self.server_id)
            if resolved is not None:
                valid, bits = resolved
                self.vulnerable.bits = dict(bits)
                if not valid:
                    self.vulnerable.invalidate()
                    if self._spans is not None:
                        self._spans.close_vulnerable(self.sim.now)
        self.queue.truncate_white()

        if self._is_quorum(knowledge):
            self.attempt_index += 1
            self.vulnerable.make_valid(self.prim_component.prim_index,
                                       self.attempt_index,
                                       tuple(sorted(self.conf.members)),
                                       self.server_id)
            if self._spans is not None:
                self._spans.open_vulnerable(self.sim.now)
            self._persist_records()
            self._set_state(EngineState.CONSTRUCT, cause)
            self._sync(lambda: self._send_cpc(generation))
        else:
            self._persist_records()
            self._set_state(EngineState.NON_PRIM, cause)
            self._sync(lambda: self._after_nonprim_sync(generation))

    def _is_quorum(self, knowledge: Knowledge) -> bool:
        """IsQuorum (A.8): no live vulnerability, then the policy.

        Permanently removed servers are excluded from the last primary
        component's membership: their PERSISTENT_LEAVE is globally
        ordered, so every server that subtracts them agrees on the
        subtraction — and servers that have not yet ordered the leave
        are merely conservative.
        """
        assert self.conf is not None
        if knowledge.any_vulnerable():
            return False
        last_prim = tuple(s for s in self.prim_component.servers
                          if s not in self.removed_servers)
        return self.config.quorum.is_quorum(
            self.conf.members, last_prim, self.queue.servers)

    def _after_nonprim_sync(self, generation: int) -> None:
        if (generation != self._generation or self.exited
                or self.state != EngineState.NON_PRIM):
            return
        self._handle_buffered()

    # ==================================================================
    # construct / install
    # ==================================================================
    def _send_cpc(self, generation: int) -> None:
        if (generation != self._generation or self.exited
                or self.state != EngineState.CONSTRUCT):
            return
        assert self.conf is not None
        self.stats["cpc_sent"] += 1
        self.channel.multicast(
            EngineCpcMsg(self.server_id, self.conf.view_id),
            ServiceLevel.SAFE, size=_CONTROL_SIZE)

    def _on_cpc(self, msg: EngineCpcMsg) -> None:
        if self.conf is None or msg.conf_id != self.conf.view_id:
            return
        if self.state in (EngineState.EXCHANGE_STATES,
                          EngineState.EXCHANGE_ACTIONS):
            # Completion points differ per member even under total
            # order: a member whose local state already satisfies the
            # retransmission plan reaches Construct (and votes) while a
            # member still waiting for retransmissions lags behind.
            # The vote is for this same view's attempt — every member
            # computes the same quorum decision from the same reports —
            # so remember it; install still only triggers below once
            # this member reaches Construct/No itself.
            self._cpc_received.add(msg.server_id)
        elif self.state == EngineState.CONSTRUCT:
            self._cpc_received.add(msg.server_id)
            if self._cpc_received == set(self.conf.members):
                for server in self.conf.members:
                    self.queue.set_green_line(server,
                                              self.queue.green_count)
                self._install()
                buffered, self._construct_buffer = \
                    self._construct_buffer, []
                for action in buffered:
                    if self.exited:
                        break
                    creator = action.action_id.server_id
                    if self.queue.red_cut.get(creator, 0) \
                            >= action.action_id.index - 1:
                        self._mark_green(action)
                    else:
                        self._mark_red(action)  # parks until the gap fills
                self._set_state(EngineState.REG_PRIM, EngineInput.CPC_MSG)
                self._handle_buffered()
        elif self.state == EngineState.NO:
            self._cpc_received.add(msg.server_id)
            if self._cpc_received == set(self.conf.members):
                self._set_state(EngineState.UN, EngineInput.CPC_MSG)
        # Other states: stale vote from a superseded attempt.

    def _install(self) -> None:
        """Install (A.10)."""
        self.stats["installs"] += 1
        if self.yellow.is_valid:
            for action_id in list(self.yellow.set):        # OR-1.2
                action = self.queue.find(action_id)
                if action is not None:
                    self._mark_green(action)
        self.yellow.invalidate()
        self.prim_component = PrimComponent(
            prim_index=self.prim_component.prim_index + 1,
            attempt_index=self.attempt_index,
            servers=tuple(self.vulnerable.set))
        self.attempt_index = 0
        for action in sorted(self.queue.red_actions(),
                             key=lambda a: a.action_id):   # OR-2
            self._mark_green(action)
            if self.exited:
                return
        self._persist_records()
        self._sync()
        if self._spans is not None:
            self._spans.on_install(self.sim.now)
        self._log.record(self.sim.now, "engine.install", detail={
            "prim_index": self.prim_component.prim_index,
            "servers": self.prim_component.servers})

    # ==================================================================
    # persistence
    # ==================================================================
    def _sync(self, then: Optional[Callable[[], None]] = None) -> None:
        """``** sync to disk``.  Every green's WAL record is staged
        before this call, so once the sync completes the current green
        count is durable and becomes the advertised line — recorded
        inside the sync itself, at no simulator event of its own."""
        line = self.queue.green_count
        self.store.sync(then, on_durable=lambda: self._note_durable(line))

    def _note_durable(self, line: int) -> None:
        if line > self.durable_green_count:
            self.durable_green_count = line
            self.channel.advertise_green_line(line)

    def _on_green_line(self, server_id: int, line: int) -> None:
        """A member's heartbeat carried its durable green count."""
        if server_id in self.queue.green_lines:
            self.queue.set_green_line(server_id, line)

    def _persist_records(self) -> None:
        self.store.put("prim_component", self.prim_component)
        self.store.put("vulnerable", self.vulnerable)
        self.store.put("yellow", self.yellow)
        self.store.put("attempt_index", self.attempt_index)
        self.store.put("action_index", self.action_index)
        self.store.put("servers", self.queue.servers)
        self.store.put("removed_servers", sorted(self.removed_servers))
        self.store.put("green_lines", dict(self.queue.green_lines))

    def checkpoint(self) -> None:
        """Periodic durability point: flush buffered WAL records.

        The red-actions snapshot is refreshed here (not only at
        exchange entry): once an own action is delivered back red, its
        ongoingQueue journal entry is discarded (A.14), so the red
        snapshot is its durable home — and log compaction depends on
        the snapshot being current.
        """
        self._persist_records()
        self.store.put("red_actions", self.queue.red_actions())
        self._sync()
        self.queue.truncate_white()
        threshold = self.config.log_compaction_threshold
        if threshold is not None and \
                self.store.wal.durable_size > threshold:
            self.compact_log()

    def compact_log(self) -> None:
        """Rewrite the WAL: one database snapshot + live records.

        Green history below the snapshot is subsumed by it; completed
        ongoingQueue entries vanish; the persistent records keep only
        their latest values.  Atomic: a crash mid-rewrite recovers from
        the previous log.
        """
        from ..storage import LogRecord
        records = [LogRecord("db_snapshot", self.database.snapshot())]
        for key, value in sorted(self.store.items().items()):
            records.append(LogRecord("kv", (key, value)))
        for action_id in sorted(self.ongoing):
            records.append(LogRecord("ongoing", self.ongoing[action_id]))
        self.store.wal.rewrite(records)
        self._log.record(self.sim.now, "engine.compact",
                         detail={"records": len(records)})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Engine {self.server_id} {self.state} "
                f"green={self.queue.green_count} "
                f"red={len(self.queue.red_actions())}>")
