"""Global model of N replication engines, for model checking.

The model owns what the group communication system owns — the network
partition, crashes, each node's inbox of undelivered SAFE multicasts,
view formation and the frozen report snapshot of each state exchange —
and reduces each server to a hashable :class:`ModelNode` record.  How a
server *reacts* is never decided here: :meth:`Model._react` rebuilds a
real :class:`~repro.core.engine.ReplicationEngine` from the record,
feeds the input through the engine's own GCS upcalls
(``channel.message_handler`` / ``channel.conf_handler``) and reads the
record back, memoised on record and input.  Every move is therefore
the engine's ``_set_state``, checked by
:func:`~repro.core.state_machine.check_transition` and reported by its
``on_state_change`` hook, and a mutant of engine code is a mutant of
what the checker explores.

Four abstractions stay at model level (docs/CHECKING.md § 2): a
delivery drains a whole inbox at once; the frozen exchange reports
carry empty red cuts; green retransmission is one big step; a crash
keeps the persistent record fields and drops the volatile ones.
Extended virtual synchrony is structural: faults deliver the
transitional configuration at once, and ``form_view`` drains every
member's inbox (the transitional flush) before the regular one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, Iterator, List,
                    NamedTuple, Optional, Set, Tuple)

from ..core.engine import EngineConfig, EngineHooks, ReplicationEngine
from ..core.invariants import (ActionTok, EngineRecord, Prim, Report, Vuln,
                               construct_stuck, engine_record, green_prefix,
                               quorum_wedge, record_report, report_message,
                               single_primary, unique_install,
                               vulnerable_net)
from ..core.messages import EngineActionMsg, EngineCpcMsg, EngineStateMsg
from ..core.quorum import DynamicLinearVoting, QuorumPolicy, StaticMajority
from ..core.records import (INVALID, VALID, PrimComponent, Vulnerable,
                            Yellow)
from ..core.state_machine import EngineInput, EngineState
from ..db import Action, ActionId, Database
from ..gcs import Configuration, ServiceLevel, ViewId
from ..obs import Observability
from ..sim import Simulator

_S = EngineState

#: A recorded Figure-4 edge: (input kind, old state, new state).
EdgeUse = Tuple[EngineInput, EngineState, EngineState]

# Inbox message shapes (plain tuples so states stay hashable):
#   ("cpc", sender, epoch)          a create-primary-component vote
#   ("act", (creator, seq), epoch)  an action multicast
Msg = Tuple

#: States a regular configuration may find a node in: extended virtual
#: synchrony delivers the transitional configuration first
#: (``EVS_SHADOWED_EDGES``).
_REG_CONF_STATES = frozenset({_S.NON_PRIM, _S.TRANS_PRIM, _S.NO, _S.UN})


class ModelInternalError(Exception):
    """The model broke one of its own structural assumptions (the EVS
    shadow claim, or an engine multicast it has no inbox shape for).
    An undeclared Figure-4 edge raises the engine's
    :class:`~repro.core.state_machine.IllegalTransition` instead."""


class ModelNode(NamedTuple):
    """One server's state (hashable): the first :data:`_RECORD` fields
    are the engine's (:class:`~repro.core.invariants.EngineRecord`),
    the rest the group communication model's."""

    state: EngineState
    green: Tuple[ActionTok, ...]
    red: Tuple[ActionTok, ...]
    yellow_valid: bool
    yellow: Tuple[ActionTok, ...]
    prim: Prim
    attempt: int
    vuln: Optional[Vuln]
    votes: FrozenSet[int]
    cbuf: Tuple[ActionTok, ...]  # actions buffered while in Construct
    view: Optional[Tuple[int, Tuple[int, ...]]]  # (epoch, members)
    dirty: bool          # a trans conf arrived since the last reg conf
    inbox: Tuple[Msg, ...]


#: Number of leading ModelNode fields the engine reacts on and rewrites.
_RECORD = len(EngineRecord._fields)

#: member -> frozen exchange report, captured when the view forms.
Snapshot = Tuple[Tuple[int, Report], ...]


class GlobalState(NamedTuple):
    """The full abstract system state (hashable, canonical)."""

    nodes: Tuple[ModelNode, ...]           # indexed by node id order
    comps: Tuple[Tuple[int, ...], ...]     # partition of the live nodes
    down: FrozenSet[int]
    # ((epoch, ((member, report), ...)), ...) — exchange snapshots
    reports: Tuple[Tuple[int, Snapshot], ...]
    epoch_next: int
    faults: int
    crashes: int
    actions: int


class Event(NamedTuple):
    """One enabled transition of the abstract system."""

    kind: str       # deliver | ds | retrans | form_view | client | fault
    arg: Tuple      # operand (node id, component, fault description...)

    def describe(self) -> str:
        if self.kind == "fault":
            return f"{self.arg[0]}({', '.join(map(str, self.arg[1:]))})"
        if self.kind == "form_view":
            return f"form_view({list(self.arg)})"
        return f"{self.kind}({', '.join(map(str, self.arg))})"


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the model: size, budgets and quorum policy."""

    nodes: int = 4
    max_faults: int = 2       # partition/merge/crash/recover budget
    max_crashes: int = 1
    max_actions: int = 1      # client submissions budget
    quorum: str = "dynamic-linear"   # or "static-majority"

    def policy(self) -> QuorumPolicy:
        if self.quorum == "static-majority":
            return StaticMajority()
        return DynamicLinearVoting()


# ======================================================================
# the engine's surroundings while it reacts
# ======================================================================
class _Channel:
    """GroupChannel stand-in that counts the engine's CPC votes; state
    messages and retransmissions are the model's big steps."""

    def __init__(self) -> None:
        self.message_handler: Any = None
        self.conf_handler: Any = None
        self.green_line_handler: Any = None
        self.cpcs = 0

    def multicast(self, payload: Any,
                  service: ServiceLevel = ServiceLevel.SAFE,
                  size: int = 200) -> None:
        if payload.__class__ is EngineCpcMsg:
            self.cpcs += 1
        elif payload.__class__ is not EngineStateMsg \
                and not getattr(payload, "retrans", False):
            raise ModelInternalError(f"unmodelled multicast {payload!r}")

    def advertise_green_line(self, line: int) -> None:
        pass


class _Store:
    """StableStore stand-in: writes vanish, ``sync`` completes in place."""

    def __init__(self) -> None:
        self.wal = self

    def put(self, *args: Any, **kwargs: Any) -> None:
        pass

    append = put

    def sync(self, callback: Any = None, on_durable: Any = None) -> None:
        if on_durable is not None:
            on_durable()
        if callback is not None:
            callback()


class _Hooks(EngineHooks):
    """Collects the greens and the Figure-4 edges of one reaction."""

    def __init__(self, edges: Set[EdgeUse]) -> None:
        self.edges = edges
        self.greened: List[ActionTok] = []

    def on_green(self, action: Action, position: int,
                 result: Any) -> None:
        self.greened.append((action.server_id, action.action_id.index))

    def on_state_change(self, old: EngineState, new: EngineState,
                        cause: EngineInput) -> None:
        self.edges.add((cause, old, new))


class Model:
    """Event semantics of the global system.

    Every method takes and returns immutable :class:`GlobalState`
    values, so the checker can memoize freely.  Figure-4 edges the
    engines take accumulate in :attr:`edges_seen`; every rebuilt
    engine runs with :attr:`engine_config`.
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.server_ids: Tuple[int, ...] = tuple(
            range(1, config.nodes + 1))
        self.engine_config = EngineConfig(quorum=config.policy())
        # The unmutated reference policy used by the liveness oracle.
        self._oracle_policy = config.policy()
        self.edges_seen: Set[EdgeUse] = set()
        #: safety violations found while applying events, cleared and
        #: collected by the checker after each apply
        self.violations: List[str] = []
        self._reactions: Dict[Tuple, Tuple[EngineRecord, int]] = {}
        self._sim = Simulator()
        self._obs = Observability.disabled()
        self._store = _Store()

    def initial_state(self) -> GlobalState:
        node = ModelNode(
            state=_S.NON_PRIM, green=(), red=(), yellow_valid=False,
            yellow=(), prim=(0, 0, self.server_ids), attempt=0,
            vuln=None, votes=frozenset(), cbuf=(), view=None,
            dirty=False, inbox=())
        return GlobalState(
            nodes=tuple(node for _ in self.server_ids),
            comps=(self.server_ids,),
            down=frozenset(), reports=(), epoch_next=0,
            faults=0, crashes=0, actions=0)

    # ==================================================================
    # per-node reactions: the real engine
    # ==================================================================
    def _react(self, state: GlobalState, n: int,
               stimulus: Tuple) -> Tuple[ModelNode, int]:
        """Node ``n``'s reaction to ``stimulus``: its new record and
        the number of CPC votes it multicast."""
        node = state.nodes[n - 1]
        snapshot = None
        if stimulus[0] in ("ds", "retrans") \
                or node.state is _S.EXCHANGE_ACTIONS:
            snapshot = _round(state, node)
        # The record, plus the view the engine is rebuilt with.
        key = (n, node[:_RECORD + 1], stimulus, snapshot)
        reaction = self._reactions.get(key)
        if reaction is None:
            reaction = self._reactions[key] = self._run_engine(
                n, node, stimulus, snapshot)
        record, cpcs = reaction
        return ModelNode(*record, node.view, node.dirty, node.inbox), cpcs

    def engine(self, n: int, node: ModelNode,
               channel: Optional[_Channel] = None,
               hooks: Optional[EngineHooks] = None) -> ReplicationEngine:
        """A real engine for node ``n``, rebuilt from its record."""
        engine = ReplicationEngine(
            self._sim, n, channel or _Channel(),  # type: ignore[arg-type]
            self._store, Database(),  # type: ignore[arg-type]
            list(self.server_ids), self.engine_config, hooks, self._obs)
        _restore(engine, node)
        return engine

    def _run_engine(self, n: int, node: ModelNode, stimulus: Tuple,
                    snapshot: Optional[Snapshot]
                    ) -> Tuple[EngineRecord, int]:
        channel = _Channel()
        hooks = _Hooks(self.edges_seen)
        engine = self.engine(n, node, channel, hooks)
        deliver = channel.message_handler
        conf = engine.conf
        if snapshot is not None and node.state is _S.EXCHANGE_ACTIONS:
            # The round's plan is volatile: rebuild it the way the
            # engine built it, from the same state messages.
            assert conf is not None
            engine.state = _S.EXCHANGE_STATES
            _deliver_round(deliver, conf.view_id, snapshot)
        kind = stimulus[0]
        if kind == "cpc":
            assert conf is not None
            deliver(EngineCpcMsg(stimulus[1], conf.view_id),
                    stimulus[1], False, ServiceLevel.SAFE)
        elif kind == "act":
            deliver(EngineActionMsg(action=_action(stimulus[1])),
                    stimulus[1][0], False, ServiceLevel.SAFE)
        elif kind == "ds":
            assert snapshot is not None and conf is not None
            _deliver_round(deliver, conf.view_id, snapshot)
        elif kind == "retrans":
            assert snapshot is not None
            holder, target = _green_target(snapshot)
            for pos in range(len(node.green), len(target)):
                deliver(EngineActionMsg(action=_action(target[pos]),
                                        green_pos=pos, retrans=True),
                        holder, False, ServiceLevel.SAFE)
        elif kind == "reg":
            _, epoch, members = stimulus
            channel.conf_handler(Configuration(
                ViewId(epoch, min(members)), frozenset(members)))
        elif kind == "trans":
            assert conf is not None
            channel.conf_handler(Configuration(
                conf.view_id, frozenset(stimulus[1]), transitional=True))
        else:  # pragma: no cover - exhaustive
            raise ModelInternalError(f"unknown stimulus {stimulus}")
        return (engine_record(engine, node.green + tuple(hooks.greened)),
                channel.cpcs)

    def _node_reacts(self, state: GlobalState, n: int,
                     stimulus: Tuple) -> GlobalState:
        """Apply node ``n``'s reaction and multicast its CPC votes."""
        node, cpcs = self._react(state, n, stimulus)
        nodes = list(state.nodes)
        nodes[n - 1] = node
        state = state._replace(nodes=tuple(nodes))
        if cpcs:
            assert node.view is not None
            state = self._broadcast(
                state, n, (("cpc", n, node.view[0]),) * cpcs)
        return state

    # ==================================================================
    # event enumeration
    # ==================================================================
    def enabled_events(self, state: GlobalState) -> List[Event]:
        events: List[Event] = []
        nodes = state.nodes
        for n in self.server_ids:
            if n in state.down:
                continue
            if nodes[n - 1].inbox:
                events.append(Event("deliver", (n,)))
        for n in self.server_ids:
            if n in state.down:
                continue
            node = nodes[n - 1]
            if node.state is _S.EXCHANGE_STATES and node.view is not None:
                events.append(Event("ds", (n,)))
            elif node.state is _S.EXCHANGE_ACTIONS \
                    and self._needs_retrans(state, n):
                events.append(Event("retrans", (n,)))
        for comp in state.comps:
            if self._view_pending(state, comp):
                events.append(Event("form_view", (comp,)))
        if state.actions < self.config.max_actions:
            for n in self.server_ids:
                if n not in state.down \
                        and nodes[n - 1].state is _S.REG_PRIM:
                    events.append(Event("client", (n,)))
        if state.faults < self.config.max_faults:
            events.extend(self._fault_events(state))
        return events

    def _view_pending(self, state: GlobalState,
                      comp: Tuple[int, ...]) -> bool:
        members = [n for n in comp if n not in state.down]
        if not members:
            return False
        epochs = set()
        for n in members:
            node = state.nodes[n - 1]
            if node.view is None or node.dirty:
                return True
            if set(node.view[1]) != set(comp):
                return True
            epochs.add(node.view[0])
        return len(epochs) > 1

    def _needs_retrans(self, state: GlobalState, n: int) -> bool:
        node = state.nodes[n - 1]
        snapshot = _round(state, node)
        # With no red tails in the reports, the plan is complete once
        # the longest green prefix of the round is reached.
        return snapshot is not None \
            and len(node.green) < len(_green_target(snapshot)[1])

    def _fault_events(self, state: GlobalState) -> Iterator[Event]:
        # Partitions: every bipartition of every component (the first
        # member stays in the first half, killing the mirror symmetry).
        for comp in state.comps:
            live = [n for n in comp if n not in state.down]
            if len(live) < 2:
                continue
            rest = live[1:]
            for mask in range(1 << len(rest)):
                side_a = [live[0]] + [m for i, m in enumerate(rest)
                                      if mask & (1 << i)]
                side_b = [m for i, m in enumerate(rest)
                          if not mask & (1 << i)]
                if not side_b:
                    continue
                yield Event("fault", ("partition", comp,
                                      tuple(side_a), tuple(side_b)))
        comps = state.comps
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                yield Event("fault", ("merge", comps[i], comps[j]))
        if state.crashes < self.config.max_crashes:
            alive = [n for n in self.server_ids if n not in state.down]
            if len(alive) > 1:
                for n in alive:
                    yield Event("fault", ("crash", n))
        for n in sorted(state.down):
            yield Event("fault", ("recover", n))

    # ==================================================================
    # event application
    # ==================================================================
    def apply_event(self, state: GlobalState,
                    event: Event) -> GlobalState:
        self.violations = []
        if event.kind == "deliver":
            new = self._apply_deliver(state, event.arg[0])
        elif event.kind == "ds":
            new = self._node_reacts(state, event.arg[0], ("ds",))
        elif event.kind == "retrans":
            new = self._apply_retrans(state, event.arg[0])
        elif event.kind == "form_view":
            new = self._apply_form_view(state, event.arg[0])
        elif event.kind == "client":
            new = self._apply_client(state, event.arg[0])
        elif event.kind == "fault":
            new = self._apply_fault(state, event.arg)
        else:  # pragma: no cover - exhaustive
            raise ModelInternalError(f"unknown event {event}")
        self.violations.extend(self.check_safety(new, event.kind))
        return canonicalize(new)

    # ------------------------------------------------------------------
    def _apply_client(self, state: GlobalState, n: int) -> GlobalState:
        """A RegPrim node multicasts a fresh action (the client side is
        the model's: the engine journals and sends it unchanged)."""
        seq = 1 + max((tok[1] for tok in _tokens(state) if tok[0] == n),
                      default=0)
        node = state.nodes[n - 1]
        assert node.view is not None
        state = self._broadcast(state, n, (("act", (n, seq),
                                            node.view[0]),))
        return state._replace(actions=state.actions + 1)

    # ------------------------------------------------------------------
    def _apply_deliver(self, state: GlobalState, n: int) -> GlobalState:
        nodes = list(state.nodes)
        inbox, nodes[n - 1] = nodes[n - 1].inbox, \
            nodes[n - 1]._replace(inbox=())
        state = state._replace(nodes=tuple(nodes))
        for msg in inbox:
            view = state.nodes[n - 1].view
            if view is not None and msg[-1] == view[0]:
                state = self._node_reacts(state, n, msg[:2])
            # else: stale epoch — a flushed view's message, dropped
        return state

    def _broadcast(self, state: GlobalState, sender: int,
                   msgs: Tuple[Msg, ...]) -> GlobalState:
        """Multicast ``msgs`` to every member of the sender's view
        (including the sender — the engine receives its own SAFE
        multicasts through the loopback delivery)."""
        node = state.nodes[sender - 1]
        assert node.view is not None
        nodes = list(state.nodes)
        for m in node.view[1]:
            if m in state.down:
                continue
            nodes[m - 1] = nodes[m - 1]._replace(
                inbox=nodes[m - 1].inbox + msgs)
        return state._replace(nodes=tuple(nodes))

    # ------------------------------------------------------------------
    def _apply_retrans(self, state: GlobalState, n: int) -> GlobalState:
        """Bring ``n``'s green prefix to the plan target (big-step) —
        the real system retransmits one action at a time, with the
        green-gap assertion enforcing exactly this prefix property."""
        node = state.nodes[n - 1]
        snapshot = _round(state, node)
        assert snapshot is not None
        holder, target = _green_target(snapshot)
        self.violations.extend(green_prefix({n: node.green,
                                             holder: target}))
        return self._node_reacts(state, n, ("retrans",))

    # ------------------------------------------------------------------
    def _apply_form_view(self, state: GlobalState,
                         comp: Tuple[int, ...]) -> GlobalState:
        """Deliver the pending view to a component: transitional flush
        of every member's inbox, then the regular configuration, then
        freeze the exchange report snapshot."""
        members = tuple(n for n in comp if n not in state.down)
        epoch = state.epoch_next
        for n in members:
            if state.nodes[n - 1].inbox:
                state = self._apply_deliver(state, n)
        nodes = list(state.nodes)
        for n in members:
            node = nodes[n - 1]
            if node.state not in _REG_CONF_STATES:
                # The EVS shadow claim (EVS_SHADOWED_EDGES): a regular
                # conf can never find the engine elsewhere.
                raise ModelInternalError(
                    f"reg conf reached node {n} in {node.state}")
            node = self._react(state, n, ("reg", epoch, members))[0]
            nodes[n - 1] = node._replace(view=(epoch, members),
                                         dirty=False, inbox=())
        snapshot = tuple((n, record_report(nodes[n - 1])) for n in members)
        live_epochs = {epoch}
        reports = [(epoch, snapshot)]
        state = state._replace(nodes=tuple(nodes))
        for n in self.server_ids:
            node = nodes[n - 1]
            if n not in state.down and node.view is not None:
                live_epochs.add(node.view[0])
        for old_epoch, old_snapshot in state.reports:
            if old_epoch in live_epochs and old_epoch != epoch:
                reports.append((old_epoch, old_snapshot))
        return state._replace(reports=tuple(sorted(reports)),
                              epoch_next=epoch + 1)

    # ------------------------------------------------------------------
    def _apply_fault(self, state: GlobalState,
                     fault: Tuple) -> GlobalState:
        op = fault[0]
        if op == "partition":
            _, comp, side_a, side_b = fault
            comps = tuple(c for c in state.comps if c != comp) \
                + (tuple(sorted(side_a)), tuple(sorted(side_b)))
            state = state._replace(comps=tuple(sorted(comps)),
                                   faults=state.faults + 1)
        elif op == "merge":
            _, comp_a, comp_b = fault
            merged = tuple(sorted(set(comp_a) | set(comp_b)))
            comps = tuple(c for c in state.comps
                          if c not in (comp_a, comp_b)) + (merged,)
            state = state._replace(comps=tuple(sorted(comps)),
                                   faults=state.faults + 1)
        elif op == "crash":
            n = fault[1]
            nodes = list(state.nodes)
            node = nodes[n - 1]
            # Volatile state is lost; the persistent records (green
            # prefix, prim component, vulnerable, yellow, attempt,
            # red actions) survive — _persist_records/_recover.
            nodes[n - 1] = node._replace(
                state=_S.NON_PRIM, view=None, dirty=False, inbox=(),
                votes=frozenset(), cbuf=())
            comps = tuple(
                tuple(m for m in c if m != n)
                for c in state.comps)
            state = state._replace(
                nodes=tuple(nodes),
                comps=tuple(sorted(c for c in comps if c)),
                down=state.down | {n},
                faults=state.faults + 1, crashes=state.crashes + 1)
        elif op == "recover":
            n = fault[1]
            state = state._replace(
                comps=tuple(sorted(state.comps + ((n,),))),
                down=state.down - {n},
                faults=state.faults + 1)
        else:  # pragma: no cover - exhaustive
            raise ModelInternalError(f"unknown fault {fault}")
        return self._apply_trans_confs(state)

    def _apply_trans_confs(self, state: GlobalState) -> GlobalState:
        """After a topology change, deliver a transitional
        configuration to every live node whose component no longer
        matches its view."""
        comp_of: Dict[int, Tuple[int, ...]] = {}
        for comp in state.comps:
            for n in comp:
                comp_of[n] = comp
        nodes = list(state.nodes)
        for n in self.server_ids:
            node = nodes[n - 1]
            if n in state.down or node.view is None:
                continue
            comp = comp_of.get(n, ())
            if set(node.view[1]) == set(comp) and not node.dirty:
                continue
            moving = tuple(m for m in node.view[1] if m in comp)
            node = self._react(state, n, ("trans", moving))[0]
            nodes[n - 1] = node._replace(dirty=True)
        return state._replace(nodes=tuple(nodes))

    # ==================================================================
    # the rules of repro.core.invariants
    # ==================================================================
    def check_safety(self, state: GlobalState,
                     event_kind: Optional[str] = None) -> List[str]:
        """Evaluate the safety invariants; ``event_kind`` (the event
        that produced ``state``) skips invariants that event cannot
        have changed — a pure performance gate, invariant-preserving
        because the skipped checks held in the predecessor."""
        if event_kind == "client":
            return []  # only enqueues inbox messages
        records = dict(zip(self.server_ids, state.nodes))
        found = single_primary(records, {
            n: node.view[0] for n, node in records.items()
            if n not in state.down and node.view is not None})
        found.extend(vulnerable_net(records, state.comps,
                                    self._oracle_policy, self.server_ids))
        if event_kind != "fault":  # faults never touch green or prim
            found.extend(green_prefix({n: node.green
                                       for n, node in records.items()}))
            found.extend(unique_install(records))
        return found

    def find_wedges(self, state: GlobalState) -> List[str]:
        """Liveness check for a *quiescent* state: components that are
        stuck although the (unmutated) protocol says a primary should
        exist or an install should have completed."""
        records = dict(zip(self.server_ids, state.nodes))
        return construct_stuck(records, state.comps) + quorum_wedge(
            records, state.comps, self._oracle_policy, self.server_ids)


# ======================================================================
# helpers
# ======================================================================
def _action(tok: ActionTok) -> Action:
    return Action(action_id=ActionId(*tok))


def _restore(engine: ReplicationEngine, node: ModelNode) -> None:
    """Load a record into a freshly built engine."""
    for tok in node.green:
        engine.queue.mark_green(_action(tok))
    for tok in node.red:
        engine.queue.mark_red(_action(tok))
    engine.yellow = Yellow(VALID if node.yellow_valid else INVALID,
                           [ActionId(*tok) for tok in node.yellow])
    engine.prim_component = PrimComponent(*node.prim)
    engine.attempt_index = node.attempt
    if node.vuln is not None:
        index, attempt, members, marked = node.vuln
        engine.vulnerable = Vulnerable(VALID, index, attempt, members,
                                       {m: m in marked for m in members})
    if node.view is not None:
        epoch, members = node.view
        engine.conf = Configuration(ViewId(epoch, min(members)),
                                    frozenset(members))
    engine._cpc_received = set(node.votes)
    engine._construct_buffer = [_action(tok) for tok in node.cbuf]
    engine.state = node.state


def _round(state: GlobalState, node: ModelNode) -> Optional[Snapshot]:
    """The frozen reports of the exchange round of ``node``'s view."""
    if node.view is None:
        return None
    return dict(state.reports).get(node.view[0])


def _deliver_round(deliver: Callable[..., None], view_id: ViewId,
                   snapshot: Snapshot) -> None:
    """Deliver a round's state messages, in member order."""
    for member, report in snapshot:
        deliver(report_message(member, view_id, report), member, False,
                ServiceLevel.SAFE)


def _tokens(state: GlobalState) -> Iterator[ActionTok]:
    """Every action token anywhere in ``state``."""
    for node in state.nodes:
        yield from node.green
        yield from node.red
        yield from node.yellow
        yield from node.cbuf
        for msg in node.inbox:
            if msg[0] == "act":
                yield msg[1]


def _green_target(snapshot: Snapshot
                  ) -> Tuple[int, Tuple[ActionTok, ...]]:
    """The round's longest green prefix and its (lowest-id) holder."""
    holder, target = snapshot[0][0], snapshot[0][1][0]
    for member, report in snapshot[1:]:
        if len(report[0]) > len(target):
            holder, target = member, report[0]
    return holder, target


def canonicalize(state: GlobalState) -> GlobalState:
    """Renumber view epochs by order of first use so states that
    differ only in absolute epoch numbers collapse to one."""
    mapping: Dict[int, int] = {}
    for node in state.nodes:
        if node.view is not None and node.view[0] not in mapping:
            mapping[node.view[0]] = len(mapping)
        for msg in node.inbox:
            if msg[-1] not in mapping:
                mapping[msg[-1]] = len(mapping)
    live = {mapping[node.view[0]] for node in state.nodes
            if node.view is not None}
    identity = all(old == new for old, new in mapping.items())
    if identity and state.epoch_next == len(mapping) and all(
            epoch in mapping and mapping[epoch] in live
            for epoch, _ in state.reports):
        return state  # already canonical: skip the rebuild
    nodes = []
    for node in state.nodes:
        view = node.view
        if view is not None:
            view = (mapping[view[0]], view[1])
        inbox = tuple(msg[:-1] + (mapping[msg[-1]],)
                      for msg in node.inbox)
        nodes.append(node._replace(view=view, inbox=inbox))
    # Only keep snapshots for epochs some live view still references.
    reports = tuple(sorted(
        (mapping[epoch], snapshot)
        for epoch, snapshot in state.reports
        if epoch in mapping and mapping[epoch] in live))
    return state._replace(nodes=tuple(nodes), reports=reports,
                          epoch_next=len(mapping))
