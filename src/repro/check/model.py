"""Abstract N-engine model of the Figure-4 machine for model checking.

The model is a *small-step abstraction* of the real replication engine
(`core/engine.py`): each server is reduced to the records the paper's
correctness argument actually mentions — the Figure-4 state, the green
prefix, the yellow record, the last installed primary component, the
attempt counter, and the vulnerable record — plus a per-node inbox of
undelivered SAFE multicasts.  Global state adds the network topology
(a partition of the live nodes), crash status, and the frozen report
snapshot of each view's state exchange.

Fidelity comes from *sharing, not duplication*:

* every state transition goes through :meth:`Model._step`, which
  calls :func:`repro.core.state_machine.check_transition` exactly as
  the engine's ``_set_state`` does — the model cannot take an edge
  Figure 4 does not declare for the input that caused it;
* the exchange computation is the real one — the model builds
  :class:`~repro.core.messages.EngineStateMsg` reports and calls
  :func:`repro.core.knowledge.compute_knowledge` /
  :func:`~repro.core.knowledge.plan_retransmission` directly;
* quorum decisions delegate to the real
  :class:`~repro.core.quorum.QuorumPolicy` implementations.

Abstractions (deliberate, documented):

* Message delivery is *big-step*: one ``deliver`` event drains a
  node's whole inbox in FIFO order.  Interleavings of deliveries with
  faults across nodes are preserved (they are separate events); partial
  drains of a single inbox are not.
* Green retransmission is big-step too: one ``retrans`` event brings a
  lagging member to the plan's green target (after checking the prefix
  property that the real incremental retransmission enforces).
* Extended virtual synchrony is modelled structurally: faults apply
  the transitional configuration immediately, and ``form_view`` first
  drains every member's inbox (the transitional delivery flush) before
  delivering the regular configuration.  Delivery *before* the fault is
  the separate branch where ``deliver`` fires first.

The two known liveness wedges are re-introducible via
:class:`ModelConfig` flags (``tie_breaker`` and ``buffer_early_cpc``)
so the checker can prove it would have caught them (the mutation
self-test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

from ..core.knowledge import Knowledge, compute_knowledge
from ..core.messages import EngineStateMsg
from ..core.quorum import DynamicLinearVoting, QuorumPolicy, StaticMajority
from ..core.records import PrimComponent, Vulnerable
from ..core.state_machine import EngineInput, EngineState, check_transition

_S = EngineState
_I = EngineInput

#: A model action token: (creator node, sequence number).
ActionTok = Tuple[int, int]

#: A recorded Figure-4 edge: (input kind, old state, new state).
EdgeUse = Tuple[EngineInput, EngineState, EngineState]

# Inbox message shapes (plain tuples so states stay hashable):
#   ("cpc", sender, epoch)          a create-primary-component vote
#   ("act", (creator, seq), epoch)  an action multicast
Msg = Tuple


class ModelInternalError(Exception):
    """The model violated one of its own structural assumptions, such
    as the EVS shadow claim (reg conf reaching Construct or
    ExchangeActions).  An undeclared Figure-4 edge raises
    :class:`~repro.core.state_machine.IllegalTransition` instead, as
    it does in the engine."""


class ModelNode(NamedTuple):
    """One server's abstract state (hashable)."""

    state: EngineState
    green: Tuple[ActionTok, ...]
    red: Tuple[ActionTok, ...]
    yellow_valid: bool
    yellow: Tuple[ActionTok, ...]
    prim: Tuple[int, int, Tuple[int, ...]]  # (prim_index, attempt, servers)
    attempt: int
    # (prim_index, attempt_index, members, true-bit members) or None
    vuln: Optional[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]]
    view: Optional[Tuple[int, Tuple[int, ...]]]  # (epoch, members)
    dirty: bool          # a trans conf arrived since the last reg conf
    inbox: Tuple[Msg, ...]
    votes: FrozenSet[int]
    cbuf: Tuple[ActionTok, ...]  # actions buffered while in Construct


#: member -> frozen exchange report: (green, prim, attempt, vuln,
#: yellow_valid, yellow); captured when the view forms.
Report = Tuple[Tuple[ActionTok, ...],
               Tuple[int, int, Tuple[int, ...]],
               int,
               Optional[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]],
               bool,
               Tuple[ActionTok, ...]]


class GlobalState(NamedTuple):
    """The full abstract system state (hashable, canonical)."""

    nodes: Tuple[ModelNode, ...]           # indexed by node id order
    comps: Tuple[Tuple[int, ...], ...]     # partition of the live nodes
    down: FrozenSet[int]
    # ((epoch, ((member, report), ...)), ...) — exchange snapshots
    reports: Tuple[Tuple[int, Tuple[Tuple[int, Report], ...]], ...]
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
    """Shape and mutation switches of the abstract model."""

    nodes: int = 4
    max_faults: int = 2       # partition/merge/crash/recover budget
    max_crashes: int = 1
    max_actions: int = 1      # client submissions budget
    quorum: str = "dynamic-linear"   # or "static-majority"
    # Mutation switches — True is the shipped (fixed) behaviour:
    tie_breaker: bool = True        # PR 1: exact-half distinguished member
    buffer_early_cpc: bool = True   # PR 4: keep votes arriving in ES/EA

    def policy(self) -> QuorumPolicy:
        if self.quorum == "static-majority":
            return StaticMajority()
        return DynamicLinearVoting()


class Model:
    """Event semantics of the abstract system.

    Stateless between calls: every method takes and returns immutable
    :class:`GlobalState` values, so the checker can memoize freely.
    Exercised Figure-4 edges are accumulated in :attr:`edges_seen`.
    """

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.server_ids: Tuple[int, ...] = tuple(
            range(1, config.nodes + 1))
        self._policy = config.policy()
        # The unmutated reference policy used by the liveness oracle.
        self._oracle_policy = ModelConfig(quorum=config.quorum).policy()
        self.edges_seen: Set[EdgeUse] = set()
        #: safety violations found while applying events, cleared and
        #: collected by the checker after each apply
        self.violations: List[str] = []

    # ==================================================================
    # construction
    # ==================================================================
    def initial_state(self) -> GlobalState:
        node = ModelNode(
            state=_S.NON_PRIM, green=(), red=(), yellow_valid=False,
            yellow=(), prim=(0, 0, self.server_ids), attempt=0,
            vuln=None, view=None, dirty=False, inbox=(),
            votes=frozenset(), cbuf=())
        return GlobalState(
            nodes=tuple(node for _ in self.server_ids),
            comps=(self.server_ids,),
            down=frozenset(), reports=(), epoch_next=0,
            faults=0, crashes=0, actions=0)

    # ==================================================================
    # transition helper: ALL state changes go through here
    # ==================================================================
    def _step(self, old: EngineState, new: EngineState,
              input_kind: EngineInput) -> EngineState:
        """Check a transition with :func:`check_transition` and record
        the exercised edge.  Raising here means the *model* tried a
        move Figure 4 does not declare — a model bug, not a protocol
        finding."""
        if old is not new:
            check_transition(input_kind, old, new)
            self.edges_seen.add((input_kind, old, new))
        return new

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
        assert node.view is not None
        snapshot = self._snapshot_for(state, node.view[0])
        if snapshot is None:
            return False
        # With no red tails in the model, retransmission_complete
        # reduces to reaching the longest green prefix of the round.
        target = max(len(report[0]) for _member, report in snapshot)
        return len(node.green) < target

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
            new = self._apply_ds(state, event.arg[0])
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
        node = state.nodes[n - 1]
        assert node.view is not None
        tok: ActionTok = (n, state.actions + 1)
        epoch, members = node.view
        msg: Msg = ("act", tok, epoch)
        nodes = list(state.nodes)
        for m in members:
            if m in state.down:
                continue
            nodes[m - 1] = nodes[m - 1]._replace(
                inbox=nodes[m - 1].inbox + (msg,))
        return state._replace(nodes=tuple(nodes),
                              actions=state.actions + 1)

    # ------------------------------------------------------------------
    def _apply_deliver(self, state: GlobalState, n: int) -> GlobalState:
        nodes = list(state.nodes)
        node = nodes[n - 1]
        inbox, node = node.inbox, node._replace(inbox=())
        for msg in inbox:
            node, sends = self._deliver_one(node, n, msg)
            nodes[n - 1] = node
            if sends:
                state = state._replace(nodes=tuple(nodes))
                state = self._broadcast(state, n, sends)
                nodes = list(state.nodes)
                node = nodes[n - 1]
        nodes[n - 1] = node
        return state._replace(nodes=tuple(nodes))

    def _broadcast(self, state: GlobalState, sender: int,
                   msgs: List[Msg]) -> GlobalState:
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
                inbox=nodes[m - 1].inbox + tuple(msgs))
        return state._replace(nodes=tuple(nodes))

    def _deliver_one(self, node: ModelNode, n: int,
                     msg: Msg) -> Tuple[ModelNode, List[Msg]]:
        """Port of ``_on_gcs_message`` for one inbox message."""
        if node.view is None or msg[-1] != node.view[0]:
            return node, []  # stale epoch: flushed view, drop
        if msg[0] == "cpc":
            return self._deliver_cpc(node, n, msg[1])
        return self._deliver_action(node, n, msg[1]), []

    def _deliver_cpc(self, node: ModelNode, n: int,
                     sender: int) -> Tuple[ModelNode, List[Msg]]:
        """Port of ``_on_cpc``."""
        state = node.state
        if state in (_S.EXCHANGE_STATES, _S.EXCHANGE_ACTIONS):
            if self.config.buffer_early_cpc:
                node = node._replace(votes=node.votes | {sender})
            # else: the pre-PR-4 bug — the early vote is dropped
            return node, []
        if state is _S.CONSTRUCT:
            node = node._replace(votes=node.votes | {sender})
            assert node.view is not None
            if node.votes == frozenset(node.view[1]):
                node = self._install(node, _I.CPC_MSG)
                buffered, node = node.cbuf, node._replace(cbuf=())
                for tok in buffered:
                    node = node._replace(
                        green=_append(node.green, tok))
                node = node._replace(state=self._step(
                    node.state, _S.REG_PRIM, _I.CPC_MSG))
            return node, []
        if state is _S.NO:
            node = node._replace(votes=node.votes | {sender})
            assert node.view is not None
            if node.votes == frozenset(node.view[1]):
                node = node._replace(state=self._step(
                    node.state, _S.UN, _I.CPC_MSG))
            return node, []
        return node, []  # stale vote from a superseded attempt

    def _deliver_action(self, node: ModelNode, n: int,
                        tok: ActionTok) -> ModelNode:
        """Port of ``_on_action``."""
        state = node.state
        if state is _S.REG_PRIM:
            return node._replace(green=_append(node.green, tok))
        if state is _S.TRANS_PRIM:
            return node._replace(yellow=_append(node.yellow, tok),
                                 red=_append(node.red, tok))
        if state in (_S.NON_PRIM, _S.EXCHANGE_STATES):
            return node._replace(red=_append(node.red, tok))
        if state is _S.UN:
            # Transition 1b: an action proves somebody installed.
            node = self._install(node, _I.ACTION)
            node = node._replace(yellow=_append(node.yellow, tok),
                                 red=_append(node.red, tok))
            return node._replace(state=self._step(
                node.state, _S.TRANS_PRIM, _I.ACTION))
        if state is _S.CONSTRUCT:
            return node._replace(cbuf=node.cbuf + (tok,))
        return node  # unexpected_action: dropped

    # ------------------------------------------------------------------
    def _install(self, node: ModelNode,
                 input_kind: EngineInput) -> ModelNode:
        """Port of ``_install`` (A.10)."""
        green = node.green
        if node.yellow_valid:
            for tok in node.yellow:
                green = _append(green, tok)
        assert node.vuln is not None
        prim = (node.prim[0] + 1, node.attempt, node.vuln[2])
        for tok in sorted(node.red):
            green = _append(green, tok)
        return node._replace(green=green, red=(), yellow=(),
                             yellow_valid=False, prim=prim, attempt=0)

    # ------------------------------------------------------------------
    def _apply_ds(self, state: GlobalState, n: int) -> GlobalState:
        """Deliver the full round of state messages to ``n`` — port of
        ``_all_states_delivered`` (+ local completion check)."""
        node = state.nodes[n - 1]
        assert node.view is not None
        snapshot = self._snapshot_for(state, node.view[0])
        assert snapshot is not None
        knowledge = self._knowledge(snapshot)
        node = node._replace(
            yellow_valid=knowledge.yellow.is_valid,
            yellow=tuple(knowledge.yellow.set),
            state=self._step(node.state, _S.EXCHANGE_ACTIONS,
                             _I.STATE_MSG))
        nodes = list(state.nodes)
        nodes[n - 1] = node
        state = state._replace(nodes=tuple(nodes))
        target = max(len(report[0]) for _member, report in snapshot)
        if len(node.green) >= target:
            state = self._end_of_retrans(state, n, knowledge,
                                         _I.STATE_MSG)
        return state

    def _apply_retrans(self, state: GlobalState, n: int) -> GlobalState:
        """Bring ``n``'s green prefix to the plan target (big-step) —
        the real system retransmits one action at a time, with the
        green-gap assertion enforcing exactly this prefix property."""
        node = state.nodes[n - 1]
        assert node.view is not None
        snapshot = self._snapshot_for(state, node.view[0])
        assert snapshot is not None
        target_green: Tuple[ActionTok, ...] = ()
        for _member, report in snapshot:
            if len(report[0]) > len(target_green):
                target_green = report[0]
        if node.green != target_green[:len(node.green)]:
            self.violations.append(
                f"green-prefix: node {n} green {node.green} diverges "
                f"from retransmitted prefix {target_green}")
        merged = target_green
        node = node._replace(
            green=merged,
            red=tuple(t for t in node.red if t not in merged))
        nodes = list(state.nodes)
        nodes[n - 1] = node
        state = state._replace(nodes=tuple(nodes))
        knowledge = self._knowledge(snapshot)
        return self._end_of_retrans(state, n, knowledge, _I.ACTION)

    def _end_of_retrans(self, state: GlobalState, n: int,
                        knowledge: Knowledge,
                        input_kind: EngineInput) -> GlobalState:
        """Port of ``_end_of_retrans`` (A.5) + IsQuorum (A.8)."""
        node = state.nodes[n - 1]
        assert node.view is not None
        kp = knowledge.prim_component
        node = node._replace(
            prim=(kp.prim_index, kp.attempt_index, tuple(kp.servers)),
            attempt=knowledge.attempt_index)
        if node.vuln is not None:
            resolved = knowledge.vulnerable_resolution.get(n)
            if resolved is not None:
                valid, bits = resolved
                if not valid:
                    node = node._replace(vuln=None)
                else:
                    node = node._replace(vuln=(
                        node.vuln[0], node.vuln[1], node.vuln[2],
                        tuple(sorted(m for m, b in bits.items() if b))))
        epoch, members = node.view
        sends: List[Msg] = []
        if not knowledge.any_vulnerable() and self._is_quorum(
                members, node.prim[2]):
            attempt = node.attempt + 1
            node = node._replace(
                attempt=attempt,
                vuln=(node.prim[0], attempt, tuple(sorted(members)),
                      (n,)),
                state=self._step(node.state, _S.CONSTRUCT, input_kind))
            sends.append(("cpc", n, epoch))
        else:
            node = node._replace(state=self._step(
                node.state, _S.NON_PRIM, input_kind))
        nodes = list(state.nodes)
        nodes[n - 1] = node
        state = state._replace(nodes=tuple(nodes))
        if sends:
            state = self._broadcast(state, n, sends)
        return state

    def _is_quorum(self, members: Tuple[int, ...],
                   last_prim: Tuple[int, ...]) -> bool:
        """Delegates to the real policy; the ``tie_breaker`` mutation
        re-introduces the pre-PR-1 behaviour where an exact half never
        suffices (no distinguished member)."""
        ok = self._policy.is_quorum(members, last_prim, self.server_ids)
        if ok and not self.config.tie_breaker:
            prim = set(last_prim) or set(self.server_ids)
            present = sum(1 for s in prim if s in set(members))
            if present * 2 == len(prim):
                return False
        return ok

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
            if node.state not in (_S.NON_PRIM, _S.TRANS_PRIM,
                                  _S.NO, _S.UN):
                # The EVS shadow claim (EVS_SHADOWED_EDGES): a regular
                # conf can never find the engine elsewhere.
                raise ModelInternalError(
                    f"reg conf reached node {n} in {node.state}")
            if node.state is _S.TRANS_PRIM:
                node = node._replace(vuln=None, yellow_valid=True)
            elif node.state is _S.NO:
                node = node._replace(vuln=None)
            # Un: stays vulnerable (the '?' transition); NonPrim: no-op
            node = node._replace(
                view=(epoch, members), dirty=False,
                votes=frozenset(), cbuf=(), inbox=(),
                state=self._step(node.state, _S.EXCHANGE_STATES,
                                 _I.REG_CONF))
            nodes[n - 1] = node
        snapshot = tuple(
            (n, (nodes[n - 1].green, nodes[n - 1].prim,
                 nodes[n - 1].attempt, nodes[n - 1].vuln,
                 nodes[n - 1].yellow_valid, nodes[n - 1].yellow))
            for n in members)
        live_epochs = {epoch}
        reports = [(epoch, snapshot)]
        state = state._replace(nodes=tuple(nodes))
        for n in self.server_ids:
            node = state.nodes[n - 1]
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
        matches its view — port of ``_on_trans_conf``."""
        comp_of: Dict[int, Tuple[int, ...]] = {}
        for comp in state.comps:
            for n in comp:
                comp_of[n] = comp
        nodes = list(state.nodes)
        for n in self.server_ids:
            if n in state.down:
                continue
            node = nodes[n - 1]
            if node.view is None:
                continue
            if set(node.view[1]) == set(comp_of.get(n, ())) \
                    and not node.dirty:
                continue
            s = node.state
            if s is _S.REG_PRIM:
                s = self._step(s, _S.TRANS_PRIM, _I.TRANS_CONF)
            elif s in (_S.EXCHANGE_STATES, _S.EXCHANGE_ACTIONS):
                s = self._step(s, _S.NON_PRIM, _I.TRANS_CONF)
            elif s is _S.CONSTRUCT:
                s = self._step(s, _S.NO, _I.TRANS_CONF)
            nodes[n - 1] = node._replace(state=s, dirty=True)
        return state._replace(nodes=tuple(nodes))

    # ==================================================================
    # knowledge plumbing: the model reuses the real computation
    # ==================================================================
    def _snapshot_for(self, state: GlobalState, epoch: int
                      ) -> Optional[Tuple[Tuple[int, Report], ...]]:
        for e, snapshot in state.reports:
            if e == epoch:
                return snapshot
        return None

    def _reports(self, snapshot: Tuple[Tuple[int, Report], ...]
                 ) -> Dict[int, EngineStateMsg]:
        reports: Dict[int, EngineStateMsg] = {}
        for member, (green, prim, attempt, vuln, yv, yellow) in snapshot:
            vulnerable = Vulnerable()
            if vuln is not None:
                vulnerable.make_valid(vuln[0], vuln[1], vuln[2], -1)
                vulnerable.bits = {m: (m in vuln[3]) for m in vuln[2]}
            reports[member] = EngineStateMsg(
                server_id=member, conf_id=0,
                green_count=len(green), red_cut={}, green_lines={},
                attempt_index=attempt,
                prim_component=PrimComponent(prim[0], prim[1], prim[2]),
                vulnerable=vulnerable, yellow_valid=yv,
                yellow_ids=tuple(yellow))
        return reports

    def _knowledge(self, snapshot: Tuple[Tuple[int, Report], ...]
                   ) -> Knowledge:
        return compute_knowledge(self._reports(snapshot))

    # ==================================================================
    # safety invariants
    # ==================================================================
    def check_safety(self, state: GlobalState,
                     event_kind: Optional[str] = None) -> List[str]:
        """Evaluate the safety invariants; ``event_kind`` (the event
        that produced ``state``) skips invariants that event cannot
        have changed — a pure performance gate, invariant-preserving
        because the skipped checks held in the predecessor."""
        if event_kind == "client":
            return []  # only enqueues inbox messages
        found: List[str] = []
        found.extend(self._check_single_primary(state))
        found.extend(self._check_vulnerable_net(state))
        if event_kind != "fault":  # faults never touch green or prim
            found.extend(self._check_green_prefixes(state))
            found.extend(self._check_unique_installs(state))
        return found

    def _check_single_primary(self, state: GlobalState) -> List[str]:
        epochs = {}
        for n in self.server_ids:
            node = state.nodes[n - 1]
            if n not in state.down and node.state is _S.REG_PRIM:
                assert node.view is not None
                epochs[n] = node.view[0]
        if len(set(epochs.values())) > 1:
            return [f"single-primary: RegPrim in different views "
                    f"{epochs}"]
        return []

    def _check_green_prefixes(self, state: GlobalState) -> List[str]:
        found = []
        greens = [(n, state.nodes[n - 1].green)
                  for n in self.server_ids]
        for i in range(len(greens)):
            for j in range(i + 1, len(greens)):
                (a, ga), (b, gb) = greens[i], greens[j]
                common = min(len(ga), len(gb))
                if ga[:common] != gb[:common]:
                    found.append(
                        f"green-prefix: nodes {a} and {b} diverge: "
                        f"{ga} vs {gb}")
        return found

    def _check_unique_installs(self, state: GlobalState) -> List[str]:
        by_index: Dict[int, Set[Tuple]] = {}
        for n in self.server_ids:
            prim = state.nodes[n - 1].prim
            if prim[0] > 0:
                by_index.setdefault(prim[0], set()).add(
                    (prim[1], prim[2]))
        return [f"unique-install: prim index {idx} installed as "
                f"{sorted(variants)}"
                for idx, variants in by_index.items()
                if len(variants) > 1]

    def _check_vulnerable_net(self, state: GlobalState) -> List[str]:
        """Vulnerable-record correctness, operationally: for the
        maximal installed primary P, any component holding a quorum of
        the *previous* primary's members must contain a holder of P or
        a member still vulnerable to the attempt that installed it —
        otherwise that component could install a divergent primary."""
        best: Optional[Tuple[int, int, Tuple[int, ...]]] = None
        for n in self.server_ids:
            prim = state.nodes[n - 1].prim
            if prim[0] > 0 and (best is None
                                or (prim[0], prim[1]) > best[:2]):
                best = prim
        if best is None:
            return []
        idx, att, _servers = best
        prev_servers: Optional[Tuple[int, ...]] = None
        for n in self.server_ids:
            prim = state.nodes[n - 1].prim
            if prim[0] == idx - 1:
                prev_servers = prim[2]
                break
        if prev_servers is None and idx > 1:
            return []  # the previous installation is fully superseded
        last_prim = prev_servers or ()
        found = []
        for comp in state.comps:
            members = tuple(n for n in comp if n not in state.down)
            if not members:
                continue
            if not self._oracle_policy.is_quorum(
                    members, last_prim, self.server_ids):
                continue
            guarded = False
            for n in members:
                node = state.nodes[n - 1]
                if (node.prim[0], node.prim[1]) >= (idx, att):
                    guarded = True
                elif node.vuln is not None \
                        and node.vuln[0] == idx - 1 \
                        and node.vuln[1] == att:
                    guarded = True
            if not guarded:
                found.append(
                    f"vulnerable-net: component {members} holds a "
                    f"quorum of prim {idx - 1} ({last_prim}) with no "
                    f"holder of, or vulnerability to, install "
                    f"({idx}, {att})")
        return found

    # ==================================================================
    # liveness: quiescence + the wedge oracle
    # ==================================================================
    def quiescent(self, state: GlobalState) -> bool:
        """No delivery, exchange, or view-formation event enabled —
        the system will never move again without a fault or a client."""
        return not any(e.kind in ("deliver", "ds", "retrans",
                                  "form_view")
                       for e in self.enabled_events(state))

    def find_wedges(self, state: GlobalState) -> List[str]:
        """Liveness check for a *quiescent* state: components that are
        stuck although the (unmutated) protocol says a primary should
        exist or an install should have completed."""
        found = []
        for comp in state.comps:
            members = tuple(n for n in comp if n not in state.down)
            if not members:
                continue
            states = {state.nodes[n - 1].state for n in members}
            if _S.CONSTRUCT in states:
                found.append(
                    f"construct-stuck: component {members} quiescent "
                    f"with a member in Construct (votes can no longer "
                    f"arrive)")
                continue
            if states <= {_S.NON_PRIM, _S.UN}:
                snapshot = tuple(
                    (n, (state.nodes[n - 1].green,
                         state.nodes[n - 1].prim,
                         state.nodes[n - 1].attempt,
                         state.nodes[n - 1].vuln,
                         state.nodes[n - 1].yellow_valid,
                         state.nodes[n - 1].yellow))
                    for n in members)
                knowledge = self._knowledge(snapshot)
                kp = knowledge.prim_component
                last_prim = tuple(kp.servers)
                if not knowledge.any_vulnerable() \
                        and self._oracle_policy.is_quorum(
                            members, last_prim, self.server_ids):
                    found.append(
                        f"quorum-wedge: component {members} is "
                        f"quiescent and non-primary, but holds an "
                        f"unvetoed quorum of prim {last_prim}")
        return found


def _append(seq: Tuple[ActionTok, ...],
            tok: ActionTok) -> Tuple[ActionTok, ...]:
    return seq if tok in seq else seq + (tok,)


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
