"""The paper's safety invariants and wedge rules, written once.

Each rule is a pure function over node records (what
:func:`engine_record` reads back from an engine) plus the current live
components, and returns findings that start with the rule's name.  The
model checker (:mod:`repro.check.model`) evaluates every rule on every
state it explores; :class:`~repro.core.cluster.Cluster` evaluates the
safety rules over its real engines.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Hashable, Iterable, List, Mapping,
                    NamedTuple, Optional, Protocol, Sequence, Set, Tuple)

from ..db import ActionId
from ..gcs import ViewId
from .engine import ReplicationEngine
from .knowledge import compute_knowledge
from .messages import EngineStateMsg
from .quorum import QuorumPolicy
from .records import VALID, PrimComponent, Vulnerable
from .state_machine import EngineState

#: An action as the records carry it: (creator, per-creator index).
ActionTok = Tuple[int, int]
#: The last installed primary component: (prim_index, attempt, servers).
Prim = Tuple[int, int, Tuple[int, ...]]
#: A valid vulnerable record: (prim_index, attempt, members, members
#: whose bit is set).
Vuln = Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]
#: What a node reports in a state exchange: (green, prim, attempt,
#: vuln, yellow_valid, yellow).
Report = Tuple[Tuple[ActionTok, ...], Prim, int, Optional[Vuln], bool,
               Tuple[ActionTok, ...]]
#: Live components: disjoint tuples of node ids.
Components = Sequence[Tuple[int, ...]]

_S = EngineState


class EngineRecord(NamedTuple):
    """An engine's protocol state as hashable values."""

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


class NodeRecord(Protocol):
    """The fields the rules read: an :class:`EngineRecord`, or the
    model checker's node, which leads with the same fields."""

    @property
    def state(self) -> EngineState: ...
    @property
    def green(self) -> Tuple[ActionTok, ...]: ...
    @property
    def yellow_valid(self) -> bool: ...
    @property
    def yellow(self) -> Tuple[ActionTok, ...]: ...
    @property
    def prim(self) -> Prim: ...
    @property
    def attempt(self) -> int: ...
    @property
    def vuln(self) -> Optional[Vuln]: ...


def engine_record(engine: ReplicationEngine,
                  green: Tuple[ActionTok, ...]) -> EngineRecord:
    """Read ``engine`` back into a record.  Checkpoints truncate the
    engine's own green history, so the caller supplies the green line:
    the model its accumulated tokens, a replica its applied log."""
    def toks(ids: Iterable[ActionId]) -> Tuple[ActionTok, ...]:
        return tuple((i.server_id, i.index) for i in ids)

    prim, vuln = engine.prim_component, engine.vulnerable
    return EngineRecord(
        engine.state,
        green,
        toks(a.action_id for a in engine.queue.red_actions()),
        engine.yellow.is_valid,
        toks(engine.yellow.set),
        (prim.prim_index, prim.attempt_index, tuple(prim.servers)),
        engine.attempt_index,
        (vuln.prim_index, vuln.attempt_index, tuple(vuln.set),
         tuple(sorted(m for m, b in vuln.bits.items() if b)))
        if vuln.is_valid else None,
        frozenset(engine._cpc_received),
        toks(a.action_id for a in engine._construct_buffer))


def record_report(record: NodeRecord) -> Report:
    """What ``record``'s node reports in a state exchange."""
    return (record.green, record.prim, record.attempt, record.vuln,
            record.yellow_valid, record.yellow)


def report_message(member: int, conf_id: ViewId,
                   report: Report) -> EngineStateMsg:
    """``report`` as the state message ``member`` multicasts, with
    empty red cuts."""
    green, prim, attempt, vuln, yellow_valid, yellow = report
    vulnerable = Vulnerable()
    if vuln is not None:
        vulnerable = Vulnerable(VALID, vuln[0], vuln[1], vuln[2],
                                {m: (m in vuln[3]) for m in vuln[2]})
    return EngineStateMsg(
        server_id=member, conf_id=conf_id, green_count=len(green),
        red_cut={}, green_lines={}, attempt_index=attempt,
        prim_component=PrimComponent(prim[0], prim[1], prim[2]),
        vulnerable=vulnerable, yellow_valid=yellow_valid,
        yellow_ids=tuple(ActionId(*tok) for tok in yellow))


# ======================================================================
# safety
# ======================================================================
def single_primary(records: Mapping[int, NodeRecord],
                   views: Mapping[int, Hashable]) -> List[str]:
    """Every live RegPrim node is in one view; ``views`` maps each live
    node that has a view to it."""
    epochs = {n: view for n, view in views.items()
              if records[n].state is _S.REG_PRIM}
    if len(set(epochs.values())) > 1:
        return [f"single-primary: RegPrim in different views {epochs}"]
    return []


def green_prefix(greens: Mapping[int, Sequence[Hashable]]) -> List[str]:
    """Global Total Order (Theorem 1): any two green lines agree on
    their common prefix."""
    found = []
    lines = list(greens.items())
    for i, (a, ga) in enumerate(lines):
        for b, gb in lines[i + 1:]:
            common = min(len(ga), len(gb))
            if ga[:common] != gb[:common]:
                k = next(k for k in range(common) if ga[k] != gb[k])
                found.append(f"green-prefix: nodes {a} and {b} diverge "
                             f"at position {k}: {ga[k]} vs {gb[k]}")
    return found


def unique_install(records: Mapping[int, NodeRecord]) -> List[str]:
    """A primary index is installed with one attempt and server set."""
    by_index: Dict[int, Set[Tuple[int, Tuple[int, ...]]]] = {}
    for record in records.values():
        prim = record.prim
        if prim[0] > 0:
            by_index.setdefault(prim[0], set()).add((prim[1], prim[2]))
    return [f"unique-install: prim index {idx} installed as "
            f"{sorted(variants)}"
            for idx, variants in by_index.items()
            if len(variants) > 1]


def vulnerable_net(records: Mapping[int, NodeRecord], comps: Components,
                   policy: QuorumPolicy,
                   servers: Sequence[int]) -> List[str]:
    """Section 4's vulnerable record, operationally: for the latest
    install (idx, att), a component holding a quorum of primary
    idx - 1 holds the install or a member still vulnerable to it —
    otherwise it could install a divergent primary."""
    installs = [r.prim[:2] for r in records.values() if r.prim[0] > 0]
    if not installs:
        return []
    idx, att = max(installs)
    last_prim = next((r.prim[2] for r in records.values()
                      if r.prim[0] == idx - 1), None)
    if last_prim is None:
        if idx > 1:
            return []  # the previous installation is fully superseded
        last_prim = ()
    guards = {n for n, r in records.items()
              if r.prim[:2] >= (idx, att)
              or (r.vuln is not None and r.vuln[:2] == (idx - 1, att))}
    return [f"vulnerable-net: component {members} holds a quorum of "
            f"prim {idx - 1} ({last_prim}) with no holder of, or "
            f"vulnerability to, install ({idx}, {att})"
            for members in comps
            if guards.isdisjoint(members)
            and policy.is_quorum(members, last_prim, servers)]


# ======================================================================
# liveness, on a quiescent state
# ======================================================================
def construct_stuck(records: Mapping[int, NodeRecord],
                    comps: Components) -> List[str]:
    """No member sits in Construct once its votes can no longer
    arrive."""
    return [f"construct-stuck: component {members} quiescent with a "
            f"member in Construct (votes can no longer arrive)"
            for members in comps
            if any(records[n].state is _S.CONSTRUCT for n in members)]


def quorum_wedge(records: Mapping[int, NodeRecord], comps: Components,
                 policy: QuorumPolicy, servers: Sequence[int]) -> List[str]:
    """No settled non-primary component holds a quorum of the last
    primary that no vulnerable member vetoes."""
    found = []
    for members in comps:
        if any(records[n].state not in (_S.NON_PRIM, _S.UN)
               for n in members):
            continue
        knowledge = compute_knowledge({
            n: report_message(n, ViewId(0, 0), record_report(records[n]))
            for n in members})
        last_prim = tuple(knowledge.prim_component.servers)
        if not knowledge.any_vulnerable() \
                and policy.is_quorum(members, last_prim, servers):
            found.append(
                f"quorum-wedge: component {members} is quiescent and "
                f"non-primary, but holds an unvetoed quorum of prim "
                f"{last_prim}")
    return found
