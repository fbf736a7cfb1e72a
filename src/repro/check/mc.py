"""Explicit-state model checker over N real replication engines.

Breadth-first exploration with canonical-state deduplication.  BFS
order makes every reported counterexample *minimal*: the trace to a
violating state is a shortest event sequence reaching it.

Checked per reachable state, by the rules of
:mod:`repro.core.invariants` (the ones every cluster evaluates over
its real engines):

* safety — ``single-primary``, ``green-prefix``, ``unique-install`` and
  ``vulnerable-net``, through :meth:`Model.check_safety` after every
  event;
* liveness — on *quiescent* states (no delivery, exchange, or
  view-formation event enabled), the wedge rules ``construct-stuck``
  and ``quorum-wedge``, through :meth:`Model.find_wedges`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from .model import (EdgeUse, Event, GlobalState, Model, ModelConfig,
                    canonicalize)
from .mutations import mutation


@dataclass
class Violation:
    """One invariant violation with its minimal counterexample."""

    kind: str              # "safety" or "wedge"
    rule: str              # e.g. "green-prefix", "construct-stuck"
    message: str
    trace: List[str]       # event descriptions from the initial state
    depth: int
    state_summary: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "rule": self.rule,
                "message": self.message, "depth": self.depth,
                "trace": self.trace,
                "state": self.state_summary}

    def format(self) -> str:
        lines = [f"[{self.kind}:{self.rule}] {self.message}",
                 f"  counterexample ({self.depth} events):"]
        lines.extend(f"    {i + 1}. {step}"
                     for i, step in enumerate(self.trace))
        states = self.state_summary.get("states")
        if states:
            lines.append(f"  final states: {states}")
        return "\n".join(lines)


@dataclass
class McResult:
    """Outcome of one bounded-depth exploration."""

    config: ModelConfig
    states: int = 0
    transitions: int = 0
    depth_reached: int = 0
    quiescent_states: int = 0
    #: True when every state within the depth bound was explored —
    #: i.e. neither the ``max_states`` budget nor the violation cap
    #: cut the search short (the depth bound itself is the contract,
    #: not a truncation).
    complete: bool = False
    violations: List[Violation] = field(default_factory=list)
    edges_seen: Set[EdgeUse] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": asdict(self.config),
            "states": self.states,
            "transitions": self.transitions,
            "depth_reached": self.depth_reached,
            "quiescent_states": self.quiescent_states,
            "complete": self.complete,
            "violations": [v.to_dict() for v in self.violations],
            "edges_seen": sorted(
                [str(i), str(a), str(b)] for i, a, b in self.edges_seen),
        }


def _summarize(model: Model, state: GlobalState) -> Dict[str, Any]:
    return {
        "states": {n: str(state.nodes[n - 1].state)
                   for n in model.server_ids if n not in state.down},
        "components": [list(c) for c in state.comps],
        "down": sorted(state.down),
        "greens": {n: [list(t) for t in state.nodes[n - 1].green]
                   for n in model.server_ids
                   if state.nodes[n - 1].green},
    }


class ModelChecker:
    """Bounded-depth BFS over the global model."""

    def __init__(self, config: Optional[ModelConfig] = None,
                 max_depth: int = 12,
                 max_states: int = 2_000_000,
                 max_violations: int = 25) -> None:
        self.config = config or ModelConfig()
        self.max_depth = max_depth
        self.max_states = max_states
        self.max_violations = max_violations
        self.model = Model(self.config)

    # ------------------------------------------------------------------
    def run(self) -> McResult:
        model = self.model
        result = McResult(config=self.config)
        initial = canonicalize(model.initial_state())
        parent: Dict[GlobalState,
                     Optional[Tuple[GlobalState, Event]]] = {
            initial: None}
        depth_of: Dict[GlobalState, int] = {initial: 0}
        queue: deque = deque([initial])
        seen_rules: Set[Tuple[str, str]] = set()
        truncated = False

        while queue:
            state = queue.popleft()
            depth = depth_of[state]
            result.states += 1
            result.depth_reached = max(result.depth_reached, depth)

            events = model.enabled_events(state)
            if not any(e.kind in ("deliver", "ds", "retrans",
                                  "form_view") for e in events):
                result.quiescent_states += 1
                for finding in model.find_wedges(state):
                    self._record(result, "wedge", finding, state,
                                 parent, depth_of, model, seen_rules)
            if len(result.violations) >= self.max_violations:
                truncated = True
                break
            if depth >= self.max_depth:
                continue
            for event in events:
                successor = model.apply_event(state, event)
                result.transitions += 1
                fresh = successor not in depth_of
                if fresh:
                    depth_of[successor] = depth + 1
                    parent[successor] = (state, event)
                    if len(depth_of) <= self.max_states:
                        queue.append(successor)
                    else:
                        truncated = True
                for finding in model.violations:
                    self._record(result, "safety", finding, successor,
                                 parent, depth_of, model, seen_rules)

        result.edges_seen = set(model.edges_seen)
        result.complete = not truncated
        return result

    def run_mutated(self, name: Optional[str]) -> McResult:
        """:meth:`run` with the named mutant in the engine (none when
        ``name`` is empty)."""
        if not name:
            return self.run()
        with mutation(name, self.model):
            return self.run()

    # ------------------------------------------------------------------
    def _record(self, result: McResult, kind: str, finding: str,
                state: GlobalState, parent: Dict, depth_of: Dict,
                model: Model, seen_rules: Set[Tuple[str, str]]) -> None:
        rule, _, message = finding.partition(":")
        key = (kind, rule)
        if key in seen_rules:
            return  # one minimal counterexample per rule is enough
        seen_rules.add(key)
        result.violations.append(Violation(
            kind=kind, rule=rule.strip(), message=message.strip(),
            trace=self._trace(state, parent),
            depth=depth_of.get(state, 0),
            state_summary=_summarize(model, state)))

    @staticmethod
    def _trace(state: GlobalState, parent: Dict) -> List[str]:
        steps: List[str] = []
        cursor: Optional[GlobalState] = state
        while cursor is not None and parent.get(cursor) is not None:
            prev, event = parent[cursor]
            steps.append(event.describe())
            cursor = prev
        steps.reverse()
        return steps


def run_check(nodes: int = 4, depth: int = 12,
              mutate: Optional[str] = None,
              max_faults: int = 2, max_crashes: int = 1,
              max_actions: int = 1,
              quorum: str = "dynamic-linear",
              max_states: int = 2_000_000) -> McResult:
    """One-call front door used by the tests; ``mutate`` names a
    :data:`~repro.check.mutations.MUTATIONS` entry to run against."""
    config = ModelConfig(nodes=nodes, max_faults=max_faults,
                         max_crashes=max_crashes,
                         max_actions=max_actions, quorum=quorum)
    checker = ModelChecker(config, max_depth=depth,
                           max_states=max_states)
    return checker.run_mutated(mutate)
