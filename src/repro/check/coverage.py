"""Figure-4 edge coverage of the model-checking portfolio.

Answers: does the checker actually *exercise* every declared edge of
``EDGES_BY_INPUT``?  An edge no exploration ever takes is an edge the
checker silently fails to check — this report pins the uncovered count
at zero (minus :data:`~repro.core.state_machine.EVS_SHADOWED_EDGES`,
which extended virtual synchrony makes dynamically unreachable; those
must stay *unexercised*, and the report flags them if they ever fire).

Coverage unions two sources:

* a **portfolio** of small exhaustive BFS runs (2–3 nodes) that cover
  the bulk of the table cheaply;
* **directed traces** — scripted event sequences through the 4-node
  model for the deepest edges (the exchange-actions retransmission
  endings), each step validated against ``enabled_events`` so a trace
  that goes stale fails loudly instead of silently covering nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

from ..core.state_machine import (EDGES_BY_INPUT, EVS_SHADOWED_EDGES,
                                  EngineInput, EngineState)
from .mc import ModelChecker
from .model import EdgeUse, Event, Model, ModelConfig, canonicalize

#: The exhaustive portion: (label, config, depth) — each explores its
#: configuration completely within the depth bound in a few seconds.
PORTFOLIO: Tuple[Tuple[str, ModelConfig, int], ...] = (
    ("2n-bootstrap",
     ModelConfig(nodes=2, max_faults=0, max_crashes=0, max_actions=0), 8),
    ("2n-faults",
     ModelConfig(nodes=2, max_faults=2, max_crashes=0, max_actions=1), 14),
    ("2n-crash",
     ModelConfig(nodes=2, max_faults=2, max_crashes=1, max_actions=1), 12),
    ("3n-full",
     ModelConfig(nodes=3, max_faults=2, max_crashes=1, max_actions=1), 10),
)

#: The exact-half lagging-component setup: node 2 misses one green
#: action and exchanges inside the quorumless half {2, 3} of the
#: four-member primary.
_LAGGING_HALF: Tuple[Event, ...] = (
    Event("form_view", ((1, 2, 3, 4),)),
    Event("ds", (1,)),
    Event("ds", (2,)),
    Event("ds", (3,)),
    Event("ds", (4,)),
    Event("deliver", (2,)),   # node 2 installs, becomes RegPrim
    Event("client", (2,)),    # one action multicast to everyone
    Event("deliver", (3,)),   # node 3 installs and greens it
    Event("fault", ("partition", (1, 2, 3, 4), (1, 4), (2, 3))),
    Event("form_view", ((2, 3),)),
    Event("ds", (2,)),        # node 2 lags node 3's green by one
)

#: Directed traces: (label, config, events), for the two deepest
#: Figure-4 edges, out of reach of the small exhaustive runs.  The
#: retransmission ends node 2's exchange without a quorum (action,
#: ExchangeActions -> NonPrim); or the network moves again while node 2
#: still waits for it, and the transitional configuration aborts the
#: exchange (trans_conf, ExchangeActions -> NonPrim).
DIRECTED_TRACES: Tuple[Tuple[str, ModelConfig,
                             Tuple[Event, ...]], ...] = (
    ("4n-exact-half-retrans",
     ModelConfig(nodes=4, max_faults=1, max_crashes=0, max_actions=1),
     _LAGGING_HALF + (Event("retrans", (2,)),)),
    ("4n-trans-conf-in-exchange",
     ModelConfig(nodes=4, max_faults=2, max_crashes=0, max_actions=1),
     _LAGGING_HALF + (Event("fault", ("merge", (1, 4), (2, 3))),)),
)


@dataclass
class CoverageReport:
    """Which declared edges the exploration portfolio exercised."""

    covered: Set[EdgeUse] = field(default_factory=set)
    uncovered: Set[EdgeUse] = field(default_factory=set)
    shadowed_exercised: Set[EdgeUse] = field(default_factory=set)
    runs: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.uncovered and not self.shadowed_exercised

    def to_dict(self) -> Dict[str, Any]:
        def fmt(edges: Set[EdgeUse]) -> List[List[str]]:
            return sorted([str(i), str(a), str(b)] for i, a, b in edges)
        return {
            "total_edges": len(all_declared_edges()),
            "live_edges": len(live_edges()),
            "covered": len(self.covered),
            "uncovered": fmt(self.uncovered),
            "shadowed_exercised": fmt(self.shadowed_exercised),
            "runs": self.runs,
        }


def all_declared_edges() -> Set[EdgeUse]:
    return {(event, old, new)
            for event, edges in EDGES_BY_INPUT.items()
            for old, new in edges}


def live_edges() -> Set[EdgeUse]:
    """Declared edges minus the EVS-shadowed ones."""
    return all_declared_edges() - set(EVS_SHADOWED_EDGES)


def run_trace(config: ModelConfig,
              events: Sequence[Event]) -> Model:
    """Apply a scripted event sequence, insisting each step is
    currently enabled — a stale trace raises instead of lying."""
    model = Model(config)
    state = canonicalize(model.initial_state())
    for event in events:
        enabled = model.enabled_events(state)
        if event not in enabled:
            raise AssertionError(
                f"directed trace step {event.describe()} is not "
                f"enabled; enabled: "
                f"{[e.describe() for e in enabled]}")
        state = model.apply_event(state, event)
        if model.violations:
            raise AssertionError(
                f"directed trace hit violations: {model.violations}")
    return model


def measure_coverage(extra_edges: Set[EdgeUse] = frozenset()
                     ) -> CoverageReport:
    """Run the portfolio + directed traces; union all exercised edges
    (plus ``extra_edges`` from any other run the caller made)."""
    report = CoverageReport()
    seen: Set[EdgeUse] = set(extra_edges)
    for label, config, depth in PORTFOLIO:
        result = ModelChecker(config, max_depth=depth).run()
        if result.violations:
            raise AssertionError(
                f"coverage run {label} found violations: "
                f"{[v.rule for v in result.violations]}")
        seen |= result.edges_seen
        report.runs.append({"run": label, "states": result.states,
                            "edges": len(result.edges_seen),
                            "complete": result.complete})
    for label, config, events in DIRECTED_TRACES:
        model = run_trace(config, events)
        seen |= model.edges_seen
        report.runs.append({"run": label, "states": len(events),
                            "edges": len(model.edges_seen),
                            "complete": True})
    live = live_edges()
    report.covered = seen & live
    report.uncovered = live - seen
    report.shadowed_exercised = seen & set(EVS_SHADOWED_EDGES)
    return report
