"""Mechanical TLA+ export of the Figure-4 transition system.

Generates a TLA+ module from ``EDGES_BY_INPUT`` — one action predicate
per input kind, one disjunct per declared edge — so the transition
structure can be loaded into TLC or TLAPS alongside the Python
checkers.  The export is *derived at call time* from the same table
the engine executes; nothing here re-declares an edge.

The module covers only the per-server state skeleton (which moves are
legal), not the guard semantics (quorum arithmetic, knowledge
computation) — the model checker (:mod:`repro.check.model`) checks
those executably, on the engine's own reactions.
"""

from __future__ import annotations

from typing import List

from ..core.state_machine import (EDGES_BY_INPUT, EVS_SHADOWED_EDGES,
                                  EngineInput, EngineState)

MODULE_NAME = "Figure4"


def _predicate_name(event: EngineInput) -> str:
    return "".join(part.capitalize()
                   for part in event.value.split("_"))


def export_tla() -> str:
    """Render the TLA+ module text."""
    lines: List[str] = []
    header = f"---- MODULE {MODULE_NAME} ----"
    lines.append(header)
    lines.append("\\* Generated from repro.core.state_machine."
                 "EDGES_BY_INPUT -- do not edit by hand.")
    lines.append("\\* Regenerate with: repro-check --tla <file>")
    lines.append("EXTENDS Naturals")
    lines.append("")
    lines.append("CONSTANT Servers")
    lines.append("VARIABLE state  \\* server -> Figure-4 engine state")
    lines.append("")
    states = ", ".join(f'"{s.value}"' for s in EngineState)
    lines.append(f"States == {{{states}}}")
    lines.append("")
    lines.append("TypeOK == state \\in [Servers -> States]")
    lines.append("")
    lines.append('Init == state = [s \\in Servers |-> "NonPrim"]')
    lines.append("")
    predicates: List[str] = []
    for event in EngineInput:
        name = _predicate_name(event)
        edges = sorted(EDGES_BY_INPUT[event],
                       key=lambda e: (e[0].value, e[1].value))
        if not edges:
            lines.append(f"\\* {event.value}: never moves the machine "
                         f"(self-loops only).")
            lines.append(f"{name}(s) == UNCHANGED state")
        else:
            lines.append(f"{name}(s) ==")
            for old, new in edges:
                shadow = ""
                if (event, old, new) in EVS_SHADOWED_EDGES:
                    shadow = ("  \\* EVS-shadowed: dynamically "
                              "unreachable")
                lines.append(
                    f'    \\/ /\\ state[s] = "{old.value}"'
                    f'{shadow}')
                lines.append(
                    f'       /\\ state\' = '
                    f'[state EXCEPT ![s] = "{new.value}"]')
            lines.append(f"    \\/ UNCHANGED state  "
                         f"\\* inputs may be no-ops")
        lines.append("")
        predicates.append(name)
    steps = " \\/ ".join(f"{p}(s)" for p in predicates)
    lines.append(f"Next == \\E s \\in Servers : {steps}")
    lines.append("")
    lines.append("Spec == Init /\\ [][Next]_state")
    lines.append("")
    lines.append("=" * len(header))
    return "\n".join(lines) + "\n"


def edge_count() -> int:
    """Number of declared edges (one TLA+ disjunct each)."""
    return sum(len(edges) for edges in EDGES_BY_INPUT.values())
