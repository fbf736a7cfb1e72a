"""ASCII timeline of engine states from event rows.

Turns a run's ``engine.state`` events into a compact per-replica state
timeline — handy for understanding how a fault schedule played out:

    t=  0.00  1:NonPrim        2:NonPrim        3:NonPrim
    t=  0.54  1:ExchangeStates 2:ExchangeStates 3:ExchangeStates
    t=  0.56  1:RegPrim        2:RegPrim        3:RegPrim
    ...

Every function takes event rows in time order: a cluster's event log
(``cluster.tracer.select("engine.state")``) or flight-recorder JSONL
dumps (:func:`~repro.tools.tracecli.load_rows`) — the two carry the
same rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .tracecli import Row

_ABBREV = {
    "NonPrim": "non-prim",
    "RegPrim": "PRIMARY",
    "TransPrim": "trans-prim",
    "ExchangeStates": "exch-states",
    "ExchangeActions": "exch-actions",
    "Construct": "construct",
    "No": "no",
    "Un": "un",
}


def state_changes(rows: Iterable[Row]) -> List[Row]:
    """The ``engine.state`` rows, in the order given, each with its
    new state under ``"new"``."""
    return [dict(row, new=row["detail"]["new"]) for row in rows
            if row.get("kind") == "engine.state"]


def render_timeline(rows: Iterable[Row],
                    nodes: Optional[Sequence[int]] = None,
                    abbreviate: bool = True) -> str:
    """Render one line per state change, with a column per replica."""
    changes = state_changes(rows)
    if nodes is None:
        nodes = sorted({r["node"] for r in changes})
    if not changes:
        return "(no engine state changes traced)"
    current: Dict[int, str] = {n: "NonPrim" for n in nodes}
    width = max(len(v) for v in _ABBREV.values()) + 1
    lines = []
    for row in changes:
        current[row["node"]] = row["new"]
        cells = []
        for node in nodes:
            name = current.get(node, "NonPrim")
            if abbreviate:
                name = _ABBREV.get(name, name)
            cells.append(f"{node}:{name}".ljust(width + 4))
        lines.append(f"t={row['t']:9.4f}  " + " ".join(cells).rstrip())
    return "\n".join(lines)


def summarize_time_in_state(rows: Iterable[Row], node: int,
                            until: float) -> Dict[str, float]:
    """Seconds spent in each state by ``node`` up to time ``until``."""
    totals: Dict[str, float] = {}
    last_state = "NonPrim"
    last_time = 0.0
    for row in state_changes(rows):
        if row["node"] != node:
            continue
        totals[last_state] = totals.get(last_state, 0.0) + \
            (row["t"] - last_time)
        last_state = row["new"]
        last_time = row["t"]
    totals[last_state] = totals.get(last_state, 0.0) + \
        max(0.0, until - last_time)
    return totals
