"""``repro-trace``: merge flight-recorder dumps into causal timelines.

Each node's :class:`~repro.obs.flight.FlightRecorder` dumps a JSONL
file of protocol events (``dump_flight``).  This module is the other
half of the tracing tentpole: it merges those per-node dumps into one
**happens-before-ordered** timeline by reconstructing the causal edges
the protocol implies —

* per-node program order (the ring is already ordered);
* ``send → recv`` edges, matched by trace id and origin;
* delivery edges (``submit``/``recv``/``red`` precede the action's
  ``green`` on the same node).

Exports a plain-text view and Chrome trace-event JSON (load the file
in Perfetto / ``chrome://tracing``), plus the file-writing helpers the
protocol layers must not contain (``repro.obs`` is inside the
blocking-I/O seam; this module is the tools layer and is exempt).

The rows are the ones a live event log serves
(:meth:`~repro.obs.flight.FlightHub.select`), so every renderer here
works on a running cluster's ``tracer`` as on loaded dumps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..obs import Observability
from ..obs.flight import FlightHub, Row
#: A happens-before edge between two indices into the merged row list.
Edge = Tuple[int, int]


# ======================================================================
# dump side: the file I/O that must stay out of repro.obs
# ======================================================================
def dump_flight(source: Any, out_dir: str,
                reason: str = "manual") -> List[str]:
    """Write one ``flight-<node>.jsonl`` per recorder into ``out_dir``.

    ``source`` is an :class:`~repro.obs.Observability` bundle, a
    :class:`~repro.obs.flight.FlightHub`, or a pre-built dump dict (as
    handed to an anomaly sink).  Returns the paths written; a no-op
    (empty list) when nothing was recorded.
    """
    if isinstance(source, Observability):
        dump = source.flight_hub.dump()
    elif isinstance(source, FlightHub):
        dump = source.dump()
    else:
        dump = source
    if not dump:
        return []
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for key, rows in dump.items():
        path = os.path.join(out_dir, f"flight-{reason}-{key}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, default=str) + "\n")
        paths.append(path)
    return paths


def flight_sink(out_dir: str):
    """A dump-on-anomaly sink for :attr:`FlightHub.sink`: each anomaly
    writes a numbered artifact set under ``out_dir``."""
    counter = [0]

    def sink(reason: str, dump: Dict[Any, List[Row]]) -> None:
        counter[0] += 1
        dump_flight(dump, out_dir,
                    reason=f"anomaly{counter[0]}-{reason}")
    return sink


def load_rows(paths: Sequence[str]) -> List[Row]:
    """Load and merge JSONL dumps; ``paths`` may mix files and
    directories (directories are scanned for ``*.jsonl``)."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(os.path.join(path, name)
                         for name in sorted(os.listdir(path))
                         if name.endswith(".jsonl"))
        else:
            files.append(path)
    rows: List[Row] = []
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
    return merge_rows(rows)


def merge_rows(rows: Iterable[Row]) -> List[Row]:
    """Merged timeline order: by time, then node, preserving each
    node's program order (the per-node input order) for ties."""
    per_node_seq: Dict[Any, int] = defaultdict(int)
    keyed = []
    for row in rows:
        node = row.get("node")
        seq = per_node_seq[node]
        per_node_seq[node] = seq + 1
        keyed.append((row.get("t", 0.0), str(node), seq, row))
    keyed.sort(key=lambda item: item[:3])
    return [item[3] for item in keyed]


# ======================================================================
# assembly: happens-before edges over merged rows
# ======================================================================
def _detail(row: Row) -> List[Any]:
    return row.get("detail") or []


def happens_before(rows: Sequence[Row]) -> List[Edge]:
    """The causal edges implied by the protocol, as index pairs into
    ``rows`` (which must be in :func:`merge_rows` order)."""
    edges: List[Edge] = []

    # 1. Per-node program order.
    last_at: Dict[Any, int] = {}
    for i, row in enumerate(rows):
        node = row.get("node")
        if node in last_at:
            edges.append((last_at[node], i))
        last_at[node] = i

    by_trace: Dict[int, List[int]] = defaultdict(list)
    for i, row in enumerate(rows):
        trace = row.get("trace", 0)
        if trace:
            by_trace[trace].append(i)

    for trace, idxs in by_trace.items():
        sends = [i for i in idxs if rows[i]["kind"] == "send"]
        recvs = [i for i in idxs if rows[i]["kind"] == "recv"]
        greens = [i for i in idxs if rows[i]["kind"] == "green"]
        submits = [i for i in idxs if rows[i]["kind"] == "submit"]

        # 2. The wire: send at the origin precedes every recv of the
        #    same trace naming that origin (retransmissions included).
        for s in sends:
            for r in recvs:
                origin = _detail(rows[r])
                if not origin or origin[0] == rows[s]["node"]:
                    edges.append((s, r))

        # 3. Delivery: an action goes green on a node only after the
        #    node submitted it locally or received it off the wire.
        for g in greens:
            node = rows[g]["node"]
            for i in submits + recvs:
                if rows[i]["node"] == node:
                    edges.append((i, g))
    return edges


def descendants(edges: Sequence[Edge], start: int) -> Set[int]:
    """Indices reachable from ``start`` over ``edges`` (the transitive
    happens-after set; used by tests to assert causal chains)."""
    succ: Dict[int, List[int]] = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    seen: Set[int] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in succ[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def causal_signature(
        rows: Sequence[Row]) -> Dict[int, Set[Tuple[Any, Any]]]:
    """Per-trace causal structure, stripped of timestamps: for each
    trace id the set of ``(node, kind) → (node, kind)`` edges.  Two
    runs of the same scenario — simulated or live — must agree on
    this even though their clocks differ."""
    edges = happens_before(rows)
    sig: Dict[int, Set[Tuple[Any, Any]]] = defaultdict(set)
    for a, b in edges:
        trace = rows[a].get("trace", 0)
        if trace and rows[b].get("trace", 0) == trace:
            sig[trace].add(((rows[a]["node"], rows[a]["kind"]),
                            (rows[b]["node"], rows[b]["kind"])))
    return dict(sig)


# ======================================================================
# rendering
# ======================================================================
def render_text(rows: Sequence[Row],
                trace: Optional[int] = None) -> str:
    """One line per event, merged-timeline order, optionally filtered
    to a single trace id."""
    lines = []
    for row in rows:
        if trace is not None and row.get("trace", 0) != trace:
            continue
        tid = row.get("trace", 0)
        detail = row.get("detail") or []
        words = ([f"{k}={v}" for k, v in detail.items()]
                 if isinstance(detail, dict) else [str(d) for d in detail])
        lines.append(
            f"t={row.get('t', 0.0):12.6f}  {str(row.get('node')):>6} "
            f" {row['kind']:<16}"
            + (f" trace={tid:#x}" if tid else "")
            + (f" {' '.join(words)}" if words else ""))
    return "\n".join(lines)


def chrome_trace(rows: Sequence[Row]) -> Dict[str, Any]:
    """Chrome trace-event JSON (Perfetto-loadable): every event as an
    instant on its node's track, plus one async span per trace id
    from its first to its last event."""
    events: List[Dict[str, Any]] = []
    first: Dict[int, Row] = {}
    last: Dict[int, Row] = {}
    for row in rows:
        ts = row.get("t", 0.0) * 1e6  # trace-event time unit: µs
        node = str(row.get("node"))
        args: Dict[str, Any] = {}
        if row.get("trace"):
            args["trace"] = f"{row['trace']:#x}"
        if row.get("detail") is not None:
            args["detail"] = row["detail"]
        events.append({"name": row["kind"], "ph": "i", "s": "t",
                       "ts": ts, "pid": "repro", "tid": node,
                       "args": args})
        trace = row.get("trace", 0)
        if trace:
            first.setdefault(trace, row)
            last[trace] = row
    for trace, row in first.items():
        end = last[trace]
        ident = f"{trace:#x}"
        events.append({"name": ident, "cat": "trace", "ph": "b",
                       "id": ident, "ts": row.get("t", 0.0) * 1e6,
                       "pid": "repro", "tid": str(row.get("node"))})
        events.append({"name": ident, "cat": "trace", "ph": "e",
                       "id": ident, "ts": end.get("t", 0.0) * 1e6,
                       "pid": "repro", "tid": str(end.get("node"))})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ======================================================================
# CLI
# ======================================================================
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Merge flight-recorder dumps into one causally "
                    "ordered timeline.")
    parser.add_argument("inputs", nargs="+",
                        help="JSONL dump files or directories of them")
    parser.add_argument("--trace", type=lambda s: int(s, 0), default=None,
                        help="only show events of one trace id")
    parser.add_argument("--chrome", metavar="FILE", default=None,
                        help="also write Chrome trace-event JSON "
                             "(open in Perfetto)")
    parser.add_argument("--edges", action="store_true",
                        help="print the happens-before edge count and "
                             "per-trace causal signatures")
    args = parser.parse_args(argv)

    rows = load_rows(args.inputs)
    if not rows:
        print("no flight events found", file=sys.stderr)
        return 1
    print(render_text(rows, trace=args.trace))
    if args.edges:
        edges = happens_before(rows)
        sig = causal_signature(rows)
        print(f"\n{len(rows)} events, {len(edges)} happens-before "
              f"edges, {len(sig)} traces")
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(rows), fh)
        print(f"chrome trace written to {args.chrome}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
