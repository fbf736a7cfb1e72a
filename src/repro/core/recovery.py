"""Crash recovery (CodeSegment A.13 + durable-state reconstruction).

A recovering server retains its identifier and stable storage
(Section 2.1).  Recovery rebuilds, from the WAL and the persistent
record store:

1. the database — last snapshot (written by log compaction, or by a
   joiner that bootstrapped from a transfer) plus the durable greens
   journaled after it, replayed in order;
2. the action queue — green prefix, then the red-actions snapshot taken
   at the last exchange, then the paper's A.13 step: every ongoingQueue
   action not yet covered by the red cut is re-marked red, and only the
   own actions still above the red cut stay in ``engine.ongoing`` (the
   rest are red or green already, as A.14 leaves them);
3. the persistent records — primComponent, vulnerable (a server that
   crashed while vulnerable *stays* vulnerable), yellow, counters.

The engine then starts in NonPrim and rejoins the group; the exchange
protocol resupplies everything lost from volatile memory.

The position rule.  A green is journaled as the bare action, without
its position in the green order: the first green after the latest
``db_snapshot`` record is at that snapshot's ``applied_count`` (0 when
there is none), and each later green is one higher.  It holds by
construction: the durable journal is a prefix of the appends (a
rewrite lands after the flushes issued before it, see
:class:`~repro.storage.SimulatedDisk`); compaction writes its snapshot
first; a joiner journals its snapshot before its first green; and the
engine journals a green only when the queue accepted it, so no position
is journaled twice or skipped.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..db import Action
from ..storage.wal import GREEN
from .engine import ReplicationEngine
from .records import PrimComponent, Vulnerable, Yellow


def recover_engine(engine: ReplicationEngine) -> None:
    """Rebuild ``engine`` (freshly constructed) from its stable store."""
    store = engine.store
    view = store.recover()

    # One walk of the journal, in order: the greens kept are those
    # after the latest snapshot (the position rule above).
    snapshot: Optional[Dict[str, Any]] = None
    greens: List[Action] = []
    ongoing: List[Action] = []
    for record in store.wal.recover():
        kind = record.kind
        if kind == GREEN:
            greens.append(record.data)
        elif kind == "db_snapshot":
            snapshot = record.data
            greens = []
        elif kind == "ongoing":
            ongoing.append(record.data)

    # 1. database: snapshot base + green replay
    base_green = 0
    if snapshot is not None:
        engine.database.restore(snapshot)
        base_green = snapshot["applied_count"]

    servers = view.get("servers")
    if servers:
        for server in servers:
            engine.queue.add_server(server)

    engine.queue.green_offset = base_green
    # Actions subsumed by the snapshot (log compaction, or a joiner's
    # transfer) are known without their payloads.
    engine.queue.cover(engine.database.applied_cut)
    for action in greens:
        # The creator may have left the system since (its own
        # PERSISTENT_LEAVE is such a green): replay under a temporary
        # cut entry; the persisted server list prevails afterwards.
        if action.server_id not in engine.queue.red_cut:
            engine.queue.add_server(action.server_id)
        if not engine.queue.mark_green(action):
            raise AssertionError(
                f"green replay refused at {engine.server_id}: "
                f"{action.action_id} at position {engine.queue.green_count}")
        engine.database.apply(action)
    engine.queue.set_green_line(engine.server_id, engine.queue.green_count)
    if servers:
        persisted = set(servers)
        for extra in [s for s in engine.queue.servers
                      if s not in persisted]:
            engine.queue.remove_server(extra)

    # 2. red actions snapshot from the last exchange, then A.13 proper
    for action in view.get("red_actions", []) or []:
        engine.queue.mark_red(action)
    journaled = {action.action_id: action for action in ongoing}
    red_cut = engine.queue.red_cut
    for action_id in sorted(journaled):
        if red_cut.get(engine.server_id, 0) == action_id.index - 1:
            engine.queue.mark_red(journaled[action_id])
    cut = red_cut.get(engine.server_id, 0)
    for action_id in sorted(journaled):
        if action_id.index > cut:
            engine.ongoing[action_id] = journaled[action_id]

    # 3. persistent records
    prim = view.get("prim_component")
    if prim is not None:
        engine.prim_component = PrimComponent(
            prim_index=prim.prim_index,
            attempt_index=prim.attempt_index,
            servers=tuple(prim.servers))
    vulnerable = view.get("vulnerable")
    if vulnerable is not None:
        engine.vulnerable = Vulnerable(
            status=vulnerable.status, prim_index=vulnerable.prim_index,
            attempt_index=vulnerable.attempt_index,
            set=tuple(vulnerable.set), bits=dict(vulnerable.bits))
    yellow = view.get("yellow")
    if yellow is not None:
        engine.yellow = Yellow(status=yellow.status, set=list(yellow.set))
        # Drop yellow validity if any payload did not survive the
        # crash — the record is then no better than red knowledge.
        if engine.yellow.is_valid:
            for action_id in engine.yellow.set:
                if engine.queue.find(action_id) is None:
                    engine.yellow.invalidate()
                    break
    engine.attempt_index = view.get("attempt_index", 0)
    engine.removed_servers = set(view.get("removed_servers", []))
    engine.action_index = max(view.get("action_index", 0),
                              max((a.index for a in journaled),
                                  default=0))
    for server, line in (view.get("green_lines") or {}).items():
        if server in engine.queue.green_lines:
            engine.queue.set_green_line(server, line)

    engine._persist_records()
    engine._sync()
