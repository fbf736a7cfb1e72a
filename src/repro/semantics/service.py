"""Application service levels over the replication engine (Section 6).

The engine enforces strict one-copy serializability by applying only
green actions.  Many applications prefer immediate, possibly weaker
answers while partitioned; this module provides:

* **consistent** queries — strict service: answered from the green
  state, but only while in a primary component; otherwise queued until
  the primary is rejoined;
* **weak** queries — answered immediately from the local green state
  (consistent but possibly obsolete);
* **dirty** queries — answered from the green state *plus* the local
  red/yellow suffix (latest information, no consistency promise);
* query-only fast path — a query with no update part is answered as
  soon as all previous actions of this server were applied, without
  generating an ordered action.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..core import EngineState, Replica
from ..db import DirtyView


class QueryService(Enum):
    """Query service levels (Section 6)."""

    CONSISTENT = "consistent"
    WEAK = "weak"
    DIRTY = "dirty"


class ReplicatedService:
    """Per-replica application facade.

    One instance per replica; registers the standard deterministic
    procedures (needed by the timestamp / interactive semantics) on the
    local database so every replica applies them identically.
    """

    def __init__(self, replica: Replica):
        self.replica = replica
        for name, procedure in (("lww_set", _lww_set),
                                ("certify", _certify)):
            replica.register_procedure(name, procedure)
        self._waiting_consistent: List[Tuple[Tuple, Callable]] = []
        # (own action_index when issued, query, on_result), FIFO
        self._waiting_local: Deque[Tuple[int, Tuple, Callable]] = deque()
        self._dirty = DirtyView(replica.database)
        replica.add_green_listener(
            lambda _a, _p, _r: self._drain_waiting())
        replica.add_state_listener(
            lambda _old, new: self._drain_waiting()
            if new is EngineState.REG_PRIM else None)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(self, update: Tuple,
               on_complete: Optional[Callable] = None,
               meta: Optional[dict] = None):
        """An ordered update action (strict semantics)."""
        return self.replica.submit(update=update, on_complete=on_complete,
                                   meta=meta)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query: Tuple,
              service: QueryService = QueryService.CONSISTENT,
              on_result: Optional[Callable[[Any], None]] = None) -> Any:
        """Evaluate ``query`` under the requested service level.

        WEAK and DIRTY return the result immediately (and also pass it
        to ``on_result``).  CONSISTENT returns immediately when in a
        primary component; otherwise the query is queued and
        ``on_result`` fires when the primary is rejoined — the paper's
        "cannot be answered until connectivity is restored".
        """
        if service is QueryService.WEAK:
            result = self.replica.database.query(query)
            if on_result is not None:
                on_result(result)
            return result
        if service is QueryService.DIRTY:
            if self._dirty.database is not self.replica.database:
                # Recovery built a new database.
                self._dirty = DirtyView(self.replica.database)
            pending = self.replica.engine.queue.red_actions()
            result = self._dirty.query(query, pending)
            if on_result is not None:
                on_result(result)
            return result
        # CONSISTENT
        if self.replica.engine.in_primary:
            result = self.replica.database.query(query)
            if on_result is not None:
                on_result(result)
            return result
        if on_result is None:
            raise BlockedQuery(
                "consistent query blocked outside the primary component; "
                "pass on_result to wait, or use WEAK/DIRTY service")
        self._waiting_consistent.append((query, on_result))
        return None

    # ------------------------------------------------------------------
    # query-only fast path (Section 6)
    # ------------------------------------------------------------------
    def query_after_my_writes(self, query: Tuple,
                              on_result: Callable[[Any], None]) -> None:
        """The paper's query-only optimization: "a query issued at one
        server can be answered as soon as all previous actions
        generated by this server were applied to the database, without
        the need to generate and order an action message."

        The answer reflects at least all of this server's own prior
        updates (read-your-writes), costs no multicast, and arrives as
        soon as the local database has applied them — writes this
        server issues after the query do not hold it back.  Waiting
        queries are answered in the order they were issued.
        """
        needed = self.replica.engine.action_index
        if not self._waiting_local and self._applied_through(needed):
            on_result(self.replica.database.query(query))
            return
        self._waiting_local.append((needed, query, on_result))

    def _applied_through(self, index: int) -> bool:
        """Whether this server's own actions up to ``index`` are applied
        to the local database (a creator's actions apply in index
        order, so its applied cut is a prefix)."""
        replica = self.replica
        return replica.database.applied_cut.get(replica.node, 0) >= index

    def _drain_waiting(self) -> None:
        waiting = self._waiting_local
        while waiting and self._applied_through(waiting[0][0]):
            _needed, query, on_result = waiting.popleft()
            on_result(self.replica.database.query(query))
        if not self._waiting_consistent:
            return
        if self.replica.engine.state is not EngineState.REG_PRIM:
            return
        waiting, self._waiting_consistent = self._waiting_consistent, []
        for query, on_result in waiting:
            on_result(self.replica.database.query(query))


class BlockedQuery(Exception):
    """A consistent query cannot be answered outside the primary."""


# ----------------------------------------------------------------------
# standard deterministic procedures
# ----------------------------------------------------------------------

def _lww_set(state, args) -> bool:
    """Last-writer-wins register write: (key, value, timestamp)."""
    key, value, timestamp = args
    slot = state.get(key)
    if slot is None or slot[1] <= timestamp:
        state[key] = (value, timestamp)
        return True
    return False


def _certify(state, args) -> bool:
    """Optimistic certification: apply updates iff the read set is
    unchanged (interactive transactions, Section 6)."""
    read_set, updates = args
    for key, expected in read_set:
        if state.get(key) != expected:
            return False
    for key, value in updates:
        state[key] = value
    return True
