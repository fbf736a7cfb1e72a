"""The replicated database: deterministic state machine over actions.

Each replica holds a private :class:`Database`.  The replication engine
applies *green* (globally ordered) actions in order; because every
replica applies the same deterministic actions in the same order from
the same initial state, the copies stay identical (the state-machine
approach, [Schneider 90]).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Tuple

from .action import Action, ActionType
from .applied_log import AppliedLog
from .sql import Procedure, StatementError, execute_query, execute_update


class Database:
    """An in-memory database applying ordered actions.

    ``applied_count`` counts applied actions; ``applied_log`` records
    their ids in application order (used by the correctness property
    tests: Global Total Order compares these logs across replicas);
    ``applied_cut`` maps each creator to its highest applied index,
    which is all that recovery and a joiner need of the history.
    """

    def __init__(self) -> None:
        self.state: Dict[str, Any] = {}
        self.applied_count = 0
        self.applied_cut: Dict[int, int] = {}
        self._adopt_log(AppliedLog())
        self._procedures: Dict[str, Procedure] = {}

    # ------------------------------------------------------------------
    # procedures (active actions)
    # ------------------------------------------------------------------
    def register_procedure(self, name: str, procedure: Procedure) -> None:
        """Register a deterministic stored procedure for CALL updates."""
        self._procedures[name] = procedure

    @property
    def procedures(self) -> Dict[str, Procedure]:
        return self._procedures

    def _adopt_log(self, log: AppliedLog) -> None:
        self.applied_log = log
        # Bound once: apply() packs inline and appends at C level.
        self._append_word = log.words.append

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, action: Action) -> Any:
        """Apply one ordered action; return its result.

        Reconfiguration actions mutate engine structures, not database
        state, but still occupy a slot in the applied log so that the
        global order is visible to the tests.

        A statement error is a deterministic *result* (the same at
        every replica), not an exception: a malformed action must fail
        identically everywhere instead of crashing the engine.  Partial
        effects of a failing multi-statement update are preserved —
        deterministically so, since every replica applies the same
        statements to the same state.
        """
        server_id, index = action_id = action.action_id
        if (server_id | index) >> 32:
            raise ValueError(f"action id {action_id} out of range")
        result = None
        if action.type is ActionType.ACTION and action.update is not None:
            try:
                result = execute_update(self.state, action.update,
                                        self._procedures)
            except StatementError as error:
                result = ("error", str(error))
        self.applied_count += 1
        self._append_word((server_id << 32) | index)
        # Global FIFO Order: a creator's actions are applied in index
        # order, so its latest applied index is its highest.
        self.applied_cut[server_id] = index
        return result

    def query(self, query: Tuple) -> Any:
        """Evaluate a read against the current (consistent) state."""
        return execute_query(self.state, query, self._procedures)

    # ------------------------------------------------------------------
    # snapshot / restore (database transfer for joiners)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A self-contained copy of the database contents + position.

        ``state`` is the contents serialized as one JSON string — what a
        disk holds — rather than a second object graph of every value;
        :meth:`restore` and :class:`~repro.db.snapshot.SnapshotSender`
        parse it.
        """
        return {
            "state": json.dumps(self.state),
            "applied_count": self.applied_count,
            "applied_log": AppliedLog(self.applied_log),
            "applied_cut": dict(self.applied_cut),
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Adopt a snapshot (the joiner's database transfer)."""
        self.state = json.loads(snapshot["state"])
        self.applied_count = snapshot["applied_count"]
        self.applied_cut = dict(snapshot["applied_cut"])
        self._adopt_log(AppliedLog(snapshot["applied_log"]))

    # ------------------------------------------------------------------
    # verification helpers
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Stable hash of the database contents (consistency checks)."""
        encoded = json.dumps(self.state, sort_keys=True, default=str)
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Database applied={self.applied_count} "
                f"keys={len(self.state)}>")
