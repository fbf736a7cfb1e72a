"""Dirty-version overlay for dirty queries (Section 6).

While a replica is in a non-primary component, red actions cannot be
applied to the consistent database — but some applications want answers
reflecting the *latest available* (possibly never-to-be-committed)
information.  The paper: "a dirty version of the database is maintained
while the replicas are not in the primary component."

The overlay replays the replica's red/yellow suffix on top of the green
state.  It is rebuilt lazily, at the next dirty query after the green
state (its ``applied_count``) or the red suffix changed, so applying a
green action costs the overlay nothing.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .action import Action, ActionType
from .database import Database
from .sql import execute_query, execute_update


class DirtyView:
    """Lazy dirty version of a database."""

    def __init__(self, database: Database):
        self.database = database
        self._state: Optional[Dict[str, Any]] = None
        self._green = 0                 # database.applied_count at build
        self._applied = 0
        self._suffix: List[Action] = []

    def refresh(self, pending: Iterable[Action]) -> None:
        """Bring the overlay up to date with the red/yellow suffix.

        ``pending`` is the replica's current not-yet-green suffix in
        local order.  If the green state is unchanged and ``pending``
        extends the previously applied suffix, only the new tail is
        replayed; otherwise the overlay is rebuilt.
        """
        pending = list(pending)
        if (self._state is None
                or self._green != self.database.applied_count
                or pending[:self._applied] != self._suffix[:self._applied]
                or len(pending) < self._applied):
            # Deep: replaying an APPEND must not grow a list the green
            # state holds.
            self._state = copy.deepcopy(self.database.state)
            self._green = self.database.applied_count
            self._applied = 0
        for action in pending[self._applied:]:
            if (action.type is ActionType.ACTION
                    and action.update is not None):
                execute_update(self._state, action.update,
                               self.database.procedures)
        self._applied = len(pending)
        self._suffix = pending

    def query(self, query: Tuple, pending: Iterable[Action]) -> Any:
        """A dirty query: latest info, no consistency promise."""
        self.refresh(pending)
        assert self._state is not None
        return execute_query(self._state, query, self.database.procedures)
