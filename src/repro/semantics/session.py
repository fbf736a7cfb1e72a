"""Client sessions: exactly-once updates with replica failover.

The paper's client model binds a client to its local replica; if that
replica crashes, an in-flight action's fate is unknown to the client —
re-submitting blindly risks double application, not re-submitting
risks losing the update.

``SessionClient`` solves it the state-machine way: every update
carries a (session, sequence) pair and is applied through a
deterministic guard procedure that records the session's high-water
mark *inside the replicated database*.  Re-submissions of an
already-applied sequence are no-ops at every replica, identically, so
the client can fail over to any replica and retry until it sees the
global order confirm its sequence — exactly-once end to end.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..db import execute_update

_session_ids = itertools.count(1)

SESSION_PREFIX = "__session:"


def _session_apply(state: Dict[str, Any], args: Any) -> Tuple[bool, Any]:
    """Guard procedure: apply ``update`` iff ``seq`` is new for
    ``session``.  Returns (applied, result)."""
    session, seq, update = args
    key = SESSION_PREFIX + session
    if state.get(key, 0) >= seq:
        return (False, None)
    result = execute_update(state, update)
    state[key] = seq
    return (True, result)


class SessionClient:
    """An exactly-once client that can fail over between replicas.

    ``replicas`` is an ordered list of candidate attachment points
    (e.g. ``list(cluster.replicas.values())``); the client talks to the
    first usable one and rotates on failure.  ``submit`` retries (with
    the same sequence number) until the update is globally ordered;
    duplicates are suppressed by the in-database guard.
    """

    def __init__(self, replicas: List[Any], name: Optional[str] = None,
                 retry_interval: float = 1.0):
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas = list(replicas)
        self.session = name or f"session-{next(_session_ids)}"
        self.retry_interval = retry_interval
        self.sim = self.replicas[0].sim
        self._seq = 0
        self._attached = 0
        self.submitted = 0
        self.applied = 0
        self.duplicates_suppressed = 0
        self.failovers = 0
        for replica in self.replicas:
            replica.register_procedure("session_apply", _session_apply)

    # ------------------------------------------------------------------
    @property
    def replica(self):
        return self.replicas[self._attached % len(self.replicas)]

    def _rotate(self) -> None:
        self._attached += 1
        self.failovers += 1

    # ------------------------------------------------------------------
    def submit(self, update: Tuple,
               on_applied: Optional[Callable[[Any], None]] = None
               ) -> int:
        """Submit ``update`` exactly once; returns its sequence number.

        ``on_applied(result)`` fires when the update's global order is
        confirmed.  Internally retries across replicas until then.
        """
        self._seq += 1
        seq = self._seq
        self.submitted += 1
        state = {"done": False}

        def complete(_action, _position, result) -> None:
            if state["done"]:
                return
            state["done"] = True
            # The update is a single CALL statement: its result list
            # holds one (applied, inner) pair from the guard.
            applied, inner = result[0] if result else (False, None)
            if applied:
                self.applied += 1
            else:
                self.duplicates_suppressed += 1
            if on_applied is not None:
                on_applied(inner)

        def attempt() -> None:
            if state["done"]:
                return
            replica = self.replica
            if not replica.running or replica.engine.exited:
                self._rotate()
                replica = self.replica
            if replica.running and not replica.engine.exited:
                try:
                    replica.submit(
                        ("CALL", "session_apply",
                         (self.session, seq, update)),
                        client=self.session, on_complete=complete)
                except RuntimeError:
                    self._rotate()
            self.sim.post(self.retry_interval, retry)

        def retry() -> None:
            if state["done"]:
                return
            # Not confirmed yet: maybe the replica died with it, maybe
            # it is just red in a non-primary component.  Rotate and
            # re-submit under the same sequence; the guard dedupes.
            self._rotate()
            attempt()

        attempt()
        return seq

    # ------------------------------------------------------------------
    def confirmed_seq_at(self, replica) -> int:
        """The session's high-water mark in a replica's green state."""
        return replica.database.state.get(SESSION_PREFIX + self.session,
                                          0)
