"""Actions and action identifiers.

An *action* is the unit of replication (Section 2.2): a deterministic
transition from one database state to the next, with a query part and an
update part, either of which may be missing.  Actions are identified by
``ActionId(server_id, action_index)`` — the creating server and a
per-server counter — exactly the paper's data structure.

Action types (Section 5.1): regular ``ACTION`` plus the two
reconfiguration actions ``PERSISTENT_JOIN`` and ``PERSISTENT_LEAVE``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple, Optional, Tuple


class ActionType(Enum):
    """Kinds of ordered actions."""

    ACTION = "action"
    PERSISTENT_JOIN = "persistent_join"
    PERSISTENT_LEAVE = "persistent_leave"


class ActionId(NamedTuple):
    """Identifier of an action: creating server + per-server index.

    The order relation is lexicographic and used only as a stable
    tie-break; the *global* order of actions is decided by the
    replication protocol, not by the id.

    A NamedTuple rather than a frozen dataclass: action ids are hashed
    on every queue operation of the hot apply path, and tuples hash at
    C speed.
    """

    server_id: int
    index: int

    def __str__(self) -> str:
        return f"{self.server_id}:{self.index}"


@dataclass(frozen=True)
class Action:
    """One replicated action message.

    Fields follow the paper's Action message structure:

    action_id   identifier (creating server, index)
    client      identifier of the requesting client
    query       read part: evaluated against the database state at the
                point the action is ordered; ``None`` for pure updates
    update      write part: a tuple of statements understood by
                :mod:`repro.db.sql`, or ``("CALL", name, args)`` for an
                active action; ``None`` for pure queries
    type        ACTION / PERSISTENT_JOIN / PERSISTENT_LEAVE
    join_id     for PERSISTENT_JOIN: the id of the joining server
    leave_id    for PERSISTENT_LEAVE: the id of the leaving server
    size        price in bytes on the simulated link (the paper's is 200)
    meta        free-form application metadata (e.g. timestamps for the
                timestamp-update semantics)
    """

    action_id: ActionId
    client: Optional[Any] = None
    query: Optional[Tuple] = None
    update: Optional[Tuple] = None
    type: ActionType = ActionType.ACTION
    join_id: Optional[int] = None
    leave_id: Optional[int] = None
    size: int = 200
    meta: dict = field(default_factory=dict)

    @property
    def server_id(self) -> int:
        return self.action_id.server_id

    @property
    def is_query_only(self) -> bool:
        return self.update is None and self.type is ActionType.ACTION

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"Action[{self.action_id}/{self.type.value}]"


def join_action(action_id: ActionId, joining_server: int) -> Action:
    """Build a PERSISTENT_JOIN announcing ``joining_server``."""
    return Action(action_id=action_id, type=ActionType.PERSISTENT_JOIN,
                  join_id=joining_server)


def leave_action(action_id: ActionId, leaving_server: int) -> Action:
    """Build a PERSISTENT_LEAVE removing ``leaving_server``."""
    return Action(action_id=action_id, type=ActionType.PERSISTENT_LEAVE,
                  leave_id=leaving_server)


def is_plain(value: Any) -> bool:
    """Whether ``value`` is *plain data*: ``None``, ``bool``, ``int``,
    ``float``, ``str``, ``bytes``, or a ``tuple``, ``list`` or ``dict``
    of plain data, exact types only (a subclass would come back as its
    base type).  An action's free-form fields hold nothing else: it is
    what the wire codec carries in them.  Nesting past the
    interpreter's limit raises RecursionError."""
    cls = value.__class__
    if cls is str:               # a lone surrogate has no utf-8 form
        return value.isascii() or not _SURROGATE.search(value)
    if (value is None or cls is int or cls is bool or cls is float
            or cls is bytes):
        return True
    if cls is tuple or cls is list:
        return all(map(is_plain, value))
    if cls is dict:
        return all(is_plain(key) and is_plain(item)
                   for key, item in value.items())
    return False


_SURROGATE = re.compile("[\ud800-\udfff]")
