"""Database substrate: actions, deterministic state machine, dirty views,
snapshot transfer, and the mini statement language."""

from .action import (Action, ActionId, ActionType, is_plain, join_action,
                     leave_action)
from .applied_log import AppliedLog
from .database import Database
from .dirty import DirtyView
from .snapshot import SnapshotChunk, SnapshotReceiver, SnapshotSender
from .sql import (StatementError, execute_query, execute_statement,
                  execute_update)

__all__ = [
    "Action",
    "ActionId",
    "ActionType",
    "AppliedLog",
    "Database",
    "DirtyView",
    "SnapshotChunk",
    "SnapshotReceiver",
    "SnapshotSender",
    "StatementError",
    "execute_query",
    "execute_statement",
    "execute_update",
    "is_plain",
    "join_action",
    "leave_action",
]
