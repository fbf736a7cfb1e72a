"""Application semantics over the replication engine (Section 6):
consistent/weak/dirty queries, timestamp and commutative updates,
active actions, and interactive (read-certify-write) transactions."""

from .active import ActiveTransactions, register_everywhere
from .commutative import InventoryStore
from .interactive import InteractiveTransaction
from .session import (SessionClient, install_session_procedures)
from .service import BlockedQuery, QueryService, ReplicatedService
from .timestamp import TimestampStore

__all__ = [
    "ActiveTransactions",
    "BlockedQuery",
    "InteractiveTransaction",
    "InventoryStore",
    "QueryService",
    "ReplicatedService",
    "SessionClient",
    "install_session_procedures",
    "TimestampStore",
    "register_everywhere",
]
