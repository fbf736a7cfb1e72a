"""Commutative update semantics (Section 6).

"In the commutative case, the order is irrelevant as long as all
actions are eventually applied."  The paper's example is an inventory
where temporary negative stock is allowed: increments and decrements
commute, so replicas in different components can keep taking orders and
the stocks converge after merge.
"""

from __future__ import annotations

from typing import Callable, Optional

from .service import QueryService, ReplicatedService


class InventoryStore:
    """A commutative counter store (inventory with relaxed stock)."""

    def __init__(self, service: ReplicatedService, prefix: str = "inv:"):
        self.service = service
        self.prefix = prefix

    def _key(self, item: str) -> str:
        return self.prefix + item

    def add_stock(self, item: str, quantity: int,
                  on_complete: Optional[Callable] = None):
        """Commutative increment."""
        return self.service.update(("INC", self._key(item), quantity),
                                   on_complete=on_complete)

    def take_stock(self, item: str, quantity: int,
                   on_complete: Optional[Callable] = None):
        """Commutative decrement; may drive stock temporarily negative
        (the paper's relaxed inventory model)."""
        return self.service.update(("INC", self._key(item), -quantity),
                                   on_complete=on_complete)

    def stock(self, item: str,
              service: QueryService = QueryService.DIRTY) -> int:
        """Current stock, by default from the latest (dirty) view."""
        value = self.service.query(("GET", self._key(item)),
                                   service=service)
        return value or 0
