"""Active actions: deterministic stored procedures (Section 6).

"Modern database applications exploit the ability to execute a
procedure specified by a transaction...  supported by our algorithm,
provided that the invoked procedure is deterministic and depends solely
on the current database state.  The key is that the procedure will be
invoked at the time the action is ordered."

Registration must happen identically at every replica (the procedure is
part of the replicated state machine's code, not its data).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .service import ReplicatedService

Procedure = Callable[[Dict[str, Any], Any], Any]


class ActiveTransactions:
    """Register and invoke deterministic procedures as ordered actions."""

    def __init__(self, service: ReplicatedService):
        self.service = service

    def register(self, name: str, procedure: Procedure) -> None:
        """Register ``procedure`` on the local replica (crash-durable).

        The same registration must be performed at every replica before
        any invocation can be ordered — enforce with
        :func:`register_everywhere` in deployments built by
        :class:`~repro.core.ReplicaCluster`.
        """
        self.service.replica.register_procedure(name, procedure)

    def invoke(self, name: str, args: Any,
               on_complete: Optional[Callable] = None):
        """Submit an active action; the procedure runs at ordering time
        at every replica, on the identical green state."""
        return self.service.update(("CALL", name, args),
                                   on_complete=on_complete)


def register_everywhere(cluster, name: str, procedure: Procedure) -> None:
    """Register an active procedure on every replica of a cluster."""
    for replica in cluster.replicas.values():
        replica.register_procedure(name, procedure)
