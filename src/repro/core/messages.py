"""Wire messages of the replication engine (multicast via the GCS).

Three message types, mirroring Appendix A's "Message Structure":

* ``EngineActionMsg`` — an action, fresh or retransmitted.  A
  retransmitted action that is globally ordered carries its green
  position so receivers can mark it green at the right place (the
  exchange protocol's OR-3 marking).
* ``EngineStateMsg`` — a server's state for the exchange round.
* ``EngineCpcMsg`` — the Create Primary Component vote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..db import Action, ActionId
from ..gcs import ViewId
from .records import PrimComponent, Vulnerable


@dataclass(frozen=True)
class EngineActionMsg:
    """An action message.

    green_pos   global green position, when retransmitting a green
                action during the exchange (None for fresh actions)
    green_line  creator's green count at creation (white-line gossip)
    retrans     True when sent by the exchange retransmission
    """

    action: Action
    green_line: int = 0
    green_pos: Optional[int] = None
    retrans: bool = False

    @property
    def wire_size(self) -> int:
        return self.action.size


@dataclass(frozen=True)
class EngineStateMsg:
    """State message for the exchange rounds (one per view change)."""

    server_id: int
    conf_id: ViewId
    green_count: int
    red_cut: Dict[int, int]
    green_lines: Dict[int, int]
    attempt_index: int
    prim_component: PrimComponent
    vulnerable: Vulnerable
    yellow_valid: bool
    yellow_ids: Tuple[ActionId, ...]
    wire_size = 128


@dataclass(frozen=True)
class EngineCpcMsg:
    """Create Primary Component vote."""

    server_id: int
    conf_id: ViewId
    wire_size = 128
