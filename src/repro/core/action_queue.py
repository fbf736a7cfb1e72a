"""The actions queue: ordered red/yellow/green actions with cuts.

Implements the paper's ``actionsQueue``, ``redCut`` and ``greenLines``
structures together with the marking procedures of CodeSegment A.14:

* ``mark_red`` — accept an action into the local order.  Respects the
  per-creator FIFO cut: an action is accepted only if it is the next
  index from its creating server (``redCut`` contiguity).
* ``mark_green`` — "place action just on top of the last green action":
  the action leaves the red region and takes the next global position.
* White-line computation — the minimum green line over all servers;
  everything below it is white (known green everywhere) and may be
  truncated.

Green positions are 0-based global order indices; ``green_count`` is
both "how many green actions I have" and "the position the next green
action will take", which makes prefix comparison during the exchange
protocol trivial (Global Total Order guarantees any two servers' green
sequences are prefixes of one another).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, final

from ..db import Action, ActionId
from .colors import Color


@final
class ActionQueue:
    """Red/green bookkeeping for one replica."""

    def __init__(self, server_ids: Iterable[int]) -> None:
        # global green order; index i holds position green_offset + i
        self._green: List[Action] = []
        self.green_offset = 0
        self._green_pos: Dict[ActionId, int] = {}
        # red region: insertion-ordered dict = local delivery order.
        # A parallel per-creator index makes red_actions_of and the
        # remove_server purge O(k) in the creator's actions instead of
        # O(n) in all red actions; red_cut contiguity guarantees each
        # bucket's insertion order is index order, so neither ever sorts.
        self._red: Dict[ActionId, Action] = {}
        self._red_by_creator: Dict[int, Dict[ActionId, Action]] = {}
        # cuts
        self.red_cut: Dict[int, int] = {s: 0 for s in server_ids}
        self.green_lines: Dict[int, int] = {s: 0 for s in server_ids}

    # ------------------------------------------------------------------
    # structure maintenance (dynamic membership)
    # ------------------------------------------------------------------
    def add_server(self, server_id: int, green_line: int = 0) -> None:
        """Extend the cuts for a newly announced server (Section 5.1)."""
        self.red_cut.setdefault(server_id, 0)
        self.green_lines.setdefault(server_id, green_line)

    def remove_server(self, server_id: int) -> None:
        """Drop a permanently removed server from the cuts.

        Red actions of the removed creator are purged: an action of a
        departed server that was not globally ordered before its
        PERSISTENT_LEAVE is dead — every replica processes the leave at
        the same green position, so the purge is identical everywhere
        and no replica can later green what others discarded.
        """
        self.red_cut.pop(server_id, None)
        self.green_lines.pop(server_id, None)
        bucket = self._red_by_creator.pop(server_id, None)
        if bucket:
            for action_id in bucket:
                del self._red[action_id]

    def cover(self, applied_cut: Dict[int, int]) -> None:
        """Raise the red cut over an inherited database's
        ``applied_cut``: actions known only as snapshot state (a
        joiner's transfer, a compacted log) count as received, or
        their successors would be rejected as FIFO gaps.  Creators no
        longer in the membership are not resurrected into the cuts."""
        red_cut = self.red_cut
        for server_id, index in applied_cut.items():
            if index > red_cut.get(server_id, index):
                red_cut[server_id] = index

    @property
    def servers(self) -> List[int]:
        return sorted(self.red_cut)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def green_count(self) -> int:
        """Number of green actions (also: next green position)."""
        return self.green_offset + len(self._green)

    def color_of(self, action_id: ActionId) -> Optional[Color]:
        """Current color, or None if unknown.  White is reported for
        truncated green positions below the white line."""
        if action_id in self._green_pos:
            return Color.GREEN
        if action_id in self._red:
            return Color.RED
        return None

    def knows(self, action_id: ActionId) -> bool:
        creator = action_id.server_id
        return action_id.index <= self.red_cut.get(creator, 0)

    def green_position(self, action_id: ActionId) -> Optional[int]:
        return self._green_pos.get(action_id)

    def green_slice(self, start: int, stop: Optional[int] = None
                    ) -> List[Tuple[int, Action]]:
        """Green actions with positions in [start, stop); positions
        below the truncation offset are unavailable."""
        if stop is None:
            stop = self.green_count
        start = max(start, self.green_offset)
        return [(pos, self._green[pos - self.green_offset])
                for pos in range(start, min(stop, self.green_count))]

    def red_actions(self) -> List[Action]:
        """Red actions in local order."""
        return list(self._red.values())

    def red_actions_of(self, creator: int) -> List[Action]:
        """Red actions created by ``creator``, in index order."""
        bucket = self._red_by_creator.get(creator)
        return list(bucket.values()) if bucket else []

    def find(self, action_id: ActionId) -> Optional[Action]:
        action = self._red.get(action_id)
        if action is not None:
            return action
        pos = self._green_pos.get(action_id)
        if pos is not None and pos >= self.green_offset:
            return self._green[pos - self.green_offset]
        return None

    # ------------------------------------------------------------------
    # marking (CodeSegment A.14)
    # ------------------------------------------------------------------
    def mark_red(self, action: Action) -> bool:
        """Accept ``action`` into the local order (red).

        Returns True if the action advanced the red cut (it was the next
        expected index from its creator); False for duplicates and
        out-of-order arrivals, which are ignored as in the paper.
        """
        creator = action.server_id
        red_cut = self.red_cut
        cut = red_cut.get(creator)
        if cut is None:
            return False
        action_id = action.action_id
        if cut != action_id.index - 1:
            return False
        red_cut[creator] = action_id.index
        self._red[action_id] = action
        bucket = self._red_by_creator.get(creator)
        if bucket is None:
            bucket = self._red_by_creator[creator] = {}
        bucket[action_id] = action
        return True

    def mark_green(self, action: Action) -> bool:
        """Mark ``action`` green at the next global position.

        Accepts actions not yet known (marks them red first).  Returns
        True if the action became green now; False if it already was.
        """
        self.mark_red(action)
        action_id = action.action_id
        if action_id in self._green_pos:
            return False
        if action_id not in self._red:
            if self.knows(action_id):
                # Covered by the red cut but held neither red nor
                # green: a duplicate of an action subsumed by a
                # snapshot (white / inherited) — already ordered.
                return False
            # Ahead of the cut: the caller violated FIFO
            # retransmission order.
            raise ValueError(
                f"cannot green {action_id}: FIFO gap "
                f"(red_cut={self.red_cut.get(action.server_id)})")
        self._remove_red(action_id)
        position = self.green_offset + len(self._green)
        self._green.append(action)
        self._green_pos[action_id] = position
        return True

    def _remove_red(self, action_id: ActionId) -> None:
        del self._red[action_id]
        bucket = self._red_by_creator[action_id.server_id]
        del bucket[action_id]
        if not bucket:
            del self._red_by_creator[action_id.server_id]

    # ------------------------------------------------------------------
    # green lines / white line
    # ------------------------------------------------------------------
    def set_green_line(self, server_id: int, green_count: int) -> None:
        """Record that ``server_id`` is known to have ``green_count``
        green actions.  Lines are monotonic."""
        if server_id in self.green_lines:
            if green_count > self.green_lines[server_id]:
                self.green_lines[server_id] = green_count
        else:
            self.green_lines[server_id] = green_count

    @property
    def white_line(self) -> int:
        """Position below which every action is white (known green at
        all servers)."""
        if not self.green_lines:
            return 0
        return min(self.green_lines.values())

    def truncate_white(self) -> int:
        """Discard white actions; returns how many were discarded.

        Safe because no server will ever need them again (they are
        green everywhere), cf. the paper's remark on message discarding.
        """
        limit = min(self.white_line, self.green_count)
        discard = limit - self.green_offset
        if discard <= 0:
            return 0
        for action in self._green[:discard]:
            del self._green_pos[action.action_id]
        self._green = self._green[discard:]
        self.green_offset = limit
        return discard

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ActionQueue green={self.green_count} "
                f"red={len(self._red)} offset={self.green_offset}>")
