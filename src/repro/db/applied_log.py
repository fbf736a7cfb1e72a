"""The applied-id log, packed: one 64-bit word per applied action.

A replica remembers the id of every action it ever applied (Global
Total Order is checked by comparing these logs across replicas), so the
log is the one structure that grows for the life of the process.  Held
as ``array('Q')`` it costs 8 bytes per action and is invisible to the
garbage collector; as a list of :class:`ActionId` it cost a tracked
tuple per entry.  The class reads as a sequence of ``ActionId``.
"""

from __future__ import annotations

import sys
from array import array
from typing import Any, Iterable, Iterator, List, Sequence, Union, overload

from .action import ActionId

_INDEX_MASK = 0xFFFFFFFF


def pack_id(server_id: int, index: int) -> int:
    """``(server_id << 32) | index``; both must fit 32 unsigned bits."""
    if (server_id | index) >> 32:
        raise ValueError(f"action id {server_id}:{index} out of range")
    return (server_id << 32) | index


def unpack_id(word: int) -> ActionId:
    return ActionId(word >> 32, word & _INDEX_MASK)


class AppliedLog(Sequence[ActionId]):
    """Append-only sequence of action ids over a packed buffer.

    ``words`` is the buffer itself: :meth:`Database.apply` appends to it
    directly so the hot path stays one C-level call.
    """

    __slots__ = ("words",)

    def __init__(self, ids: Iterable[ActionId] = ()) -> None:
        self.words = (ids.words[:] if isinstance(ids, AppliedLog) else
                      array("Q", [pack_id(*i) for i in ids]))

    @property
    def packed(self) -> bytes:
        """The words as little-endian bytes (the wire form)."""
        words = self.words
        if sys.byteorder != "little":
            words = words[:]
            words.byteswap()
        return words.tobytes()

    @classmethod
    def from_packed(cls, data: bytes) -> "AppliedLog":
        """Inverse of :attr:`packed`; ValueError unless whole words."""
        log = cls()
        log.words.frombytes(data)
        if sys.byteorder != "little":
            log.words.byteswap()
        return log

    def append(self, action_id: ActionId) -> None:
        self.words.append(pack_id(*action_id))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[ActionId]:
        return map(unpack_id, self.words)

    @overload
    def __getitem__(self, item: int) -> ActionId: ...

    @overload
    def __getitem__(self, item: slice) -> List[ActionId]: ...

    def __getitem__(self, item: Union[int, slice]
                    ) -> Union[ActionId, List[ActionId]]:
        if isinstance(item, slice):
            return list(map(unpack_id, self.words[item]))
        return unpack_id(self.words[item])

    def __setitem__(self, position: int, action_id: ActionId) -> None:
        self.words[position] = pack_id(*action_id)

    def __contains__(self, item: Any) -> bool:
        try:
            return pack_id(*item) in self.words
        except (TypeError, ValueError):
            return False

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, AppliedLog):
            return self.words == other.words
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AppliedLog {len(self.words)} ids>"
