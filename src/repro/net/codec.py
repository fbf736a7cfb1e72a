"""Binary wire codec for live transports: one grammar of plain values.

frame   := magic(u8) version(u8) src(i32) item
item    := tag(u8) length(u32) body

``DataMsg``, ``StampMsg``, ``AckMsg``, ``RetransDataMsg`` and the
engine's :class:`~repro.core.messages.EngineActionMsg` keep struct
layouts: they travel once per action or grow with the load.  Every
other payload is one :data:`TAG_VALUE` item holding a *value* (the
``_V_*`` kinds below) or a *record*: an index into :data:`RECORDS`
followed by its fields.  Anything else makes :func:`encode_frame`
raise ``TypeError``; nothing falls back to another encoding.

Decoding calls nothing outside the record table and refuses a record
whose fields do not match its class's annotations.  Every count is
checked against the bytes left before a container is built, so a
corrupt frame costs time and memory bounded by its length.  Malformed
or ill-typed frames raise :class:`CodecError`, which receive loops
count as a drop.  The checks are of types, not of meaning: a
well-typed frame is trusted like any group member.  This is the
**only** module that touches ``struct``-level framing
(``tests/test_import_policy.py``): one place to audit wire
compatibility, one place to bump ``VERSION``.  docs/ARCHITECTURE.md
gives the full wire format.
"""

from __future__ import annotations

import struct
import typing
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.messages import EngineActionMsg, EngineCpcMsg, EngineStateMsg
from ..core.reconfig import JoinRequest, TransferHeader
from ..core.records import PrimComponent, Vulnerable
from ..db import Action, ActionId, ActionType, AppliedLog, SnapshotChunk
from ..gcs.types import (AckMsg, ChanAck, ChanData, DataMsg, FlushDoneMsg,
                         FlushPlanMsg, FlushRetransCmd, GatherMsg,
                         HeartbeatMsg, InstallMsg, LeaveMsg, NackMsg,
                         ProposeMsg, RetransDataMsg, ServiceLevel,
                         StampMsg, StateReportMsg, ViewId)


class CodecError(ValueError):
    """A frame failed to decode (truncated, garbled, unknown tag)."""


MAGIC = 0xC3
# v2: trace-context fields; v3: heartbeat green line; v4: engine-action
# tag; v5: heartbeat without group field; v6: value items and records
# replace the pickle escape hatch, compact ints; v7: write-only fields
# deleted (GCS trace ids, Action.green_line, TransferBusy, ...).  Any
# other version is refused: a mixed-version peer would otherwise be
# misparsed.
VERSION = 7

# Retired tags decode as unknown and are never reused: 0 (pickle), 1,
# 5, 6, 7, 9 and 10.  TAG_PICKLE keeps its name for tools reading it.
TAG_PICKLE = 0
TAG_DATA = 2
TAG_STAMP = 3
TAG_ACK = 4
TAG_RETRANS = 8
TAG_ACTION = 11
TAG_VALUE = 12

_HEADER = struct.Struct("!BBi")          # magic, version, src
_ITEM = struct.Struct("!BI")             # tag, body length
_DATA = struct.Struct("!iiiqBi")         # view, origin, fifo, svc, size
_STAMP_ENTRY = struct.Struct("!qiq")     # seq, origin, fifo_seq
_VIEW_COUNT = struct.Struct("!iiI")      # view + entry count
_ACK = struct.Struct("!iiiq")            # view, node, ack_seq
_SEQ = struct.Struct("!q")
_RETRANS_ITEM = struct.Struct("!qiqBi")  # seq, origin, fifo, svc, size
_ACTION = struct.Struct("!iqqiB")        # creator, index, message green
                                         # line, size, flags
_SERVER = struct.Struct("!i")            # join_id / leave_id

# Engine-action flags.  The low two bits are the ActionType index; each
# set presence bit appends its optional field after the fixed part, in
# bit order.
_A_TYPE = 0x03
_A_RETRANS = 0x04
_A_GREEN_POS = 0x08                      # + _SEQ
_A_JOIN = 0x10                           # + _SERVER
_A_LEAVE = 0x20                          # + _SERVER
_A_KNOWN = 0x3F

# Value tags.  A sized kind (str, bytes, big int, tuple, list, dict)
# has a long head (tag, u32) and a short one (tag | _V_SHORT, u8).
_V_NONE = 0
_V_FALSE = 1
_V_TRUE = 2
_V_INT = 3                               # + i64
_V_FLOAT = 4                             # + f64
_V_STR = 5                               # + length, utf-8
_V_BYTES = 6                             # + length, raw
_V_BIGINT = 7                            # + length, signed big-endian
_V_TUPLE = 8                             # + count, items
_V_LIST = 9                              # + count, items
_V_DICT = 10                             # + count, key/value pairs
_V_INT8 = 11                             # + i8
_V_INT16 = 12                            # + i16
_V_INT32 = 13                            # + i32
_V_RECORD = 14                           # + u8 class index, fields
_V_SHORT = 0x10
_V_HEAD = struct.Struct("!BI")           # tag + length or count
_V_SHORT_HEAD = struct.Struct("!BB")
_V_INT8_ITEM = struct.Struct("!Bb")
_V_INT16_ITEM = struct.Struct("!Bh")
_V_INT32_ITEM = struct.Struct("!Bi")
_V_INT_ITEM = struct.Struct("!Bq")
_V_FLOAT_ITEM = struct.Struct("!Bd")
_V_NONE_ITEM = bytes((_V_NONE,))
_V_FALSE_ITEM = bytes((_V_FALSE,))
_V_TRUE_ITEM = bytes((_V_TRUE,))
_CONSTANTS = (None, False, True)            # by tag
_SCALARS = {_V_INT8: _V_INT8_ITEM, _V_INT16: _V_INT16_ITEM,
            _V_INT32: _V_INT32_ITEM, _V_INT: _V_INT_ITEM,
            _V_FLOAT: _V_FLOAT_ITEM}

_SERVICE_INDEX = {level: index for index, level
                  in enumerate(ServiceLevel)}
_SERVICE_BY_INDEX = tuple(ServiceLevel)
_ACTION_TYPE_INDEX = {kind: index for index, kind
                      in enumerate(ActionType)}
_ACTION_TYPE_BY_INDEX = tuple(ActionType)


def _check(hint: Any) -> Callable[[Any], bool]:
    """A test that a decoded field holds what its annotation ``hint``
    names: exact classes, tuple items and dict entries included."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if args[-1:] == (Ellipsis,):                   # Tuple[X, ...]
        item = _check(args[0])
        return lambda value: (value.__class__ is tuple
                              and all(map(item, value)))
    tests = tuple(map(_check, args))
    if hint is Any:
        return lambda value: True
    if origin is Union:
        return lambda value: any(test(value) for test in tests)
    if origin is dict:
        return lambda value: value.__class__ is dict and all(
            tests[0](k) and tests[1](v) for k, v in value.items())
    if origin is tuple:
        return lambda value: (
            value.__class__ is tuple and len(value) == len(tests)
            and all(test(item) for test, item in zip(tests, value)))
    return lambda value: value.__class__ is hint


def _record(cls: type, build: Optional[Callable[..., Any]] = None,
            hints: Optional[Dict[str, Any]] = None) -> Tuple[Any, ...]:
    """A row of :data:`RECORDS`; a record's fields are its class's
    annotations, in declaration order."""
    hints = hints or typing.get_type_hints(cls)
    return (cls, tuple(hints), build or cls,
            tuple(map(_check, hints.values())))


#: The record table: (class, field names, constructor, field type
#: tests), indexed by the byte after a record tag.  A new index or
#: field list of these classes changes the wire: bump VERSION.
RECORDS: Tuple[Tuple[Any, ...], ...] = (
    *(_record(cls) for cls in (
        ViewId, ActionId, PrimComponent, Vulnerable,
        HeartbeatMsg, NackMsg, ChanData, ChanAck,
        GatherMsg, ProposeMsg, StateReportMsg, FlushPlanMsg,
        FlushRetransCmd, FlushDoneMsg, InstallMsg, LeaveMsg,
        EngineStateMsg, EngineCpcMsg,
        JoinRequest, TransferHeader, SnapshotChunk)),
    _record(AppliedLog, AppliedLog.from_packed, {"packed": bytes}),
)
_RECORD_INDEX = {row[0]: (index, row[1])
                 for index, row in enumerate(RECORDS)}


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _enc_data(msg: DataMsg) -> bytes:
    return (_DATA.pack(msg.view_id.epoch, msg.view_id.coordinator,
                       msg.origin, msg.fifo_seq,
                       _SERVICE_INDEX[msg.service], msg.size)
            + encode_payload(msg.payload))


def _enc_stamp(msg: StampMsg) -> bytes:
    parts = [_VIEW_COUNT.pack(msg.view_id.epoch, msg.view_id.coordinator,
                              len(msg.stamps))]
    parts.extend(_STAMP_ENTRY.pack(*stamp) for stamp in msg.stamps)
    return b"".join(parts)


def _enc_ack(msg: AckMsg) -> bytes:
    return _ACK.pack(msg.view_id.epoch, msg.view_id.coordinator,
                     msg.node, msg.ack_seq)


def _enc_retrans(msg: RetransDataMsg) -> bytes:
    parts = [_VIEW_COUNT.pack(msg.view_id.epoch, msg.view_id.coordinator,
                              len(msg.items))]
    for seq, origin, fifo_seq, payload, service, size in msg.items:
        parts.append(_RETRANS_ITEM.pack(seq, origin, fifo_seq,
                                        _SERVICE_INDEX[service], size))
        parts.append(encode_payload(payload))
    return b"".join(parts)


def _enc_value(value: Any, parts: List[bytes]) -> None:
    """Append one value; TypeError for anything outside the grammar."""
    cls = value.__class__
    if cls is str or cls is bytes:
        data = value.encode() if cls is str else value
        tag = _V_STR if cls is str else _V_BYTES
        parts.append(_V_SHORT_HEAD.pack(tag | _V_SHORT, len(data))
                     if len(data) < 256 else _V_HEAD.pack(tag, len(data)))
        parts.append(data)
    elif cls is int:
        if -0x80 <= value < 0x80:
            parts.append(_V_INT8_ITEM.pack(_V_INT8, value))
        elif -0x8000 <= value < 0x8000:
            parts.append(_V_INT16_ITEM.pack(_V_INT16, value))
        elif -0x80000000 <= value < 0x80000000:
            parts.append(_V_INT32_ITEM.pack(_V_INT32, value))
        elif -0x8000000000000000 <= value < 0x8000000000000000:
            parts.append(_V_INT_ITEM.pack(_V_INT, value))
        else:
            data = value.to_bytes((value.bit_length() + 8) // 8, "big",
                                  signed=True)
            parts.append(_V_SHORT_HEAD.pack(_V_BIGINT | _V_SHORT, len(data))
                         if len(data) < 256
                         else _V_HEAD.pack(_V_BIGINT, len(data)))
            parts.append(data)
    elif value is None:
        parts.append(_V_NONE_ITEM)
    elif cls is tuple or cls is list or cls is dict:
        tag = _V_TUPLE if cls is tuple else _V_LIST if cls is list \
            else _V_DICT
        count = len(value)
        parts.append(_V_SHORT_HEAD.pack(tag | _V_SHORT, count)
                     if count < 256 else _V_HEAD.pack(tag, count))
        if cls is dict:
            for key, item in value.items():
                _enc_value(key, parts)
                _enc_value(item, parts)
        else:
            for item in value:
                _enc_value(item, parts)
    elif cls is bool:
        parts.append(_V_TRUE_ITEM if value else _V_FALSE_ITEM)
    elif cls is float:
        parts.append(_V_FLOAT_ITEM.pack(_V_FLOAT, value))
    else:
        record = _RECORD_INDEX.get(cls)
        if record is None:
            raise TypeError(f"not a wire value: {cls.__name__}")
        index, names = record
        parts.append(_V_SHORT_HEAD.pack(_V_RECORD, index))
        for name in names:
            _enc_value(getattr(value, name), parts)


def _enc_action(msg: EngineActionMsg) -> bytes:
    action = msg.action
    if action.__class__ is not Action:
        raise TypeError("Action subclass")
    flags = _ACTION_TYPE_INDEX[action.type]
    parts = [b""]
    if msg.retrans:
        flags |= _A_RETRANS
    if msg.green_pos is not None:
        flags |= _A_GREEN_POS
        parts.append(_SEQ.pack(msg.green_pos))
    if action.join_id is not None:
        flags |= _A_JOIN
        parts.append(_SERVER.pack(action.join_id))
    if action.leave_id is not None:
        flags |= _A_LEAVE
        parts.append(_SERVER.pack(action.leave_id))
    creator, index = action.action_id
    parts[0] = _ACTION.pack(creator, index, msg.green_line, action.size,
                            flags)
    _enc_value(action.client, parts)
    _enc_value(action.query, parts)
    _enc_value(action.update, parts)
    _enc_value(action.meta, parts)
    return b"".join(parts)


def _enc_value_item(value: Any) -> bytes:
    parts: List[bytes] = []
    _enc_value(value, parts)
    return b"".join(parts)


_ENCODERS: Dict[type, Tuple[int, Callable[[Any], bytes]]] = {
    DataMsg: (TAG_DATA, _enc_data),
    StampMsg: (TAG_STAMP, _enc_stamp),
    AckMsg: (TAG_ACK, _enc_ack),
    RetransDataMsg: (TAG_RETRANS, _enc_retrans),
    EngineActionMsg: (TAG_ACTION, _enc_action),
}
_VALUE_ENCODER = (TAG_VALUE, _enc_value_item)


def encode_payload(obj: Any) -> bytes:
    """Encode one payload as a tagged item; ``TypeError`` when it is
    outside the grammar (including a struct field out of its range)."""
    tag, encoder = _ENCODERS.get(obj.__class__, _VALUE_ENCODER)
    try:
        body = encoder(obj)
    except (struct.error, ValueError, RecursionError) as exc:
        raise TypeError(f"not encodable: {exc!r}") from None
    return _ITEM.pack(tag, len(body)) + body


def encode_frame(src: int, payload: Any) -> bytes:
    """Encode a complete wire frame for ``payload`` sent by ``src``."""
    return _HEADER.pack(MAGIC, VERSION, src) + encode_payload(payload)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _need(buf: bytes, offset: int, count: int) -> None:
    if offset + count > len(buf):
        raise CodecError(f"truncated frame: need {count} bytes at "
                         f"offset {offset}, have {len(buf)}")


def _dec_data(body: bytes) -> DataMsg:
    epoch, coord, origin, fifo_seq, svc, size = _DATA.unpack_from(body, 0)
    payload, end = _decode_item(body, _DATA.size)
    if end != len(body):
        raise CodecError("trailing bytes in DataMsg body")
    return DataMsg(ViewId(epoch, coord), origin, fifo_seq, payload,
                   _SERVICE_BY_INDEX[svc], size)


def _dec_stamp(body: bytes) -> StampMsg:
    epoch, coord, count = _VIEW_COUNT.unpack_from(body, 0)
    _need(body, _VIEW_COUNT.size, count * _STAMP_ENTRY.size)
    stamps = tuple(
        _STAMP_ENTRY.unpack_from(body, _VIEW_COUNT.size
                                 + i * _STAMP_ENTRY.size)
        for i in range(count))
    if _VIEW_COUNT.size + count * _STAMP_ENTRY.size != len(body):
        raise CodecError("trailing bytes in StampMsg body")
    return StampMsg(ViewId(epoch, coord), stamps)


def _dec_ack(body: bytes) -> AckMsg:
    if len(body) != _ACK.size:
        raise CodecError("bad AckMsg body size")
    epoch, coord, node, ack_seq = _ACK.unpack(body)
    return AckMsg(ViewId(epoch, coord), node, ack_seq)


def _dec_retrans(body: bytes) -> RetransDataMsg:
    epoch, coord, count = _VIEW_COUNT.unpack_from(body, 0)
    offset = _VIEW_COUNT.size
    items: List[Tuple] = []
    for _ in range(count):
        seq, origin, fifo_seq, svc, size = \
            _RETRANS_ITEM.unpack_from(body, offset)
        payload, offset = _decode_item(body, offset + _RETRANS_ITEM.size)
        items.append((seq, origin, fifo_seq, payload,
                      _SERVICE_BY_INDEX[svc], size))
    if offset != len(body):
        raise CodecError("trailing bytes in RetransDataMsg body")
    return RetransDataMsg(ViewId(epoch, coord), tuple(items))


def _dec_value(buf: bytes, offset: int) -> Tuple[Any, int]:
    """One value at ``offset``; returns it and the next offset.  Every
    value takes at least one byte, so a count larger than the bytes
    left is refused before anything is built."""
    tag = buf[offset]
    if tag >= _V_SHORT:
        tag -= _V_SHORT
        if not _V_STR <= tag <= _V_DICT:
            raise CodecError(f"unknown value tag {tag + _V_SHORT}")
        count = buf[offset + 1]
        offset += 2
    elif _V_STR <= tag <= _V_DICT:
        count = _V_HEAD.unpack_from(buf, offset)[1]
        offset += _V_HEAD.size
    else:
        scalar = _SCALARS.get(tag)
        if scalar is not None:
            return scalar.unpack_from(buf, offset)[1], offset + scalar.size
        if tag <= _V_TRUE:
            return _CONSTANTS[tag], offset + 1
        if tag != _V_RECORD:
            raise CodecError(f"unknown value tag {tag}")
        index = buf[offset + 1]
        if index >= len(RECORDS):
            raise CodecError(f"unknown record class {index}")
        cls, names, build, checks = RECORDS[index]
        count = len(names)
        offset += 2
    if tag <= _V_BIGINT:
        end = offset + count
        if end > len(buf):
            raise CodecError("truncated value")
        data = buf[offset:end]
        if tag == _V_BIGINT:
            return int.from_bytes(data, "big", signed=True), end
        return (data.decode() if tag == _V_STR else data), end
    if count * (2 if tag == _V_DICT else 1) > len(buf) - offset:
        raise CodecError("container count exceeds its frame")
    if tag == _V_DICT:
        mapping: Dict[Any, Any] = {}
        for _ in range(count):
            key, offset = _dec_value(buf, offset)
            mapping[key], offset = _dec_value(buf, offset)
        return mapping, offset
    items: List[Any] = []
    for _ in range(count):
        item, offset = _dec_value(buf, offset)
        items.append(item)
    if tag == _V_RECORD:
        if not all(check(item) for check, item in zip(checks, items)):
            raise CodecError(f"ill-typed {cls.__name__} record")
        return build(*items), offset
    return (tuple(items) if tag == _V_TUPLE else items), offset


def _dec_action(body: bytes) -> EngineActionMsg:
    creator, index, green_line, size, flags = _ACTION.unpack_from(body, 0)
    kind = flags & _A_TYPE
    if flags & ~_A_KNOWN or kind >= len(_ACTION_TYPE_BY_INDEX):
        raise CodecError(f"bad engine action flags 0x{flags:02x}")
    offset = _ACTION.size
    green_pos = join_id = leave_id = None
    if flags & _A_GREEN_POS:
        (green_pos,) = _SEQ.unpack_from(body, offset)
        offset += _SEQ.size
    if flags & _A_JOIN:
        (join_id,) = _SERVER.unpack_from(body, offset)
        offset += _SERVER.size
    if flags & _A_LEAVE:
        (leave_id,) = _SERVER.unpack_from(body, offset)
        offset += _SERVER.size
    client, offset = _dec_value(body, offset)
    query, offset = _dec_value(body, offset)
    update, offset = _dec_value(body, offset)
    meta, offset = _dec_value(body, offset)
    if offset != len(body):
        raise CodecError("trailing bytes in EngineActionMsg body")
    action = Action(ActionId(creator, index), client, query, update,
                    _ACTION_TYPE_BY_INDEX[kind], join_id, leave_id, size,
                    meta)
    return EngineActionMsg(action, green_line, green_pos,
                           bool(flags & _A_RETRANS))


def _dec_value_item(body: bytes) -> Any:
    value, end = _dec_value(body, 0)
    if end != len(body):
        raise CodecError("trailing bytes in value body")
    return value


_DECODERS: Dict[int, Callable[[bytes], Any]] = {
    TAG_DATA: _dec_data,
    TAG_STAMP: _dec_stamp,
    TAG_ACK: _dec_ack,
    TAG_RETRANS: _dec_retrans,
    TAG_ACTION: _dec_action,
    TAG_VALUE: _dec_value_item,
}


def _decode_item(buf: bytes, offset: int) -> Tuple[Any, int]:
    _need(buf, offset, _ITEM.size)
    tag, length = _ITEM.unpack_from(buf, offset)
    offset += _ITEM.size
    _need(buf, offset, length)
    body = buf[offset:offset + length]
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise CodecError(f"unknown payload tag {tag}")
    return decoder(body), offset + length


def decode_frame(blob: bytes) -> Tuple[int, Any]:
    """Decode one wire frame; returns ``(src, payload)``.

    Raises :class:`CodecError` on anything malformed — callers count a
    drop and carry on, mirroring UDP semantics.
    """
    _need(blob, 0, _HEADER.size)
    magic, version, src = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CodecError(f"bad magic byte 0x{magic:02x}")
    if version != VERSION:
        raise CodecError(f"unsupported wire version {version}")
    try:
        payload, end = _decode_item(blob, _HEADER.size)
    except CodecError:
        raise
    except (IndexError, struct.error, ValueError, TypeError,
            RecursionError) as exc:
        # Truncated, an unknown service level, a non-utf-8 string, an
        # unhashable dict key, an applied log of partial words, or
        # nesting past the interpreter's limit.
        raise CodecError(f"malformed frame: {exc!r}") from None
    if end != len(blob):
        raise CodecError("trailing bytes after frame payload")
    return src, payload
