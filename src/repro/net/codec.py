"""Struct-packed binary wire codec for live transports.

``AsyncioTransport`` used to pickle every datagram separately; this
module replaces that with a compact framed format:

frame   := magic(u8) version(u8) src(i32) item
item    := tag(u8) length(u32) body
body    := struct-packed fields of the hot message types; nested
           application payloads recurse into another *item*

Hot GCS/channel message types get dedicated encoders (a DataMsg header
packs to 33 bytes — including the trace-context id — vs ~200 for its
pickle), and so does the engine's per-action message
(:class:`~repro.core.messages.EngineActionMsg`, :data:`TAG_ACTION`):
its fixed fields are struct-packed, and the free-form ``client``,
``query``, ``update`` and ``meta`` travel as *plain values* — ``None``,
``bool``, 64-bit ``int``, ``float``, ``str``, ``bytes``, ``tuple``,
``list`` and ``dict`` of those, each tagged and length-checked.
Decoding an engine action therefore never resolves a global or calls
anything, and every count is checked against the bytes left before a
container is built, so a corrupt frame costs time and memory bounded
by its length.  (Neither ``marshal`` nor a restricted unpickler gives
that bound: a corrupted length or memo index makes them pre-allocate
or zero gigabytes for a frame of a few bytes.)

Everything else — an engine action holding any other value type,
exchange/CPC/membership messages, snapshot chunks, arbitrary
application payloads — falls back whole to the :data:`TAG_PICKLE`
escape hatch, so the codec never constrains what the protocol can
carry.  A :class:`Batch` encodes its entries recursively, so one UDP
datagram carries many compact payloads.

Trust model: the pickle escape hatch means frames must only be accepted
from trusted endpoints, exactly like the previous all-pickle format —
every node of a deployment is part of one trust domain (the same
assumption ``multiprocessing`` makes).  Do not expose transport ports
to untrusted networks.  Malformed or truncated frames raise
:class:`CodecError`, which receive loops turn into a counted drop —
garbage off the wire must never crash the daemon.

This is deliberately the **only** module in the repository that touches
``struct``-level framing (enforced by ``tests/test_import_policy.py``):
one place to audit wire compatibility, one place to bump ``VERSION``.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Callable, Dict, List, Tuple

from ..core.messages import EngineActionMsg
from ..db.action import Action, ActionId, ActionType
from ..gcs.types import (AckMsg, ChanAck, ChanData, DataMsg, HeartbeatMsg,
                         NackMsg, RetransDataMsg, ServiceLevel, StampMsg,
                         ViewId)
from .batching import Batch


class CodecError(ValueError):
    """A frame failed to decode (truncated, garbled, unknown tag)."""


MAGIC = 0xC3
# Version 2: DataMsg, ChanData, and retransmission items carry a
# signed 64-bit trace-context field (0 = untraced).  Version 3: the
# HeartbeatMsg body ends with the sender's durable green line.
# Version 4: engine actions have their own tag instead of a pickle.
# Version 5: the HeartbeatMsg body drops its group-namespace field.
# Frames of any other version are rejected with :class:`CodecError` — a
# mixed-version peer would otherwise be misparsed, not refused.
VERSION = 5

TAG_PICKLE = 0
TAG_BATCH = 1
TAG_DATA = 2
TAG_STAMP = 3
TAG_ACK = 4
TAG_HEARTBEAT = 5
# Tag 6 (a retired ordering message) decodes as unknown; never reuse it.
TAG_NACK = 7
TAG_RETRANS = 8
TAG_CHANDATA = 9
TAG_CHANACK = 10
TAG_ACTION = 11

_HEADER = struct.Struct("!BBi")          # magic, version, src
_ITEM = struct.Struct("!BI")             # tag, body length
_COUNT = struct.Struct("!I")
_DATA = struct.Struct("!iiiqBiq")        # view, origin, fifo, svc, size,
                                         # trace
_STAMP_ENTRY = struct.Struct("!qiq")     # seq, origin, fifo_seq
_VIEW_COUNT = struct.Struct("!iiI")      # view + entry count
_ACK = struct.Struct("!iiiq")            # view, node, ack_seq
_HEARTBEAT = struct.Struct("!iB")        # node, flags
_HEARTBEAT_TAIL = struct.Struct("!qq")   # ack_seq, green_line
_VIEW = struct.Struct("!ii")
_SEQ = struct.Struct("!q")
_NACK = struct.Struct("!iiiqI")          # view, node, want, missing count
_RETRANS_ITEM = struct.Struct("!qiqBiq")  # seq, origin, fifo, svc,
                                          # size, trace
_CHANDATA = struct.Struct("!iqiq")       # src, seq, size, trace
_CHANACK = struct.Struct("!iq")          # src, ack_seq
_SIZE = struct.Struct("!i")
_ACTION = struct.Struct("!iqqiB")        # creator, index, message green
                                         # line, size, flags
_ACTION_ID = struct.Struct("!iq")        # Action.green_line
_SERVER = struct.Struct("!i")            # join_id / leave_id

# Engine-action flags.  The low two bits are the ActionType index; each
# set presence bit appends its optional field after the fixed part, in
# bit order.
_A_TYPE = 0x03
_A_RETRANS = 0x04
_A_GREEN_POS = 0x08                      # + _SEQ
_A_JOIN = 0x10                           # + _SERVER
_A_LEAVE = 0x20                          # + _SERVER
_A_LINE = 0x40                           # + _ACTION_ID
_A_KNOWN = 0x7F

# Plain-value tags of an engine action's free-form fields.
_V_NONE = 0
_V_FALSE = 1
_V_TRUE = 2
_V_INT = 3                               # + i64
_V_FLOAT = 4                             # + f64
_V_STR = 5                               # + u32 length, utf-8
_V_BYTES = 6                             # + u32 length, raw
_V_TUPLE = 7                             # + u32 count, items
_V_LIST = 8                              # + u32 count, items
_V_DICT = 9                              # + u32 count, key/value pairs
_V_HEAD = struct.Struct("!BI")           # tag + length or count
_V_INT_ITEM = struct.Struct("!Bq")
_V_FLOAT_ITEM = struct.Struct("!Bd")
_V_NONE_ITEM = bytes((_V_NONE,))
_V_FALSE_ITEM = bytes((_V_FALSE,))
_V_TRUE_ITEM = bytes((_V_TRUE,))

_SERVICE_INDEX = {level: index for index, level
                  in enumerate(ServiceLevel)}
_SERVICE_BY_INDEX = tuple(ServiceLevel)
_ACTION_TYPE_INDEX = {kind: index for index, kind
                      in enumerate(ActionType)}
_ACTION_TYPE_BY_INDEX = tuple(ActionType)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _enc_view(view_id: ViewId) -> bytes:
    return _VIEW.pack(view_id.epoch, view_id.coordinator)


def _enc_data(msg: DataMsg) -> bytes:
    return (_DATA.pack(msg.view_id.epoch, msg.view_id.coordinator,
                       msg.origin, msg.fifo_seq,
                       _SERVICE_INDEX[msg.service], msg.size, msg.trace)
            + encode_payload(msg.payload))


def _enc_stamp(msg: StampMsg) -> bytes:
    parts = [_VIEW_COUNT.pack(msg.view_id.epoch, msg.view_id.coordinator,
                              len(msg.stamps))]
    parts.extend(_STAMP_ENTRY.pack(*stamp) for stamp in msg.stamps)
    return b"".join(parts)


def _enc_ack(msg: AckMsg) -> bytes:
    return _ACK.pack(msg.view_id.epoch, msg.view_id.coordinator,
                     msg.node, msg.ack_seq)


def _enc_heartbeat(msg: HeartbeatMsg) -> bytes:
    flags = (1 if msg.joined else 0) | (2 if msg.view_id is not None else 0)
    body = _HEARTBEAT.pack(msg.node, flags)
    if msg.view_id is not None:
        body += _enc_view(msg.view_id)
    return body + _HEARTBEAT_TAIL.pack(msg.ack_seq, msg.green_line)


def _enc_nack(msg: NackMsg) -> bytes:
    parts = [_NACK.pack(msg.view_id.epoch, msg.view_id.coordinator,
                        msg.node, msg.want_stamps_from,
                        len(msg.missing_data))]
    parts.extend(_SEQ.pack(seq) for seq in msg.missing_data)
    return b"".join(parts)


def _enc_retrans(msg: RetransDataMsg) -> bytes:
    parts = [_VIEW_COUNT.pack(msg.view_id.epoch, msg.view_id.coordinator,
                              len(msg.items))]
    for seq, origin, fifo_seq, payload, service, size, trace in msg.items:
        parts.append(_RETRANS_ITEM.pack(seq, origin, fifo_seq,
                                        _SERVICE_INDEX[service], size,
                                        trace))
        parts.append(encode_payload(payload))
    return b"".join(parts)


def _enc_chandata(msg: ChanData) -> bytes:
    return (_CHANDATA.pack(msg.src, msg.seq, msg.size, msg.trace)
            + encode_payload(msg.payload))


def _enc_chanack(msg: ChanAck) -> bytes:
    return _CHANACK.pack(msg.src, msg.ack_seq)


def _enc_batch(batch: Batch) -> bytes:
    parts = [_COUNT.pack(len(batch.entries))]
    for payload, size in batch.entries:
        parts.append(_SIZE.pack(size))
        parts.append(encode_payload(payload))
    return b"".join(parts)


def _enc_value(value: Any, parts: List[bytes]) -> None:
    """Append one plain value; TypeError for anything else (exact
    builtin types only: an IntEnum or a str subclass would come back as
    its base type, so it takes the escape hatch instead)."""
    cls = value.__class__
    if cls is str:
        data = value.encode()
        parts.append(_V_HEAD.pack(_V_STR, len(data)))
        parts.append(data)
    elif value is None:
        parts.append(_V_NONE_ITEM)
    elif cls is int:
        parts.append(_V_INT_ITEM.pack(_V_INT, value))
    elif cls is tuple or cls is list:
        parts.append(_V_HEAD.pack(_V_TUPLE if cls is tuple else _V_LIST,
                                  len(value)))
        for item in value:
            _enc_value(item, parts)
    elif cls is dict:
        parts.append(_V_HEAD.pack(_V_DICT, len(value)))
        for key, item in value.items():
            _enc_value(key, parts)
            _enc_value(item, parts)
    elif cls is bool:
        parts.append(_V_TRUE_ITEM if value else _V_FALSE_ITEM)
    elif cls is float:
        parts.append(_V_FLOAT_ITEM.pack(_V_FLOAT, value))
    elif cls is bytes:
        parts.append(_V_HEAD.pack(_V_BYTES, len(value)))
        parts.append(value)
    else:
        raise TypeError(f"not plain data: {cls.__name__}")


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
    if action.green_line is not None:
        flags |= _A_LINE
        parts.append(_ACTION_ID.pack(*action.green_line))
    creator, index = action.action_id
    parts[0] = _ACTION.pack(creator, index, msg.green_line, action.size,
                            flags)
    _enc_value(action.client, parts)
    _enc_value(action.query, parts)
    _enc_value(action.update, parts)
    _enc_value(action.meta, parts)
    return b"".join(parts)


_ENCODERS: Dict[type, Tuple[int, Callable[[Any], bytes]]] = {
    DataMsg: (TAG_DATA, _enc_data),
    StampMsg: (TAG_STAMP, _enc_stamp),
    AckMsg: (TAG_ACK, _enc_ack),
    HeartbeatMsg: (TAG_HEARTBEAT, _enc_heartbeat),
    NackMsg: (TAG_NACK, _enc_nack),
    RetransDataMsg: (TAG_RETRANS, _enc_retrans),
    ChanData: (TAG_CHANDATA, _enc_chandata),
    ChanAck: (TAG_CHANACK, _enc_chanack),
    Batch: (TAG_BATCH, _enc_batch),
    EngineActionMsg: (TAG_ACTION, _enc_action),
}


def encode_payload(obj: Any) -> bytes:
    """Encode one payload as a tagged item (compact when possible,
    pickled otherwise)."""
    entry = _ENCODERS.get(obj.__class__)
    if entry is not None:
        tag, encoder = entry
        try:
            body = encoder(obj)
            return _ITEM.pack(tag, len(body)) + body
        except (struct.error, OverflowError, KeyError, TypeError,
                ValueError, RecursionError):
            # A field out of the packed range, an exotic subtype, a
            # value that is not plain data, or an unexpected item
            # shape: the escape hatch below carries it.
            pass
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _ITEM.pack(TAG_PICKLE, len(body)) + body


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


def _service(index: int) -> ServiceLevel:
    if not 0 <= index < len(_SERVICE_BY_INDEX):
        raise CodecError(f"unknown service level {index}")
    return _SERVICE_BY_INDEX[index]


def _dec_pickle(body: bytes) -> Any:
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise CodecError(f"bad pickled payload: {exc!r}") from None


def _dec_data(body: bytes) -> DataMsg:
    _need(body, 0, _DATA.size)
    epoch, coord, origin, fifo_seq, svc, size, trace = \
        _DATA.unpack_from(body, 0)
    payload, end = _decode_item(body, _DATA.size)
    if end != len(body):
        raise CodecError("trailing bytes in DataMsg body")
    return DataMsg(ViewId(epoch, coord), origin, fifo_seq, payload,
                   _service(svc), size, trace)


def _dec_stamp(body: bytes) -> StampMsg:
    _need(body, 0, _VIEW_COUNT.size)
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


def _dec_heartbeat(body: bytes) -> HeartbeatMsg:
    _need(body, 0, _HEARTBEAT.size)
    node, flags = _HEARTBEAT.unpack_from(body, 0)
    offset = _HEARTBEAT.size
    view_id = None
    if flags & 2:
        _need(body, offset, _VIEW.size)
        view_id = ViewId(*_VIEW.unpack_from(body, offset))
        offset += _VIEW.size
    _need(body, offset, _HEARTBEAT_TAIL.size)
    ack_seq, green_line = _HEARTBEAT_TAIL.unpack_from(body, offset)
    if offset + _HEARTBEAT_TAIL.size != len(body):
        raise CodecError("trailing bytes in HeartbeatMsg body")
    return HeartbeatMsg(node, view_id, bool(flags & 1), ack_seq,
                        green_line)


def _dec_nack(body: bytes) -> NackMsg:
    _need(body, 0, _NACK.size)
    epoch, coord, node, want, count = _NACK.unpack_from(body, 0)
    _need(body, _NACK.size, count * _SEQ.size)
    missing = tuple(
        _SEQ.unpack_from(body, _NACK.size + i * _SEQ.size)[0]
        for i in range(count))
    if _NACK.size + count * _SEQ.size != len(body):
        raise CodecError("trailing bytes in NackMsg body")
    return NackMsg(ViewId(epoch, coord), node, missing, want)


def _dec_retrans(body: bytes) -> RetransDataMsg:
    _need(body, 0, _VIEW_COUNT.size)
    epoch, coord, count = _VIEW_COUNT.unpack_from(body, 0)
    offset = _VIEW_COUNT.size
    items: List[Tuple] = []
    for _ in range(count):
        _need(body, offset, _RETRANS_ITEM.size)
        seq, origin, fifo_seq, svc, size, trace = \
            _RETRANS_ITEM.unpack_from(body, offset)
        payload, offset = _decode_item(body, offset + _RETRANS_ITEM.size)
        items.append((seq, origin, fifo_seq, payload, _service(svc),
                      size, trace))
    if offset != len(body):
        raise CodecError("trailing bytes in RetransDataMsg body")
    return RetransDataMsg(ViewId(epoch, coord), tuple(items))


def _dec_chandata(body: bytes) -> ChanData:
    _need(body, 0, _CHANDATA.size)
    src, seq, size, trace = _CHANDATA.unpack_from(body, 0)
    payload, end = _decode_item(body, _CHANDATA.size)
    if end != len(body):
        raise CodecError("trailing bytes in ChanData body")
    return ChanData(src, seq, payload, size, trace)


def _dec_chanack(body: bytes) -> ChanAck:
    if len(body) != _CHANACK.size:
        raise CodecError("bad ChanAck body size")
    src, ack_seq = _CHANACK.unpack(body)
    return ChanAck(src, ack_seq)


def _dec_batch(body: bytes) -> Batch:
    _need(body, 0, _COUNT.size)
    (count,) = _COUNT.unpack_from(body, 0)
    offset = _COUNT.size
    entries: List[Tuple[Any, int]] = []
    for _ in range(count):
        _need(body, offset, _SIZE.size)
        (size,) = _SIZE.unpack_from(body, offset)
        payload, offset = _decode_item(body, offset + _SIZE.size)
        entries.append((payload, size))
    if offset != len(body):
        raise CodecError("trailing bytes in Batch body")
    return Batch(entries)


def _dec_value(buf: bytes, offset: int) -> Tuple[Any, int]:
    """One plain value at ``offset``; returns it and the next offset.
    Every item takes at least one byte, so a count larger than the
    bytes left is refused before anything is built."""
    tag = buf[offset]
    if tag == _V_STR or tag == _V_BYTES:
        length = _V_HEAD.unpack_from(buf, offset)[1]
        start = offset + _V_HEAD.size
        end = start + length
        if end > len(buf):
            raise CodecError("truncated plain value")
        data = buf[start:end]
        return (data.decode() if tag == _V_STR else data), end
    if tag == _V_NONE:
        return None, offset + 1
    if tag == _V_INT:
        return (_V_INT_ITEM.unpack_from(buf, offset)[1],
                offset + _V_INT_ITEM.size)
    if tag == _V_TUPLE or tag == _V_LIST or tag == _V_DICT:
        count = _V_HEAD.unpack_from(buf, offset)[1]
        offset += _V_HEAD.size
        width = 2 if tag == _V_DICT else 1
        if count * width > len(buf) - offset:
            raise CodecError("plain container count exceeds its frame")
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
        return (tuple(items) if tag == _V_TUPLE else items), offset
    if tag == _V_FALSE or tag == _V_TRUE:
        return tag == _V_TRUE, offset + 1
    if tag == _V_FLOAT:
        return (_V_FLOAT_ITEM.unpack_from(buf, offset)[1],
                offset + _V_FLOAT_ITEM.size)
    raise CodecError(f"unknown plain value tag {tag}")


def _dec_action(body: bytes) -> EngineActionMsg:
    _need(body, 0, _ACTION.size)
    creator, index, green_line, size, flags = _ACTION.unpack_from(body, 0)
    kind = flags & _A_TYPE
    if flags & ~_A_KNOWN or kind >= len(_ACTION_TYPE_BY_INDEX):
        raise CodecError(f"bad engine action flags 0x{flags:02x}")
    offset = _ACTION.size
    green_pos = join_id = leave_id = None
    line = None
    if flags & _A_GREEN_POS:
        _need(body, offset, _SEQ.size)
        (green_pos,) = _SEQ.unpack_from(body, offset)
        offset += _SEQ.size
    if flags & _A_JOIN:
        _need(body, offset, _SERVER.size)
        (join_id,) = _SERVER.unpack_from(body, offset)
        offset += _SERVER.size
    if flags & _A_LEAVE:
        _need(body, offset, _SERVER.size)
        (leave_id,) = _SERVER.unpack_from(body, offset)
        offset += _SERVER.size
    if flags & _A_LINE:
        _need(body, offset, _ACTION_ID.size)
        line = ActionId(*_ACTION_ID.unpack_from(body, offset))
        offset += _ACTION_ID.size
    try:
        client, offset = _dec_value(body, offset)
        query, offset = _dec_value(body, offset)
        update, offset = _dec_value(body, offset)
        meta, offset = _dec_value(body, offset)
    except (IndexError, struct.error, UnicodeDecodeError, TypeError,
            RecursionError) as exc:
        # Truncated, a non-utf-8 string, an unhashable dict key, or
        # nesting past the interpreter's limit.
        raise CodecError(f"bad engine action value: {exc!r}") from None
    if offset != len(body):
        raise CodecError("trailing bytes in EngineActionMsg body")
    action = Action(ActionId(creator, index), line, client, query, update,
                    _ACTION_TYPE_BY_INDEX[kind], join_id, leave_id, size,
                    meta)
    return EngineActionMsg(action, green_line, green_pos,
                           bool(flags & _A_RETRANS))


_DECODERS: Dict[int, Callable[[bytes], Any]] = {
    TAG_PICKLE: _dec_pickle,
    TAG_DATA: _dec_data,
    TAG_STAMP: _dec_stamp,
    TAG_ACK: _dec_ack,
    TAG_HEARTBEAT: _dec_heartbeat,
    TAG_NACK: _dec_nack,
    TAG_RETRANS: _dec_retrans,
    TAG_CHANDATA: _dec_chandata,
    TAG_CHANACK: _dec_chanack,
    TAG_BATCH: _dec_batch,
    TAG_ACTION: _dec_action,
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
    payload, end = _decode_item(blob, _HEADER.size)
    if end != len(blob):
        raise CodecError("trailing bytes after frame payload")
    return src, payload
