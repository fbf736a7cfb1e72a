"""Binary wire codec: differential round-trips and frame fuzzing.

``pickle`` appears here only as a reference oracle: the codec never
uses it."""

import enum
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import EngineActionMsg, EngineCpcMsg, EngineStateMsg
from repro.core.reconfig import JoinRequest, TransferHeader
from repro.core.records import PrimComponent, Vulnerable
from repro.db import (Action, ActionId, AppliedLog, SnapshotChunk, is_plain,
                      join_action, leave_action)
from repro.gcs.types import (AckMsg, ChanAck, ChanData, DataMsg,
                             FlushDoneMsg, FlushPlanMsg, FlushRetransCmd,
                             GatherMsg, HeartbeatMsg, InstallMsg, LeaveMsg,
                             NackMsg, ProposeMsg, RetransDataMsg,
                             ServiceLevel, StampMsg, StateReportMsg, ViewId)
from repro.net import codec

VIEW = ViewId(3, 1)

#: Engine actions as the engine sends them (all take TAG_ACTION).
ENGINE_ACTIONS = [
    # fresh, as on the saturated hot path
    EngineActionMsg(Action(ActionId(2, 7), update=("SET", "c12", 3456)),
                    green_line=12000),
    # traced: the flight recorder's id and the staleness timestamp
    EngineActionMsg(Action(ActionId(2, 8), update=("SET", "k", 1),
                           meta={"trace": (2 << 32) | 8, "ts": 1.25}),
                    green_line=4),
    # exchange retransmission of a green action
    EngineActionMsg(Action(ActionId(3, 1), update=("SET", "k", 2),
                           client="client-3.1"),
                    green_line=9, green_pos=41, retrans=True),
    EngineActionMsg(join_action(ActionId(1, 5), 4)),
    EngineActionMsg(leave_action(ActionId(1, 6), 2), retrans=True),
    # query-only
    EngineActionMsg(Action(ActionId(1, 9), query=("GET", "k"))),
    # an active action with nested arguments
    EngineActionMsg(Action(ActionId(2, 9), update=(
        "CALL", "txn_prepare",
        (7, [("SET", "a", 1), ("DEL", "b")], {"keys": ["a", "b"],
                                              "blob": b"\x00\xff",
                                              "ok": True, "w": -0.5})))),
    # a None inside the update and a client id
    EngineActionMsg(Action(ActionId(3, 2), client=17,
                           update=("SET", "k", None)), green_line=40),
]

_VULNERABLE = Vulnerable("valid", 3, 9, (1, 2, 4), {1: True, 2: False,
                                                   4: True})
_LOG = AppliedLog([ActionId(1, 1), ActionId(2, 1), ActionId(1, 2)])

#: Every record kind of the wire, as the protocol sends it.
RECORD_CORPUS = [
    GatherMsg(4, 2, True),
    ProposeMsg(1, 2, (1, 2, 4)),
    StateReportMsg(2, 5, VIEW, ((5, 2, 7), (6, 3, 0)), (5, 6), 4),
    StateReportMsg(3, 1, None, (), (), -1),
    FlushPlanMsg(1, 5, VIEW, ((5, 2, 7), (70_000, 3, 2 ** 40)), (5,), 4),
    FlushRetransCmd(1, 5, 3, VIEW, (5, 6)),
    FlushDoneMsg(2, 5),
    InstallMsg(1, 5, ViewId(4, 1), (1, 2, 3), ((1, (1, 2)), (3, (3,)))),
    LeaveMsg(3),
    EngineStateMsg(2, VIEW, 40, {1: 12, 2: 30}, {1: 38, 2: 40}, 6,
                   PrimComponent(2, 6, (1, 2, 3)), _VULNERABLE, True,
                   (ActionId(1, 13), ActionId(2, 31))),
    EngineCpcMsg(2, VIEW),
    JoinRequest(4),
    JoinRequest(4, "t-2-17", 3),
    TransferHeader("t-2-17", (1, 2, 3, 4),
                   {"applied_count": 3, "applied_log": _LOG,
                    "applied_cut": {1: 2, 2: 1}}, (5,)),
    SnapshotChunk("t-2-17", 0, 2, (("k1", 3), ("k2", [1, "x", None]))),
]

#: One of every wire type the codec carries, struct-packed or as a
#: value.
CORPUS = [
    DataMsg(VIEW, 2, 7, ("SET", "k", 1), ServiceLevel.SAFE, 180),
    DataMsg(VIEW, 14, 0, None, ServiceLevel.AGREED, 48),
    # an engine action in its DataMsg, as the GCS sends it
    DataMsg(VIEW, 2, 8, ENGINE_ACTIONS[1], ServiceLevel.SAFE, 200),
    ChanData(1, 10, {"state": [4]}),
    StampMsg(VIEW, ((5, 2, 7), (6, 3, 0))),
    StampMsg(VIEW, ()),
    AckMsg(VIEW, 4, 1234),
    HeartbeatMsg(9, VIEW, True, 55),
    HeartbeatMsg(9, None, False, -1),
    # the other two flag combinations: in a view but not joined, and
    # joined without a view
    HeartbeatMsg(109, VIEW, False, 55),
    HeartbeatMsg(209, None, True, 0),
    # durable green line (wire v3)
    HeartbeatMsg(9, VIEW, True, 55, 3627),
    HeartbeatMsg(109, None, True, -1, 2 ** 40),
    NackMsg(VIEW, 3, (7, 9, 11), 5),
    NackMsg(VIEW, 3, (), 0),
    RetransDataMsg(VIEW, ((5, 2, 7, ("SET", "k", 1), ServiceLevel.SAFE,
                           180),)),
    RetransDataMsg(VIEW, ()),
    ChanData(1, 9, {"state": [1, 2, 3]}),
    ChanAck(2, 17),
    # plain values: one value item each
    ("raw", "tuple"),
    {"a": 1},
    None,
] + ENGINE_ACTIONS + RECORD_CORPUS


@pytest.mark.parametrize("payload", CORPUS,
                         ids=lambda p: type(p).__name__)
def test_differential_roundtrip_vs_pickle(payload):
    """decode(encode(m)) must equal pickle's round-trip of m."""
    blob = codec.encode_frame(7, payload)
    src, decoded = codec.decode_frame(blob)
    assert src == 7
    assert decoded == pickle.loads(pickle.dumps(payload))


def test_compact_encoding_beats_pickle_for_hot_types():
    msg = DataMsg(VIEW, 2, 7, ("SET", "key", 1), ServiceLevel.SAFE, 180)
    assert len(codec.encode_frame(1, msg)) < len(pickle.dumps(msg))
    ack = AckMsg(VIEW, 4, 1234)
    assert len(codec.encode_frame(1, ack)) < len(pickle.dumps(ack))
    action = ENGINE_ACTIONS[0]
    assert len(codec.encode_frame(1, action)) < len(pickle.dumps(action)) / 3
    # One fresh action in its DataMsg, as the GCS sends it.
    data = DataMsg(VIEW, 2, 7, action, ServiceLevel.SAFE, 200)
    assert len(codec.encode_frame(1, data)) <= 120


@pytest.mark.parametrize("msg", [
    # size beyond the packed i32
    DataMsg(VIEW, 2, 7, "x", ServiceLevel.SAFE, 2 ** 40),
    # a fifo sequence number beyond the packed i64
    DataMsg(VIEW, 2, 2 ** 64, "x", ServiceLevel.SAFE, 180),
], ids=["DataMsg-size", "DataMsg-fifo"])
def test_out_of_range_fields_are_refused(msg):
    """A field out of its packed range is refused whole with TypeError:
    nothing falls back to another encoding."""
    with pytest.raises(TypeError):
        codec.encode_frame(1, msg)


@pytest.mark.parametrize("msg", [
    ChanData(1, 2 ** 64, "payload"),
    HeartbeatMsg(4, VIEW, True, 12, 2 ** 64),
], ids=["ChanData-seq", "HeartbeatMsg-green-line"])
def test_record_fields_beyond_64_bits_roundtrip(msg):
    """A record's int field has no packed range: past 64 bits it takes
    the sized int kind."""
    blob = codec.encode_frame(1, msg)
    assert blob[codec._HEADER.size] == codec.TAG_VALUE
    assert codec.decode_frame(blob)[1] == msg


def test_bad_magic_and_version_raise():
    blob = bytearray(codec.encode_frame(1, ("x",)))
    garbled = bytes([blob[0] ^ 0xFF]) + bytes(blob[1:])
    with pytest.raises(codec.CodecError):
        codec.decode_frame(garbled)
    bumped = bytes([blob[0], blob[1] + 1]) + bytes(blob[2:])
    with pytest.raises(codec.CodecError):
        codec.decode_frame(bumped)


def test_version1_frames_are_rejected():
    """Frames of an older wire version must be refused, not mis-decoded:
    v1 DataMsg/ChanData bodies lack the trace field and v2 heartbeats
    lack the green line, so a silent accept would shear every field
    after the header (v2 heartbeat bodies would even fail only on
    length), a v3 peer pickles the engine actions a v4 peer no longer
    unpickles, v4 heartbeats carry a group field v5 dropped, a v5
    peer pickles what v6 sends as records, and v6 carries the fields
    v7 deleted."""
    assert codec.VERSION == 7
    for old in (1, 2, 3, 4, 5, 6):
        frame = codec._HEADER.pack(codec.MAGIC, old, 7) \
            + codec.encode_payload(("x",))
        with pytest.raises(codec.CodecError,
                           match=f"wire version {old}"):
            codec.decode_frame(frame)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
       st.booleans())
def test_heartbeat_green_line_roundtrips_any_64bit_value(line, in_view):
    """The durable green line survives the compact heartbeat encoding
    for the full signed 64-bit range, with and without a view id."""
    msg = HeartbeatMsg(4, VIEW if in_view else None, in_view, 12, line)
    blob = codec.encode_frame(1, msg)
    assert blob[codec._HEADER.size] == codec.TAG_VALUE
    assert codec.decode_frame(blob)[1] == msg


def test_unknown_tag_raises():
    # Retired tags — 0 the pickle escape hatch, 1 the wire-batch frame,
    # 6 the token ring, 5/7/9/10 the heartbeat, NACK and channel
    # layouts — may not decode as anything, whatever their body.
    body = pickle.dumps(("x",))
    for tag in (250, 0, 1, 5, 6, 7, 9, 10):
        for payload in (b"", body):
            frame = codec._HEADER.pack(codec.MAGIC, codec.VERSION, 1) \
                + codec._ITEM.pack(tag, len(payload)) + payload
            with pytest.raises(codec.CodecError,
                               match="unknown payload tag"):
                codec.decode_frame(frame)


def test_trailing_bytes_raise():
    blob = codec.encode_frame(1, AckMsg(VIEW, 4, 8))
    with pytest.raises(codec.CodecError):
        codec.decode_frame(blob + b"\x00")


@pytest.mark.parametrize("payload", CORPUS,
                         ids=lambda p: type(p).__name__)
def test_every_truncation_raises_cleanly(payload):
    blob = codec.encode_frame(5, payload)
    for cut in range(len(blob)):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(blob[:cut])


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_random_bytes_never_crash(blob):
    """Arbitrary garbage must raise CodecError, never anything else."""
    try:
        codec.decode_frame(blob)
    except codec.CodecError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.text(max_size=20) | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=10))
def test_random_payloads_roundtrip(payload):
    """Any plain value survives the frame."""
    src, decoded = codec.decode_frame(codec.encode_frame(2, payload))
    assert src == 2
    assert decoded == payload


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=400), st.integers(0, 255))
def test_single_byte_corruption_is_contained(pos, value):
    """Flipping any byte either decodes (to *something*) or raises
    CodecError — never an unhandled exception."""
    msg = DataMsg(VIEW, 2, 7, ("SET", "k", 1), ServiceLevel.SAFE, 180)
    blob = bytearray(codec.encode_frame(1, msg))
    blob[pos % len(blob)] = value
    try:
        codec.decode_frame(bytes(blob))
    except codec.CodecError:
        pass


# ----------------------------------------------------------------------
# engine actions (TAG_ACTION)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("msg", ENGINE_ACTIONS,
                         ids=lambda m: str(m.action.action_id))
def test_engine_actions_take_their_own_tag(msg):
    blob = codec.encode_frame(1, msg)
    assert blob[codec._HEADER.size] == codec.TAG_ACTION
    assert codec.decode_frame(blob)[1] == msg


def _shape(value):
    """``value`` with every container and leaf tagged by its exact type,
    so equality also compares types (``(1,) == [1]`` is False here, and
    ``True == 1`` is too)."""
    if isinstance(value, (tuple, list)):
        return (type(value), [_shape(item) for item in value])
    if isinstance(value, dict):
        return (dict, [(_shape(k), _shape(v)) for k, v in value.items()])
    return (type(value), value)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_KEYS = _TEXT | st.integers() | st.binary(max_size=8)
_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | _TEXT | st.binary(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_PLAIN, _PLAIN, _PLAIN)
def test_plain_values_roundtrip_type_exactly(update, meta_value, client):
    """Plain data in the free-form fields survives the compact encoding
    with every type intact: a tuple stays a tuple, a list a list, bytes
    bytes — no pickle involved."""
    msg = EngineActionMsg(Action(ActionId(1, 2), client=client,
                                 update=update, meta={"v": meta_value}))
    blob = codec.encode_frame(1, msg)
    assert blob[codec._HEADER.size] == codec.TAG_ACTION
    decoded = codec.decode_frame(blob)[1]
    assert decoded == msg
    assert _shape(decoded.action.update) == _shape(update)
    assert _shape(decoded.action.meta) == _shape({"v": meta_value})
    assert _shape(decoded.action.client) == _shape(client)


class _Level(enum.IntEnum):
    HIGH = 2


class _Name(str):
    pass


class _Opaque:
    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Opaque) and other.value == self.value


@pytest.mark.parametrize("value", [_Level.HIGH, _Name("k"), _Opaque(3),
                                   {1, 2}, "\ud800"],
                         ids=["IntEnum", "str-subclass", "object",
                              "set", "lone-surrogate"])
def test_non_plain_values_are_refused(value):
    """A value outside the grammar is refused whole, in an action and
    as a payload of its own, and the submission predicate agrees."""
    msg = EngineActionMsg(Action(ActionId(1, 2), update=("SET", "k", value)))
    for payload in (msg, value, [value]):
        with pytest.raises(TypeError):
            codec.encode_frame(1, payload)
    assert not is_plain(value)
    assert not is_plain(("SET", "k", value))


def test_big_ints_are_plain_values():
    """An int of any size is plain data, in an action and as a payload
    of its own: INC has no bound on a sum, and a snapshot must carry
    whatever the database holds."""
    for value in (2 ** 64, -2 ** 64, 2 ** 63, -2 ** 63 - 1, 7 ** 400):
        msg = EngineActionMsg(Action(ActionId(1, 2),
                                     update=("SET", "k", value)))
        for payload in (msg, value, [value],
                        SnapshotChunk("t", 0, 1, (("k", value),))):
            assert codec.decode_frame(codec.encode_frame(1, payload)) \
                == (1, payload)
        assert is_plain(value)


def _codec_takes(value):
    """The codec's own check: does an action holding ``value`` encode?"""
    try:
        codec.encode_payload(EngineActionMsg(Action(ActionId(1, 2),
                                                    update=value)))
    except TypeError:
        return False
    return True


_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
              min_size=1, max_size=2)
    | st.binary(max_size=8) | st.sets(st.integers(), max_size=2)
    | st.sampled_from([_Level.HIGH, _Name("k"), _Opaque(1),
                       frozenset({1}), 1j]),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, children, max_size=3),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_ANY)
def test_is_plain_agrees_with_the_codec(value):
    """The submission predicate, defined below both the engine and the
    codec, accepts exactly what the codec encodes in an action."""
    assert is_plain(value) == _codec_takes(value)


def test_records_are_wire_values_but_not_submissions():
    """The codec also carries the protocol's own records; a client
    submission may not hold one."""
    assert _codec_takes(("SET", "k", VIEW))
    assert not is_plain(("SET", "k", VIEW))


def test_record_table_is_the_wire_vocabulary():
    """Exactly the protocol's cold types are records; the five hot
    types keep their struct layouts."""
    assert {row[0] for row in codec.RECORDS} == {
        type(msg) for msg in RECORD_CORPUS} | {
        ViewId, ActionId, PrimComponent, Vulnerable, AppliedLog,
        HeartbeatMsg, NackMsg, ChanData, ChanAck}
    assert set(codec._ENCODERS) == {DataMsg, StampMsg, AckMsg,
                                    RetransDataMsg, EngineActionMsg}


@pytest.mark.parametrize("msg", RECORD_CORPUS + [HeartbeatMsg(9, VIEW,
                                                              True, 55)],
                         ids=lambda m: type(m).__name__)
def test_records_are_smaller_than_their_pickles(msg):
    assert len(codec.encode_payload(msg)) < len(pickle.dumps(msg))


def test_compact_ints_take_the_fewest_bytes():
    for value, size in ((0, 2), (-128, 2), (127, 2), (128, 3),
                        (-32768, 3), (32768, 5), (2 ** 31, 9),
                        (-2 ** 63, 9), (2 ** 63, 11), (-2 ** 63 - 1, 11),
                        (2 ** 2032, 257), (2 ** 2040, 261)):
        parts = []
        codec._enc_value(value, parts)
        assert len(b"".join(parts)) == size, value
        assert codec._dec_value(b"".join(parts), 0) == (value, size)


@pytest.mark.parametrize("msg", [
    HeartbeatMsg(4, VIEW, True, 0, "x"),
    HeartbeatMsg(4, VIEW, True, 0, 1.5),
    HeartbeatMsg(4, VIEW, 1, 0, 3),
    HeartbeatMsg(4, (3, 1), True, 0, 3),
    NackMsg(VIEW, 3, ("x",), 5),
    StateReportMsg(2, 5, VIEW, ((5, 2),), (5,), 4),
    InstallMsg(1, 5, VIEW, (1, 2), ((1, [1, 2]),)),
    EngineStateMsg(2, VIEW, 40, {1: "12"}, {}, 6,
                   PrimComponent(2, 6, (1,)), _VULNERABLE, True, ()),
    JoinRequest(4, 17, 3),
], ids=["green-line-str", "green-line-float", "joined-int",
        "view-id-tuple", "nack-seq-str", "stamp-arity", "trans-set-list",
        "red-cut-str", "transfer-id-int"])
def test_ill_typed_records_are_refused(msg):
    """A well-formed frame whose record fields do not match the class's
    annotations is refused: the protocol never sees, say, a heartbeat
    whose green line is a string."""
    blob = codec.encode_frame(1, msg)
    with pytest.raises(codec.CodecError, match="ill-typed"):
        codec.decode_frame(blob)


_RESOLVED = []


def _resolved():        # what a GLOBAL opcode below would name
    _RESOLVED.append(True)


def test_engine_action_body_never_resolves_a_global():
    """A pickle program where a plain value belongs is refused as an
    unknown value tag: nothing is imported, looked up or called."""
    fixed = codec._ACTION.pack(1, 2, 0, 200, 0)
    program = (b"c" + __name__.encode() + b"\n_resolved\n)R.")
    for body in (fixed + program,
                 fixed + codec._V_NONE_ITEM * 3 + program):
        frame = (codec._HEADER.pack(codec.MAGIC, codec.VERSION, 1)
                 + codec._ITEM.pack(codec.TAG_ACTION, len(body)) + body)
        with pytest.raises(codec.CodecError, match="value tag"):
            codec.decode_frame(frame)
    assert _RESOLVED == []


def test_engine_action_counts_larger_than_the_frame_are_refused():
    """A corrupt count is checked against the bytes left before any
    container is built (``marshal`` would allocate it first)."""
    fixed = codec._ACTION.pack(1, 2, 0, 200, 0)
    for tag in (codec._V_TUPLE, codec._V_LIST, codec._V_DICT,
                codec._V_STR, codec._V_BYTES):
        body = fixed + codec._V_HEAD.pack(tag, 2 ** 32 - 1) + b"\x00" * 8
        frame = (codec._HEADER.pack(codec.MAGIC, codec.VERSION, 1)
                 + codec._ITEM.pack(codec.TAG_ACTION, len(body)) + body)
        with pytest.raises(codec.CodecError):
            codec.decode_frame(frame)


def _corruption_peak(payload):
    """Decode every value at every byte of ``payload``'s frame; each
    must decode or raise CodecError.  Returns the peak allocation."""
    blob = codec.encode_frame(1, payload)
    tracemalloc.start()
    try:
        for pos in range(len(blob)):
            corrupt = bytearray(blob)
            for value in range(256):
                corrupt[pos] = value
                try:
                    codec.decode_frame(bytes(corrupt))
                except codec.CodecError:
                    pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_every_single_byte_corruption_of_an_engine_action_is_bounded():
    """Every value at every byte of a traced action's frame either
    decodes or raises CodecError, and no corruption allocates more than
    a small multiple of the frame."""
    assert _corruption_peak(ENGINE_ACTIONS[1]) < 64 * 1024


def test_every_single_byte_corruption_of_a_record_is_bounded():
    """The same for records nesting records, a dict and an applied log
    (a corrupt class index or field count included)."""
    state = next(m for m in RECORD_CORPUS if type(m) is EngineStateMsg)
    header = next(m for m in RECORD_CORPUS if type(m) is TransferHeader)
    for msg in (state, header):
        assert _corruption_peak(msg) < 64 * 1024
