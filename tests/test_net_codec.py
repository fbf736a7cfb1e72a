"""Binary wire codec: differential round-trips and frame fuzzing."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcs.channel import ChanAck, ChanData
from repro.gcs.types import (AckMsg, DataMsg, HeartbeatMsg, NackMsg,
                             RetransDataMsg, ServiceLevel, StampMsg,
                             TokenMsg, ViewId)
from repro.net import codec
from repro.net.batching import Batch

VIEW = ViewId(3, 1)

#: One of every wire type the codec packs compactly, plus payloads that
#: must take the pickle escape hatch.
CORPUS = [
    DataMsg(VIEW, 2, 7, ("SET", "k", 1), ServiceLevel.SAFE, 180),
    DataMsg(VIEW, 14, 0, None, ServiceLevel.AGREED, 48),
    # trace-context field (wire v2): traced data and channel payloads
    DataMsg(VIEW, 2, 8, ("SET", "k", 2), ServiceLevel.SAFE, 180,
            (2 << 32) | 8),
    ChanData(1, 10, {"state": [4]}, 320, (1 << 62) | 12345),
    StampMsg(VIEW, ((5, 2, 7), (6, 3, 0))),
    StampMsg(VIEW, ()),
    AckMsg(VIEW, 4, 1234),
    HeartbeatMsg(9, VIEW, True, 55),
    HeartbeatMsg(9, None, False, -1),
    # namespaced heartbeats of a shard fabric (group != 0)
    HeartbeatMsg(109, VIEW, True, 55, 1),
    HeartbeatMsg(209, None, False, -1, 2),
    # durable green line (wire v3)
    HeartbeatMsg(9, VIEW, True, 55, 0, 3627),
    HeartbeatMsg(109, None, True, -1, 1, 2 ** 40),
    TokenMsg(VIEW, 42, ((1, 40), (2, 41))),
    NackMsg(VIEW, 3, (7, 9, 11), 5),
    NackMsg(VIEW, 3, (), 0),
    RetransDataMsg(VIEW, ((5, 2, 7, ("SET", "k", 1), ServiceLevel.SAFE,
                           180, (2 << 32) | 7),)),
    RetransDataMsg(VIEW, ()),
    ChanData(1, 9, {"state": [1, 2, 3]}, 320),
    ChanAck(2, 17),
    Batch([(AckMsg(VIEW, 4, 8), 64),
           (DataMsg(VIEW, 2, 7, "x", ServiceLevel.SAFE, 120), 120)]),
    # escape-hatch payloads: no dedicated encoder
    ("raw", "tuple"),
    {"a": 1},
    None,
]


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


def test_nested_batch_roundtrip():
    inner = Batch([(ChanAck(1, 3), 64), (("app", "payload"), 90)])
    outer = Batch([(inner, 200), (AckMsg(VIEW, 2, 5), 64)])
    _src, decoded = codec.decode_frame(codec.encode_frame(3, outer))
    assert decoded == outer


def test_out_of_range_field_takes_escape_hatch():
    # size exceeds the packed i32: the encoder must fall back to
    # pickle rather than corrupt or crash.
    msg = DataMsg(VIEW, 2, 7, "x", ServiceLevel.SAFE, 2 ** 40)
    blob = codec.encode_frame(1, msg)
    assert blob[codec._HEADER.size] == codec.TAG_PICKLE
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
    length)."""
    assert codec.VERSION == 3
    for old in (1, 2):
        frame = codec._HEADER.pack(codec.MAGIC, old, 7) \
            + codec.encode_payload(("x",))
        with pytest.raises(codec.CodecError,
                           match=f"wire version {old}"):
            codec.decode_frame(frame)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1))
def test_trace_field_roundtrips_any_64bit_value(trace):
    """The trace-context id survives the frame for the full signed
    64-bit range, on both traced wire types."""
    data = DataMsg(VIEW, 2, 7, ("SET", "k", 1), ServiceLevel.SAFE,
                   180, trace)
    assert codec.decode_frame(codec.encode_frame(1, data))[1] == data
    chan = ChanData(1, 9, "payload", 64, trace)
    assert codec.decode_frame(codec.encode_frame(1, chan))[1] == chan


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
       st.booleans())
def test_heartbeat_green_line_roundtrips_any_64bit_value(line, in_view):
    """The durable green line survives the compact heartbeat encoding
    for the full signed 64-bit range, with and without a view id."""
    msg = HeartbeatMsg(4, VIEW if in_view else None, in_view, 12, 1, line)
    blob = codec.encode_frame(1, msg)
    assert blob[codec._HEADER.size] == codec.TAG_HEARTBEAT
    assert codec.decode_frame(blob)[1] == msg


def test_heartbeat_green_line_out_of_range_takes_escape_hatch():
    msg = HeartbeatMsg(4, VIEW, True, 12, 0, 2 ** 64)
    blob = codec.encode_frame(1, msg)
    assert blob[codec._HEADER.size] == codec.TAG_PICKLE
    assert codec.decode_frame(blob)[1] == msg


def test_trace_field_out_of_range_takes_escape_hatch():
    msg = DataMsg(VIEW, 2, 7, "x", ServiceLevel.SAFE, 180, 2 ** 64)
    blob = codec.encode_frame(1, msg)
    assert blob[codec._HEADER.size] == codec.TAG_PICKLE
    assert codec.decode_frame(blob)[1] == msg


def test_untraced_messages_default_to_trace_zero():
    msg = DataMsg(VIEW, 2, 7, "x", ServiceLevel.SAFE, 180)
    assert codec.decode_frame(codec.encode_frame(1, msg))[1].trace == 0


def test_unknown_tag_raises():
    frame = codec._HEADER.pack(codec.MAGIC, codec.VERSION, 1) \
        + codec._ITEM.pack(250, 0)
    with pytest.raises(codec.CodecError):
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
    st.none() | st.booleans() | st.integers() | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=10))
def test_random_payloads_roundtrip(payload):
    """Any picklable application payload survives the frame."""
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
