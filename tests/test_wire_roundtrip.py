"""The simulated wire through the live codec.

Every payload the simulator sends is replaced by its round trip
through :func:`repro.net.codec.encode_frame` and
:func:`~repro.net.codec.decode_frame`, over a run that takes the
protocol through load, a partition, a crash and recovery, a heal, a
lossy stretch, a join whose snapshot holds an int past 64 bits, and a
leave.  The run must be the same run: the
same event count and database digests as without the codec, every
decoded payload equal to the one sent, no item on the retired pickle
tag, and every record kind of the wire exercised.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.core import ReplicaCluster
from repro.db import SnapshotChunk
from repro.gcs.types import ChanData
from repro.net import codec
from repro.net.network import Network

_RECORD_NAMES = {row[0]: row[1] for row in codec.RECORDS}


def _records(value, found):
    """Add the class name of every record inside ``value`` to ``found``."""
    names = _RECORD_NAMES.get(type(value))
    if names is not None:
        found.add(type(value).__name__)
        for name in names:
            _records(getattr(value, name), found)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            _records(getattr(value, field.name), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _records(item, found)
    elif isinstance(value, dict):
        for key, item in value.items():
            _records(key, found)
            _records(item, found)


def _scenario():
    cluster = ReplicaCluster(3, seed=1)
    cluster.start_all(settle=1.0)

    def load(nodes, count, key, pause=0.05, burst=50):
        for i in range(count):
            cluster.submit(nodes[i % len(nodes)], ("SET", f"{key}{i % 16}",
                                                   i))
            if i % burst == burst - 1:
                cluster.run_for(pause)

    load((1, 2, 3), 300, "a")
    cluster.run_for(1.0)
    cluster.partition([1, 2], [3])
    load((1, 2), 60, "p")
    cluster.run_for(1.0)
    cluster.crash(2)
    cluster.run_for(1.0)
    cluster.recover(2)
    cluster.run_for(1.0)
    cluster.heal()
    cluster.run_for(2.0)
    # A lossy stretch, cut by a partition and healed inside it: NACKs,
    # retransmissions and flush retransmission commands.
    rng = random.Random(5)
    cluster.network.interceptor = lambda _datagram: rng.random() > 0.15
    load((1, 2, 3), 200, "l", pause=0.02, burst=20)
    cluster.partition([1], [2, 3])
    load((1, 2, 3), 30, "m", pause=0.02, burst=10)
    cluster.heal()
    cluster.run_for(1.0)
    cluster.network.interceptor = None
    # A database value past 64 bits, which the joiner's snapshot must
    # carry (INC has no bound on a sum).
    cluster.submit(1, ("SET", "big", 2 ** 64))
    cluster.submit(1, ("INC", "big", 2 ** 63))
    cluster.run_for(2.0)
    cluster.add_replica(4, peer=2)
    cluster.run_for(5.0)
    cluster.replicas[3].leave()
    cluster.run_for(3.0)
    cluster.assert_converged()
    assert cluster.replicas[4].database.state["big"] == 2 ** 64 + 2 ** 63
    digests = {node: replica.database.digest()
               for node, replica in cluster.replicas.items()}
    return cluster.sim.events_processed, digests


@pytest.fixture(scope="module")
def runs():
    plain = _scenario()
    tags, kinds = Counter(), set()
    unequal, chunks = [], []
    send_batch = Network._send_batch
    decode_item = codec._decode_item

    def through_the_codec(self, src, dsts, payload, size):
        src_out, decoded = codec.decode_frame(codec.encode_frame(src,
                                                                 payload))
        if src_out != src or decoded != payload:
            unequal.append(payload)
        _records(decoded, kinds)
        if type(decoded) is ChanData and type(decoded.payload) is \
                SnapshotChunk:
            chunks.append(decoded.payload)
        send_batch(self, src, dsts, decoded, size)

    def counted(buf, offset):
        tags[buf[offset]] += 1
        return decode_item(buf, offset)

    mp = pytest.MonkeyPatch()
    mp.setattr(Network, "_send_batch", through_the_codec)
    mp.setattr(codec, "_decode_item", counted)
    try:
        wired = _scenario()
    finally:
        mp.undo()
    return plain, wired, tags, kinds, unequal, chunks


def test_the_codec_leaves_the_run_unchanged(runs):
    plain, wired, _tags, _kinds, unequal, _chunks = runs
    assert unequal == []
    assert wired == plain
    assert len(set(plain[1].values())) == 1


def test_nothing_travels_as_a_pickle(runs):
    _plain, _wired, tags, _kinds, _unequal, _chunks = runs
    assert tags[codec.TAG_PICKLE] == 0
    assert set(tags) == {codec.TAG_DATA, codec.TAG_STAMP, codec.TAG_ACK,
                         codec.TAG_RETRANS, codec.TAG_ACTION,
                         codec.TAG_VALUE}


def test_every_record_kind_is_exercised(runs):
    _plain, _wired, _tags, kinds, _unequal, _chunks = runs
    assert kinds == {cls.__name__ for cls in _RECORD_NAMES}


def test_a_join_carries_an_int_past_64_bits(runs):
    """The joiner's snapshot holds a value no 64-bit field could: the
    grammar's sized ints carry it, and the joiner applied it."""
    chunks = runs[5]
    assert any(type(value) is int and value >= 2 ** 64
               for chunk in chunks for _key, value in chunk.items)
