"""Unit tests for the join/transfer protocol roles (Section 5.2),
using lightweight fake replicas — no cluster in the loop."""

import pytest

from repro.core.reconfig import (JoinRequest, JoinerProtocol,
                                 RepresentativeRole, TransferHeader)
from repro.db import Database, SnapshotChunk, SnapshotSender
from repro.db.action import Action, ActionId
from repro.sim import Simulator


class FakeEndpoint:
    def __init__(self):
        self.sent = []

    def send(self, peer, payload, size=200):
        self.sent.append((peer, payload))

    def of_type(self, kind):
        return [(peer, p) for peer, p in self.sent
                if isinstance(p, kind)]


class FakeEngine:
    def __init__(self):
        self.queue = type("Q", (), {})()
        self.queue.red_cut = {1: 0, 2: 0}
        self.queue.green_lines = {1: 0, 2: 0}
        self.queue.servers = [1, 2]
        self.queue.green_count = 5
        self.removed_servers = set()
        self.exited = False
        self._index = 0
        self.submitted = []

    def next_action_id(self):
        self._index += 1
        return ActionId(1, self._index)

    def submit_action(self, action):
        self.submitted.append(action)


class FakeReplica:
    def __init__(self, sim):
        self.sim = sim
        self.node = 1
        self.database = Database()
        for i in range(5):
            self.database.apply(Action(
                action_id=ActionId(2, i + 1),
                update=("SET", f"k{i}", i)))
        self.endpoint = FakeEndpoint()
        self.engine = FakeEngine()


class TestRepresentativeRole:
    def test_first_contact_orders_a_join(self):
        replica = FakeReplica(Simulator())
        role = RepresentativeRole(replica)
        role.on_join_request(JoinRequest(joiner_id=9))
        assert len(replica.engine.submitted) == 1
        action = replica.engine.submitted[0]
        assert action.join_id == 9

    def test_exited_engine_ignores_requests(self):
        replica = FakeReplica(Simulator())
        replica.engine.exited = True
        role = RepresentativeRole(replica)
        role.on_join_request(JoinRequest(joiner_id=9))
        assert replica.engine.submitted == []

    def test_start_transfer_streams_header_and_chunks(self):
        replica = FakeReplica(Simulator())
        role = RepresentativeRole(replica, chunk_items=2)
        join = Action(action_id=ActionId(1, 1), join_id=9)
        role.start_transfer(join, position=4)
        headers = replica.endpoint.of_type(TransferHeader)
        assert len(headers) == 1
        peer, header = headers[0]
        assert peer == 9
        assert header.header["applied_count"] == 5
        # 5 keys at 2 per chunk -> 3 chunks.
        chunks = [p for _peer, p in replica.endpoint.of_type(SnapshotChunk)]
        assert [(c.seq, c.total) for c in chunks] == [(0, 3), (1, 3), (2, 3)]
        assert len(replica.endpoint.sent) == 1 + 3

    def test_resume_streams_from_requested_chunk(self):
        replica = FakeReplica(Simulator())
        role = RepresentativeRole(replica, chunk_items=2)
        join = Action(action_id=ActionId(1, 1), join_id=9)
        role.start_transfer(join, position=4)
        replica.endpoint.sent.clear()
        # The joiner is already known here; it resumes from chunk 2.
        replica.engine.queue.red_cut[9] = 1
        role.on_join_request(JoinRequest(9, transfer_id="1:1",
                                         next_needed=2))
        chunks = [p for _peer, p in replica.endpoint.sent
                  if not isinstance(p, TransferHeader)]
        assert len(chunks) == 1
        assert chunks[0].seq == 2

    def test_unknown_transfer_rebuilds_from_own_state(self):
        replica = FakeReplica(Simulator())
        role = RepresentativeRole(replica, chunk_items=2)
        replica.engine.queue.red_cut[9] = 1  # join ordered here
        replica.engine.queue.green_lines[9] = 3
        role.on_join_request(JoinRequest(9, transfer_id="gone",
                                         next_needed=0))
        headers = replica.endpoint.of_type(TransferHeader)
        assert len(headers) == 1
        assert headers[0][1].transfer_id.startswith("resume-")

    def test_busy_when_behind_the_join_point(self):
        replica = FakeReplica(Simulator())
        role = RepresentativeRole(replica)
        replica.engine.queue.red_cut[9] = 1
        # Our green count (5) is behind the joiner's entry point (9).
        replica.engine.queue.green_lines[9] = 9
        role.on_join_request(JoinRequest(9, transfer_id="gone"))
        # Nothing is sent: the joiner's retry timer re-requests.
        assert replica.endpoint.sent == []


class TestJoinerProtocol:
    def make_joiner(self, peers=(1, 2, 3)):
        sim = Simulator()
        replica = FakeReplica(sim)
        replica.node = 9
        ready = []
        joiner = JoinerProtocol(sim, replica, list(peers),
                                on_ready=ready.append,
                                retry_interval=0.5)
        return sim, replica, joiner, ready

    def test_start_sends_request_to_first_peer(self):
        sim, replica, joiner, _ready = self.make_joiner()
        joiner.start()
        requests = replica.endpoint.of_type(JoinRequest)
        assert requests[0][0] == 1

    def test_stall_rotates_peers(self):
        sim, replica, joiner, _ready = self.make_joiner()
        joiner.start()
        sim.run(until=1.6)   # three retry periods, no progress
        peers = [peer for peer, _p in
                 replica.endpoint.of_type(JoinRequest)]
        assert set(peers) >= {1, 2, 3}

    def test_completion_fires_ready_and_stops_retries(self):
        sim, replica, joiner, ready = self.make_joiner()
        joiner.start()
        snapshot = Database()
        snapshot.apply(Action(action_id=ActionId(1, 1),
                              update=("SET", "x", 1)))
        sender = SnapshotSender("t9", snapshot.snapshot(), chunk_items=2)
        header = TransferHeader("t9", (1, 2, 9), sender.header)
        assert joiner.on_message(header)
        for seq in range(sender.total):
            joiner.on_message(sender.chunk(seq))
        assert ready == [header]
        assert replica.database.state == {"x": 1}
        sent_before = len(replica.endpoint.sent)
        sim.run(until=5.0)
        assert len(replica.endpoint.sent) == sent_before  # no retries

    def test_unrelated_payloads_not_consumed(self):
        _sim, _replica, joiner, _ready = self.make_joiner()
        assert not joiner.on_message({"not": "ours"})

    def test_busy_is_consumed_quietly(self):
        """A representative behind the join point answers nothing; the
        retry timer asks again, of the next peer."""
        sim, replica, joiner, ready = self.make_joiner()
        joiner.start()
        sim.run(until=0.6)   # one retry period, no answer
        peers = [peer for peer, _p in
                 replica.endpoint.of_type(JoinRequest)]
        assert peers == [1, 2]
        assert ready == []
