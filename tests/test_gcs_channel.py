"""Unit tests for reliable FIFO point-to-point channels."""

import pytest

from repro.gcs import ReliableChannelEndpoint
from repro.net import Network, NetworkProfile, Topology
from repro.sim import RandomStreams, Simulator


def make_pair(loss_rate=0.0, seed=0):
    sim = Simulator()
    topo = Topology([1, 2])
    net = Network(sim, topo, NetworkProfile(loss_rate=loss_rate,
                                            jitter=0.0),
                  rng=RandomStreams(seed).stream("network"))
    inbox = {1: [], 2: []}
    endpoints = {}
    for node in (1, 2):
        endpoint = ReliableChannelEndpoint(
            sim, node, net,
            lambda peer, payload, node=node: inbox[node].append(
                (peer, payload)),
            retransmit_interval=0.05)
        endpoints[node] = endpoint
    for node in (1, 2):
        net.attach(node, endpoints[node].on_datagram)
        endpoints[node].start()
    return sim, topo, net, endpoints, inbox


def test_in_order_delivery():
    sim, _t, _n, endpoints, inbox = make_pair()
    for i in range(10):
        endpoints[1].send(2, f"m{i}")
    sim.run(until=1.0)
    assert [p for _peer, p in inbox[2]] == [f"m{i}" for i in range(10)]


def test_bidirectional():
    sim, _t, _n, endpoints, inbox = make_pair()
    endpoints[1].send(2, "ping")
    endpoints[2].send(1, "pong")
    sim.run(until=1.0)
    assert inbox[2] == [(1, "ping")]
    assert inbox[1] == [(2, "pong")]


def test_retransmission_under_heavy_loss():
    sim, _t, _n, endpoints, inbox = make_pair(loss_rate=0.4, seed=5)
    for i in range(20):
        endpoints[1].send(2, i)
    sim.run(until=10.0)
    assert [p for _peer, p in inbox[2]] == list(range(20))


def test_no_duplicates_despite_retransmits():
    sim, topo, _n, endpoints, inbox = make_pair()
    endpoints[1].send(2, "once")
    # Force several retransmit periods by delaying the ack path.
    topo.partition([[1], [2]])
    sim.run(until=0.3)
    topo.heal()
    sim.run(until=2.0)
    assert [p for _peer, p in inbox[2]] == ["once"]


def test_unacked_tracking():
    sim, topo, _n, endpoints, _inbox = make_pair()
    topo.partition([[1], [2]])
    endpoints[1].send(2, "x")
    sim.run(until=0.2)
    assert endpoints[1].unacked(2) == 1
    topo.heal()
    sim.run(until=1.0)
    assert endpoints[1].unacked(2) == 0


def test_stopped_endpoint_ignores_traffic():
    sim, _t, _n, endpoints, inbox = make_pair()
    endpoints[2].stop()
    endpoints[1].send(2, "late")
    sim.run(until=1.0)
    assert inbox[2] == []


def test_stopped_sender_drops_sends():
    sim, _t, _n, endpoints, inbox = make_pair()
    endpoints[1].stop()
    endpoints[1].send(2, "never")
    sim.run(until=1.0)
    assert inbox[2] == []


def test_partially_acked_stream_retransmits_go_back_n():
    sim, topo, _n, endpoints, inbox = make_pair()
    # First wave is delivered and acked.
    for i in range(5):
        endpoints[1].send(2, i)
    sim.run(until=0.5)
    assert endpoints[1].unacked(2) == 0
    # Cut the link mid-stream: the second wave is lost, and retransmits
    # into the partition for several periods.
    topo.partition([[1], [2]])
    for i in range(5, 12):
        endpoints[1].send(2, i)
    sim.run(until=0.8)
    assert [p for _peer, p in inbox[2]] == list(range(5))
    assert endpoints[1].unacked(2) == 7
    topo.heal()
    sim.run(until=2.0)
    # Go-back-N recovered exactly the unacked suffix: in order, no
    # duplicates, nothing skipped.
    assert [p for _peer, p in inbox[2]] == list(range(12))
    assert endpoints[1].unacked(2) == 0
