"""Unit tests for the network fabric."""

import pytest

from repro.net import (Network, NetworkProfile, Topology,
                       lossless_instant_profile)
from repro.sim import RandomStreams, Simulator


def make_net(nodes=(1, 2, 3), profile=None, seed=0):
    sim = Simulator()
    topo = Topology(list(nodes))
    net = Network(sim, topo, profile,
                  rng=RandomStreams(seed).stream("network"))
    inboxes = {n: [] for n in nodes}
    for n in nodes:
        net.attach(n, lambda d, n=n: inboxes[n].append(d))
    return sim, topo, net, inboxes


class Priced:
    """A payload the link bills at ``wire_size`` bytes."""

    def __init__(self, wire_size):
        self.wire_size = wire_size


def test_unicast_delivery():
    sim, _topo, net, inboxes = make_net()
    net.send(1, 2, "hello")
    sim.run()
    assert len(inboxes[2]) == 1
    assert inboxes[2][0].payload == "hello"
    assert net.datagrams_delivered == 1


def test_self_delivery():
    sim, _topo, net, inboxes = make_net()
    net.send(1, 1, "loop")
    sim.run()
    assert len(inboxes[1]) == 1


def test_multicast_fans_out():
    sim, _topo, net, inboxes = make_net()
    net.multicast(1, [2, 3], "m")
    sim.run()
    assert len(inboxes[2]) == 1
    assert len(inboxes[3]) == 1
    assert net.datagrams_sent == 1  # one egress serialization


def test_delivery_latency_includes_serialization():
    profile = NetworkProfile(propagation_delay=0.001,
                             bandwidth=1e6, send_overhead=0.0,
                             recv_overhead=0.0, jitter=0.0)
    sim, _topo, net, inboxes = make_net(profile=profile)
    net.send(1, 2, Priced(1000))  # 1000 B at 1 MB/s = 1 ms serialization
    sim.run()
    assert sim.now == pytest.approx(0.002)


def test_egress_serializes_back_to_back_sends():
    profile = NetworkProfile(propagation_delay=0.0, bandwidth=1e6,
                             send_overhead=0.0, recv_overhead=0.0,
                             jitter=0.0)
    sim, _topo, net, _ = make_net(profile=profile)
    times = []
    net.detach(2)
    net.attach(2, lambda d: times.append(sim.now))
    net.send(1, 2, Priced(1000))
    net.send(1, 2, Priced(1000))
    sim.run()
    assert times == [pytest.approx(0.001), pytest.approx(0.002)]


def test_ingress_serializes_deliveries():
    profile = NetworkProfile(propagation_delay=0.0, bandwidth=0.0,
                             send_overhead=0.0, recv_overhead=0.001,
                             jitter=0.0)
    sim, _topo, net, _ = make_net(profile=profile)
    times = []
    net.detach(3)
    net.attach(3, lambda d: times.append(sim.now))
    net.send(1, 3, "a")
    net.send(2, 3, "b")
    sim.run()
    assert times == [pytest.approx(0.001), pytest.approx(0.002)]


def test_partition_blocks_at_send():
    sim, topo, net, inboxes = make_net()
    topo.partition([[1], [2, 3]])
    net.send(1, 2, "x")
    sim.run()
    assert inboxes[2] == []
    assert net.datagrams_dropped == 1


def test_partition_cuts_in_flight_messages():
    profile = NetworkProfile(propagation_delay=0.010, jitter=0.0)
    sim, topo, net, inboxes = make_net(profile=profile)
    net.send(1, 2, "x")
    sim.schedule(0.001, lambda: topo.partition([[1], [2, 3]]))
    sim.run()
    assert inboxes[2] == []


def test_crashed_sender_cannot_send():
    sim, topo, net, inboxes = make_net()
    topo.crash(1)
    net.send(1, 2, "x")
    sim.run()
    assert inboxes[2] == []
    assert net.datagrams_sent == 0


def test_crashed_destination_drops():
    sim, topo, net, inboxes = make_net()
    net.send(1, 2, "x")
    topo.crash(2)
    sim.run()
    assert inboxes[2] == []


def test_detached_destination_drops():
    sim, _topo, net, inboxes = make_net()
    net.detach(2)
    net.send(1, 2, "x")
    sim.run()
    assert inboxes[2] == []


def test_loss_model_drops_deterministically():
    profile = NetworkProfile(loss_rate=1.0)
    sim, _topo, net, inboxes = make_net(profile=profile)
    net.send(1, 2, "x")
    sim.run()
    assert inboxes[2] == []
    assert net.datagrams_dropped == 1


def test_partial_loss_statistics():
    profile = NetworkProfile(loss_rate=0.5, jitter=0.0)
    sim, _topo, net, inboxes = make_net(profile=profile, seed=3)
    for _ in range(200):
        net.send(1, 2, "x")
    sim.run()
    delivered = len(inboxes[2])
    assert 60 < delivered < 140  # ~100 expected


def test_instant_profile_zero_latency():
    sim, _topo, net, inboxes = make_net(
        profile=lossless_instant_profile())
    net.send(1, 2, "x")
    sim.run()
    assert sim.now == 0.0
    assert len(inboxes[2]) == 1


def test_bytes_accounting():
    sim, _topo, net, _ = make_net()
    net.send(1, 2, Priced(123))
    net.multicast(1, [2, 3], Priced(77))
    net.send(1, 2, "unpriced")
    sim.run()
    assert net.bytes_sent == 123 + 77 + 200
