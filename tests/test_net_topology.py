"""Unit tests for the partitionable topology."""

import pytest

from repro.net import Topology, TopologyError


def test_initially_one_component_all_alive():
    topo = Topology([1, 2, 3])
    assert topo.reachable(1, 2)
    assert topo.reachable(2, 3)
    assert topo.components() == [frozenset({1, 2, 3})]


def test_empty_topology_rejected():
    with pytest.raises(TopologyError):
        Topology([])


def test_partition_splits_reachability():
    topo = Topology([1, 2, 3, 4])
    topo.partition([[1, 2], [3, 4]])
    assert topo.reachable(1, 2)
    assert topo.reachable(3, 4)
    assert not topo.reachable(1, 3)
    assert not topo.reachable(2, 4)
    assert sorted(map(sorted, topo.components())) == [[1, 2], [3, 4]]


def test_partition_must_cover_all_nodes():
    topo = Topology([1, 2, 3])
    with pytest.raises(TopologyError):
        topo.partition([[1, 2]])


def test_partition_rejects_duplicates():
    topo = Topology([1, 2, 3])
    with pytest.raises(TopologyError):
        topo.partition([[1, 2], [2, 3]])


def test_partition_rejects_unknown_node():
    topo = Topology([1, 2])
    with pytest.raises(TopologyError):
        topo.partition([[1, 2, 9]])


def test_heal_reunites():
    topo = Topology([1, 2, 3])
    topo.partition([[1], [2, 3]])
    topo.heal()
    assert topo.reachable(1, 3)
    assert len(topo.components()) == 1


def test_crash_and_recover():
    topo = Topology([1, 2])
    topo.crash(1)
    assert not topo.is_alive(1)
    assert not topo.reachable(1, 2)
    assert not topo.reachable(1, 1)
    topo.recover(1)
    assert topo.reachable(1, 2)


def test_crashed_node_excluded_from_components():
    topo = Topology([1, 2, 3])
    topo.crash(2)
    assert topo.components() == [frozenset({1, 3})]
    assert topo.component_members(1) == frozenset({1, 3})


def test_crash_unknown_node_rejected():
    topo = Topology([1])
    with pytest.raises(TopologyError):
        topo.crash(9)


def test_add_node_joins_component():
    topo = Topology([1, 2])
    topo.partition([[1], [2]])
    topo.add_node(3, component_like=2)
    assert topo.reachable(2, 3)
    assert not topo.reachable(1, 3)


def test_add_node_fresh_component():
    topo = Topology([1])
    topo.add_node(2)
    assert not topo.reachable(1, 2)


def test_add_duplicate_node_rejected():
    topo = Topology([1])
    with pytest.raises(TopologyError):
        topo.add_node(1)


def test_listeners_notified_on_changes():
    topo = Topology([1, 2])
    events = []
    topo.subscribe(lambda: events.append(1))
    topo.partition([[1], [2]])
    topo.heal()
    topo.crash(1)
    topo.recover(1)
    assert len(events) == 4


def test_crash_idempotent_no_duplicate_notify():
    topo = Topology([1, 2])
    events = []
    topo.subscribe(lambda: events.append(1))
    topo.crash(1)
    topo.crash(1)
    assert len(events) == 1
