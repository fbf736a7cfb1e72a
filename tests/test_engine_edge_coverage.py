"""Every live Figure-4 edge fires on the real engine, and no shadowed one.

``check_transition`` is wrapped to record each ``(input, old, new)``
the engine takes.  Scripted event sequences through ``EngineHarness``
reach the corner states (No, Un, the 1b transition, a transitional
configuration in mid-retransmission) deterministically.  One simulated
cluster run through the full group communication stack — a partition
landing inside a merge exchange — shows that extended virtual
synchrony, which delivers a transitional configuration before every
regular one, keeps the two ``EVS_SHADOWED_EDGES`` from firing.
"""

import repro.core.engine as engine_module
from repro.core.state_machine import (EDGES_BY_INPUT, EVS_SHADOWED_EDGES,
                                      EngineState)

from conftest import make_cluster
from engine_harness import EngineHarness

S = EngineState

LIVE_EDGES = {(event, old, new)
              for event, edges in EDGES_BY_INPUT.items()
              for old, new in edges} - EVS_SHADOWED_EDGES


def exchange(harness, members, red_cut=None):
    """Regular conf, then every member's state message; the others
    report ``red_cut``, so the engine may have to await retransmission."""
    conf = harness.reg_conf(members)
    harness.own_state_msg(conf)
    for member in members:
        if member != harness.engine.server_id:
            harness.state_msg(member, conf, red_cut=red_cut)
    return conf


def to_construct(members=(1, 2, 3)):
    harness = EngineHarness(1)
    conf = exchange(harness, members)
    assert harness.engine.state is S.CONSTRUCT
    return harness, conf


def to_un():
    """Construct, own and one peer's CPC, transitional conf (No), then
    the last CPC in the transitional configuration (Un)."""
    harness, conf = to_construct()
    harness.own_cpc(conf)
    harness.cpc(2, conf)
    harness.trans_conf((1, 2))
    assert harness.engine.state is S.NO
    harness.cpc(3, conf, in_transitional=True)
    assert harness.engine.state is S.UN
    return harness


def awaiting_retransmission(servers=(1, 2, 3), members=(1, 2, 3)):
    """ExchangeActions with server 2's red action (2, 1) outstanding."""
    harness = EngineHarness(1, servers=servers)
    exchange(harness, members, red_cut={2: 1})
    assert harness.engine.state is S.EXCHANGE_ACTIONS
    return harness


def scripted_scenarios():
    # Primary, then a partition: RegPrim -> TransPrim -> ExchangeStates,
    # and a second one mid-exchange back to NonPrim.
    harness, conf = to_construct()
    harness.own_cpc(conf)
    harness.cpc(2, conf)
    harness.cpc(3, conf)
    assert harness.engine.state is S.REG_PRIM
    harness.trans_conf((1, 2))
    harness.reg_conf((1, 2))
    harness.trans_conf((1,))
    assert harness.engine.state is S.NON_PRIM

    # The last state message settles the exchange without quorum.
    harness = EngineHarness(1, servers=(1, 2, 3, 4, 5))
    exchange(harness, (1, 2))
    assert harness.engine.state is S.NON_PRIM

    # Construct -> No -> ExchangeStates.
    harness, _conf = to_construct()
    harness.trans_conf((1, 2))
    harness.reg_conf((1, 2))
    assert harness.engine.state is S.EXCHANGE_STATES

    # No -> Un -> ExchangeStates.
    harness = to_un()
    harness.reg_conf((1, 2))
    assert harness.engine.state is S.EXCHANGE_STATES

    # Transition 1b: an action in Un installs and joins in TransPrim.
    harness = to_un()
    harness.action(3, 1, in_transitional=True)
    assert harness.engine.state is S.TRANS_PRIM

    # The retransmitted action ends the exchange, with and without
    # quorum; a transitional conf ends it before the action arrives.
    harness = awaiting_retransmission()
    harness.action(2, 1)
    assert harness.engine.state is S.CONSTRUCT
    harness = awaiting_retransmission(servers=(1, 2, 3, 4, 5),
                                      members=(1, 2))
    harness.action(2, 1)
    assert harness.engine.state is S.NON_PRIM
    harness = awaiting_retransmission()
    harness.trans_conf((1, 2))
    assert harness.engine.state is S.NON_PRIM


def partition_mid_merge():
    cluster = make_cluster(4, seed=17)
    cluster.start_all(settle=1.0)
    clients = {n: cluster.client(n) for n in (1, 2, 3, 4)}
    for client in clients.values():
        client.submit(("APPEND", "log", 0))
    cluster.run_for(1.0)
    cluster.partition([1, 2], [3, 4])
    cluster.run_for(1.0)
    clients[1].submit(("SET", "minority", 1))
    clients[3].submit(("SET", "majority", 1))
    cluster.run_for(0.5)
    cluster.heal()
    # The second partition's transitional configuration interrupts the
    # merge exchange (ExchangeStates -> NonPrim) before the regular
    # one arrives: the situation the shadowed edges would need.
    cluster.run_for(0.024)
    cluster.partition([1, 3], [2, 4])
    cluster.run_for(1.0)
    cluster.heal()
    cluster.run_for(4.0)
    cluster.assert_converged()


def test_every_live_edge_fires_and_no_shadowed_one(monkeypatch):
    fired = set()
    check = engine_module.check_transition

    def recording(event, old, new):
        check(event, old, new)
        fired.add((event, old, new))

    monkeypatch.setattr(engine_module, "check_transition", recording)
    scripted_scenarios()
    partition_mid_merge()
    assert len(LIVE_EDGES) == 16
    assert LIVE_EDGES - fired == set()
    assert fired & EVS_SHADOWED_EDGES == set()
