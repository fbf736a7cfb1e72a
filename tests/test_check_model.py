"""Unit tests for the global model (`repro.check.model`), whose
per-node reactions come from the real replication engine."""

import pytest

from repro.check.model import Event, Model, ModelConfig, canonicalize
from repro.check.mutations import mutation
from repro.core.quorum import DynamicLinearVoting, StaticMajority
from repro.core.state_machine import (EDGES_BY_INPUT, EngineInput,
                                      EngineState, IllegalTransition)

from engine_harness import EngineHarness

S = EngineState
I = EngineInput


def settle(model, state, max_steps=200):
    """Drive the model to quiescence by always taking the first
    enabled protocol event (deterministic: enabled_events is ordered)."""
    for _ in range(max_steps):
        protocol = [e for e in model.enabled_events(state)
                    if e.kind in ("deliver", "ds", "retrans",
                                  "form_view")]
        if not protocol:
            return state
        state = model.apply_event(state, protocol[0])
        assert not model.violations, model.violations
    raise AssertionError("model did not settle")


def bootstrap(nodes=2):
    model = Model(ModelConfig(nodes=nodes, max_faults=0,
                              max_crashes=0, max_actions=1))
    state = settle(model, canonicalize(model.initial_state()))
    return model, state


class TestBootstrap:
    def test_initial_state_is_canonical(self):
        model = Model(ModelConfig(nodes=3))
        state = canonicalize(model.initial_state())
        assert all(n.state is S.NON_PRIM for n in state.nodes)
        assert state.comps == ((1, 2, 3),)
        # Identity fast path: a canonical state comes back unchanged.
        assert canonicalize(state) is state

    def test_full_view_installs_a_primary(self):
        model, state = bootstrap(nodes=2)
        assert all(n.state is S.REG_PRIM for n in state.nodes)
        # Install bumped the primary component index on every node.
        assert all(n.prim[0] == 1 and n.prim[2] == (1, 2)
                   for n in state.nodes)

    def test_client_action_goes_green_everywhere(self):
        model, state = bootstrap(nodes=2)
        client = next(e for e in model.enabled_events(state)
                      if e.kind == "client")
        state = settle(model, model.apply_event(state, client))
        assert all(n.green == ((client.arg[0], 1),)
                   for n in state.nodes)

    def test_edges_seen_are_all_declared(self):
        model, _state = bootstrap(nodes=2)
        declared = {(event, old, new)
                    for event, edges in EDGES_BY_INPUT.items()
                    for old, new in edges}
        assert model.edges_seen  # the bootstrap exercises real edges
        assert model.edges_seen <= declared


class TestDerivation:
    """The model cannot move off the declared Figure-4 table."""

    def test_a_dropped_edge_is_refused_by_engine_and_model(
            self, monkeypatch):
        """The model's moves are the engine's own ``_set_state`` calls:
        drop the edge every bootstrap takes first and both refuse it.
        A model deciding reactions by itself would still take it and
        fail here."""
        edge = (S.NON_PRIM, S.EXCHANGE_STATES)
        monkeypatch.setitem(EDGES_BY_INPUT, I.REG_CONF,
                            EDGES_BY_INPUT[I.REG_CONF] - {edge})
        refused = "reg_conf: NonPrim -> ExchangeStates"
        harness = EngineHarness(1)
        assert harness.engine.state is S.NON_PRIM
        with pytest.raises(IllegalTransition, match=refused):
            harness.reg_conf((1, 2, 3))
        with pytest.raises(IllegalTransition, match=refused):
            bootstrap(nodes=2)


class TestCanonicalize:
    def test_epoch_shift_collapses(self):
        model, state = bootstrap(nodes=2)
        shift = 7
        shifted_nodes = tuple(
            node._replace(
                view=(node.view[0] + shift, node.view[1]),
                inbox=tuple(m[:-1] + (m[-1] + shift,)
                            for m in node.inbox))
            for node in state.nodes)
        shifted = state._replace(
            nodes=shifted_nodes,
            reports=tuple((e + shift, snap) for e, snap in state.reports),
            epoch_next=state.epoch_next + shift)
        assert shifted != state
        assert canonicalize(shifted) == state

    def test_dead_report_epochs_are_dropped(self):
        model, state = bootstrap(nodes=2)
        stale = state._replace(
            reports=state.reports + ((99, state.reports[0][1]),))
        collapsed = canonicalize(stale)
        assert collapsed == state


def exchange_outcome(model, members):
    """Form a view of ``members`` out of a fresh ``model`` and deliver
    the whole state-exchange round to every member: the state each
    member's engine ends it in."""
    state = canonicalize(model.initial_state())
    rest = tuple(n for n in model.server_ids if n not in members)
    state = state._replace(comps=(members, rest) if rest else (members,))
    state = model.apply_event(state, Event("form_view", (members,)))
    for n in members:
        state = model.apply_event(state, Event("ds", (n,)))
    return {state.nodes[n - 1].state for n in members}


class TestQuorumDelegation:
    def test_policy_objects_are_the_real_ones(self):
        assert isinstance(Model(ModelConfig()).engine_config.quorum,
                          DynamicLinearVoting)
        assert isinstance(
            Model(ModelConfig(quorum="static-majority"))
            .engine_config.quorum, StaticMajority)

    def test_is_quorum_delegates(self):
        policy = DynamicLinearVoting()
        for members in [(1, 2, 3), (1, 2), (3, 4), (2,)]:
            expected = S.CONSTRUCT if policy.is_quorum(
                members, (1, 2, 3, 4), (1, 2, 3, 4)) else S.NON_PRIM
            outcome = exchange_outcome(Model(ModelConfig(nodes=4)),
                                       members)
            assert outcome == {expected}, members

    def test_tie_breaker_mutation_vetoes_exact_half(self):
        # (1, 2) is the distinguished exact half of (1, 2, 3, 4).
        assert exchange_outcome(Model(ModelConfig(nodes=4)),
                                (1, 2)) == {S.CONSTRUCT}
        broken = Model(ModelConfig(nodes=4))
        with mutation("exact-half-tie", broken):
            assert exchange_outcome(broken, (1, 2)) == {S.NON_PRIM}
        assert exchange_outcome(broken, (1, 2)) == {S.CONSTRUCT}


class TestSafetyGating:
    def test_client_events_skip_all_checks(self):
        model, state = bootstrap(nodes=2)
        assert model.check_safety(state, "client") == []

    def test_gated_checks_agree_on_clean_states(self):
        model, state = bootstrap(nodes=2)
        for kind in (None, "deliver", "fault", "form_view"):
            assert model.check_safety(state, kind) == []

    def test_green_prefix_divergence_is_reported(self):
        model, state = bootstrap(nodes=2)
        nodes = list(state.nodes)
        nodes[0] = nodes[0]._replace(green=((1, 1),))
        nodes[1] = nodes[1]._replace(green=((2, 1),))
        bad = state._replace(nodes=tuple(nodes))
        findings = model.check_safety(bad)
        assert any(f.startswith("green-prefix") for f in findings)


class TestEventDescribe:
    def test_describe_is_stable(self):
        assert Event("deliver", (3,)).describe() == "deliver(3)"
        assert Event("fault", ("crash", 2)).describe() == "crash(2)"
        assert Event("form_view", ((1, 2),)).describe() == \
            "form_view([(1, 2)])"
