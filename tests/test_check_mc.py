"""Model checker, mutation self-tests and coverage pin."""

import json

import pytest

from repro.check.coverage import (DIRECTED_TRACES, PORTFOLIO,
                                  all_declared_edges, live_edges,
                                  measure_coverage, run_trace)
from repro.check.mc import ModelChecker, run_check
from repro.check.model import Model, ModelConfig
from repro.check.mutations import MUTATIONS, mutation
from repro.core.engine import ReplicationEngine
from repro.core.state_machine import EVS_SHADOWED_EDGES

#: Exact exploration size of two portfolio runs: (states, transitions,
#: quiescent states).  A change here means the checker explores a
#: different space — investigate it, never widen it into a range.
PINNED_RUNS = {
    "2n-faults": (2191, 4064, 79),
    "2n-crash": (2844, 5791, 205),
}

#: The exact configuration each mutation self-test runs.
REDISCOVERY = {
    "cpc-drop": dict(nodes=2, depth=8, max_faults=0, max_crashes=0,
                     max_actions=1),
    "exact-half-tie": dict(nodes=2, depth=10, max_faults=1,
                           max_crashes=0, max_actions=0),
}


class TestCleanExploration:
    def test_two_nodes_full_budget_is_violation_free(self):
        result = run_check(nodes=2, depth=12, max_faults=2,
                           max_crashes=1, max_actions=1)
        assert result.ok, [v.format() for v in result.violations]
        assert result.complete
        assert result.states > 1000
        assert result.quiescent_states > 0
        assert result.depth_reached == 12

    def test_three_nodes_shallow_is_violation_free(self):
        result = run_check(nodes=3, depth=8, max_faults=1,
                           max_crashes=0, max_actions=0)
        assert result.ok, [v.format() for v in result.violations]
        assert result.complete

    def test_static_majority_policy_is_violation_free(self):
        result = run_check(nodes=2, depth=10, max_faults=2,
                           max_crashes=0, max_actions=1,
                           quorum="static-majority")
        assert result.ok, [v.format() for v in result.violations]

    def test_result_serializes_to_json(self):
        result = run_check(nodes=2, depth=6, max_faults=1,
                           max_crashes=0, max_actions=0)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["states"] == result.states
        assert payload["complete"] is True
        assert payload["violations"] == []

    @pytest.mark.parametrize("label", sorted(PINNED_RUNS))
    def test_portfolio_run_is_pinned(self, label):
        (config, depth), = [(config, depth)
                            for name, config, depth in PORTFOLIO
                            if name == label]
        result = ModelChecker(config, max_depth=depth).run()
        assert result.ok and result.complete
        assert (result.states, result.transitions,
                result.quiescent_states) == PINNED_RUNS[label]

    def test_max_states_budget_marks_incomplete(self):
        config = ModelConfig(nodes=2, max_faults=2, max_crashes=1,
                             max_actions=1)
        result = ModelChecker(config, max_depth=12,
                              max_states=50).run()
        assert not result.complete


class TestMutationSelfTest:
    """The checker must *rediscover* both historical wedges when the
    corresponding fix is reverted in the engine it runs — proof it
    would have caught them."""

    def test_cpc_drop_rediscovers_construct_stuck(self):
        result = run_check(mutate="cpc-drop", **REDISCOVERY["cpc-drop"])
        rules = {(v.kind, v.rule) for v in result.violations}
        assert ("wedge", "construct-stuck") in rules
        wedge = next(v for v in result.violations
                     if v.rule == "construct-stuck")
        # BFS minimality: the counterexample trace IS the depth.
        assert len(wedge.trace) == wedge.depth
        assert wedge.trace[0].startswith("form_view")

    def test_exact_half_tie_rediscovers_quorum_wedge(self):
        result = run_check(mutate="exact-half-tie",
                           **REDISCOVERY["exact-half-tie"])
        rules = {(v.kind, v.rule) for v in result.violations}
        assert ("wedge", "quorum-wedge") in rules
        wedge = next(v for v in result.violations
                     if v.rule == "quorum-wedge")
        assert any(step.startswith("partition") for step in wedge.trace)

    def test_unmutated_runs_find_neither_wedge(self):
        # Each rediscovery configuration, run clean right after its
        # mutated run in the same process: the wedge comes from the
        # mutant, and the mutant is undone.
        assert set(REDISCOVERY) == set(MUTATIONS)
        for name, shape in REDISCOVERY.items():
            assert not run_check(mutate=name, **shape).ok
            clean = run_check(**shape)
            assert clean.ok, (name, [v.rule for v in clean.violations])

    def test_mutation_registry_shape(self):
        assert set(MUTATIONS) == {"exact-half-tie", "cpc-drop"}
        for name, rule in MUTATIONS.items():
            model = Model(ModelConfig())
            real = (model.engine_config, ReplicationEngine._on_cpc)
            with mutation(name, model):
                assert (model.engine_config,
                        ReplicationEngine._on_cpc) != real
            assert (model.engine_config,
                    ReplicationEngine._on_cpc) == real
            assert rule in ("quorum-wedge", "construct-stuck")

    def test_unknown_mutation_is_rejected(self):
        with pytest.raises(ValueError):
            with mutation("no-such-mutation", Model(ModelConfig())):
                pass


class TestCoverage:
    def test_every_live_edge_is_exercised(self):
        report = measure_coverage()
        assert report.ok, report.to_dict()
        assert report.uncovered == set()          # the pin: zero
        assert report.covered == live_edges()
        assert report.shadowed_exercised == set()

    def test_edge_arithmetic(self):
        assert len(all_declared_edges()) == 18
        assert len(live_edges()) == 16
        assert set(EVS_SHADOWED_EDGES) <= all_declared_edges()

    def test_directed_traces_stay_enabled(self):
        # run_trace raises if any scripted step is not enabled — the
        # deep-edge traces must not silently go stale.
        for _label, config, events in DIRECTED_TRACES:
            model = run_trace(config, events)
            assert model.edges_seen


class TestCli:
    def test_mc_clean_run_exits_zero_and_writes_report(self, tmp_path):
        from repro.check.cli import main
        out = tmp_path / "mc.json"
        rc = main(["--mc", "--nodes", "2", "--depth", "8",
                   "--max-faults", "1", "--max-crashes", "0",
                   "--max-actions", "0", "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["mc"]["violations"] == []
        assert payload["mc"]["complete"] is True

    def test_expect_violation_inverts_the_exit_code(self):
        from repro.check.cli import main
        rc = main(["--mc", "--nodes", "2", "--depth", "8",
                   "--max-faults", "0", "--max-crashes", "0",
                   "--max-actions", "1", "--mutate", "cpc-drop",
                   "--expect-violation"])
        assert rc == 0
        rc = main(["--mc", "--nodes", "2", "--depth", "6",
                   "--max-faults", "0", "--max-crashes", "0",
                   "--max-actions", "0", "--expect-violation"])
        assert rc == 1  # clean run, but a violation was demanded

    def test_fuzz_shrink_out_writes_replayable_repro(self, tmp_path):
        from repro.check.cli import main
        out_dir = tmp_path / "repros"
        rc = main(["--fuzz", "--seeds", "1", "--first-seed", "38",
                   "--inject-bug", "--shrink", "--out", str(out_dir),
                   "--expect-violation",
                   "--json", str(tmp_path / "fuzz.json")])
        assert rc == 0
        (spec_path,) = sorted(out_dir.glob("repro-seed*.json"))
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        from repro.tools.scenario import ScenarioError, run_scenario
        with pytest.raises(ScenarioError):
            run_scenario(spec)
