"""Fuzzer, shrinker, and the scenario-spec extensions they ride on."""

import random

import pytest

from repro.check.fuzz import (FAST_DISK, FAST_GCS, FuzzCase,
                              classify_failure, generate_schedule,
                              random_fault_schedule, random_partition,
                              render_spec, run_campaign, run_case,
                              run_schedule)
from repro.check.mutations import BothHalvesQuorum
from repro.check.shrink import shrink
from repro.net import Topology
from repro.tools.scenario import ScenarioError, run_scenario

INJECTED = FuzzCase(seed=38, quorum="both-halves")


class TestFaultSchedule:
    def test_random_partition_covers_all_nodes(self):
        rng = random.Random(0)
        for _ in range(50):
            groups = random_partition([1, 2, 3, 4, 5], rng)
            flat = sorted(n for g in groups for n in g)
            assert flat == [1, 2, 3, 4, 5]
            assert all(g for g in groups)

    def test_random_schedule_ends_healed_and_recovered(self):
        nodes = [1, 2, 3, 4]
        topo = Topology(nodes)
        for _when, op, arg in random_fault_schedule(
                nodes, random.Random(7), horizon=10.0, rate=2.0):
            if op == "partition":
                topo.partition(arg)
            elif op == "heal":
                topo.heal()
            elif op == "crash":
                topo.crash(arg)
            else:
                topo.recover(arg)
        assert all(topo.is_alive(n) for n in nodes)
        assert len(topo.components()) == 1

    def test_random_schedule_is_deterministic(self):
        a = random_fault_schedule([1, 2, 3], random.Random(5), 10.0, 1.0)
        b = random_fault_schedule([1, 2, 3], random.Random(5), 10.0, 1.0)
        assert a == b

    def test_random_schedule_no_crashes_option(self):
        schedule = random_fault_schedule([1, 2, 3], random.Random(1),
                                         20.0, rate=3.0,
                                         allow_crashes=False)
        assert all(op not in ("crash", "recover")
                   for _when, op, _arg in schedule)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        case = FuzzCase(seed=7)
        assert generate_schedule(case) == generate_schedule(case)

    def test_different_seeds_differ(self):
        assert generate_schedule(FuzzCase(seed=1)) != \
            generate_schedule(FuzzCase(seed=2))

    def test_same_schedule_same_verdict(self):
        case = FuzzCase(seed=3)
        schedule = generate_schedule(case)
        first = run_schedule(case, schedule)
        second = run_schedule(case, schedule)
        assert first.failure == second.failure
        assert first.detail == second.detail


class TestRenderSpec:
    def test_spec_embeds_timers_and_quorum(self):
        case = FuzzCase(seed=0)
        spec = render_spec(case, generate_schedule(case))
        assert spec["replicas"] == case.nodes
        assert spec["gcs"] == FAST_GCS
        assert spec["disk"] == FAST_DISK
        assert spec["quorum"] == "dynamic-linear"

    def test_fixed_tail_heals_and_checks(self):
        case = FuzzCase(seed=5)
        ops = render_spec(case, generate_schedule(case))["steps"]
        kinds = [s.get("kind") for s in ops if s["op"] == "check"]
        assert kinds[:4] == ["prefix", "single_primary", "converged",
                             "all_primary"]
        heal_at = max(i for i, s in enumerate(ops) if s["op"] == "heal")
        assert all(s["op"] in ("run", "check")
                   for s in ops[heal_at + 1:])

    def test_crash_without_recover_is_recovered_in_tail(self):
        case = FuzzCase(seed=0, nodes=3)
        schedule = [(0.5, "crash", 2)]
        ops = render_spec(case, schedule)["steps"]
        assert {"op": "recover", "node": 2, "settle": 0.0} in ops

    def test_crashed_submitters_lower_expected_completions(self):
        case = FuzzCase(seed=0, nodes=3)
        schedule = [
            (0.5, "submit", [1, ["SET", "a", 1]]),
            (0.6, "submit", [2, ["SET", "b", 2]]),
            (0.7, "crash", 2),  # node 2's callback dies with it
        ]
        ops = render_spec(case, schedule)["steps"]
        completions = [s for s in ops
                       if s.get("kind") == "completions"]
        assert completions == [{"op": "check", "kind": "completions",
                                "at_least": 1}]


class TestCleanCampaign:
    def test_first_seeds_pass_on_the_real_simulator(self):
        campaign = run_campaign(seeds=3)
        assert campaign.ok, [r.to_dict() for r in campaign.failures]
        assert len(campaign.results) == 3


class TestInjectedBug:
    def test_both_halves_policy_grants_conflicting_quorums(self):
        policy = BothHalvesQuorum()
        assert policy.is_quorum((1, 2), (1, 2, 3, 4), (1, 2, 3, 4))
        assert policy.is_quorum((3, 4), (1, 2, 3, 4), (1, 2, 3, 4))
        assert "bug" in policy.describe()

    def test_fuzzer_finds_the_divergence(self):
        result = run_case(INJECTED)
        assert result.failure == "check:prefix", result.detail

    def test_clean_policy_passes_the_same_schedule(self):
        clean = FuzzCase(seed=38)
        result = run_schedule(clean, generate_schedule(INJECTED))
        assert result.ok, result.detail


class TestShrink:
    @pytest.fixture(scope="class")
    def failing(self):
        return run_case(INJECTED)

    def test_shrink_is_smaller_and_still_failing(self, failing):
        minimized = shrink(failing)
        assert minimized is not None
        assert len(minimized.schedule) < minimized.original_steps
        replay = run_schedule(INJECTED, minimized.schedule)
        assert replay.failure == failing.failure

    def test_shrink_is_byte_deterministic(self, failing):
        first = shrink(failing)
        second = shrink(failing)
        assert first.schedule == second.schedule
        assert first.runs == second.runs
        assert first.spec_json() == second.spec_json()

    def test_emitted_spec_replays_to_the_same_failure(self, failing):
        minimized = shrink(failing)
        with pytest.raises(ScenarioError) as excinfo:
            run_scenario(minimized.spec)
        name, _detail = classify_failure(excinfo.value)
        assert name == failing.failure

    def test_shrink_of_a_passing_run_is_none(self):
        assert shrink(run_case(FuzzCase(seed=0))) is None


class TestScenarioExtensions:
    """The spec keys and check kinds this PR added to tools/scenario."""

    BASE = {
        "replicas": 3, "seed": 1, "settle": 1.0,
        "gcs": dict(FAST_GCS), "disk": dict(FAST_DISK),
    }

    def test_quorum_key_accepts_known_policies(self):
        for name in ("dynamic-linear", "static-majority",
                     "both-halves"):
            spec = dict(self.BASE, quorum=name, steps=[
                {"op": "run", "seconds": 1.0},
                {"op": "check", "kind": "single_primary"},
            ])
            run_scenario(spec)

    def test_unknown_quorum_is_rejected(self):
        spec = dict(self.BASE, quorum="coin-flip", steps=[])
        with pytest.raises(ScenarioError):
            run_scenario(spec)

    def test_all_primary_and_completions_pass_when_settled(self):
        spec = dict(self.BASE, steps=[
            {"op": "run", "seconds": 1.0},
            {"op": "submit", "node": 1, "update": ["SET", "k", 1]},
            {"op": "run", "seconds": 1.0},
            {"op": "check", "kind": "all_primary"},
            {"op": "check", "kind": "completions", "at_least": 1},
        ])
        run_scenario(spec)

    def test_completions_check_fails_when_short(self):
        spec = dict(self.BASE, steps=[
            {"op": "run", "seconds": 1.0},
            {"op": "check", "kind": "completions", "at_least": 1},
        ])
        with pytest.raises(ScenarioError, match="completions"):
            run_scenario(spec)

    def test_all_primary_fails_under_partition(self):
        spec = dict(self.BASE, steps=[
            {"op": "run", "seconds": 1.0},
            {"op": "partition", "groups": [[1, 2], [3]],
             "settle": 1.0},
            {"op": "check", "kind": "all_primary"},
        ])
        with pytest.raises(ScenarioError, match="all_primary"):
            run_scenario(spec)
