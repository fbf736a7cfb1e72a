"""Tests for the scenario runner and the timeline renderer."""

import json

import pytest

from repro.core import ReplicaCluster
from repro.tools import (ScenarioError, render_timeline, run_scenario,
                         state_changes, summarize_time_in_state)
from repro.tools.obsreport import main as obsreport_main
from repro.tools.scenario import main as scenario_main


BASIC = {
    "replicas": 3,
    "seed": 1,
    "settle": 2.0,
    "steps": [
        {"op": "submit", "node": 1, "update": ["SET", "k", 42]},
        {"op": "run", "seconds": 1.0},
        {"op": "check", "kind": "converged"},
        {"op": "check", "kind": "key", "node": 2, "key": "k",
         "value": 42},
    ],
}


class TestScenarioRunner:
    def test_basic_scenario(self):
        report = run_scenario(BASIC)
        assert report.steps_executed == 4
        assert report.submissions == 1
        assert report.completions == 1
        assert report.checks_passed == 2
        assert all(state == "RegPrim"
                   for state in report.final_states.values())

    def test_partition_and_primary_check(self):
        spec = {
            "replicas": 5, "seed": 2, "settle": 2.0,
            "steps": [
                {"op": "partition", "groups": [[1, 2], [3, 4, 5]],
                 "settle": 2.0},
                {"op": "check", "kind": "primary_is",
                 "members": [3, 4, 5]},
                {"op": "check", "kind": "single_primary"},
                {"op": "heal", "settle": 3.0},
                {"op": "check", "kind": "converged"},
            ],
        }
        report = run_scenario(spec)
        assert report.checks_passed == 3

    def test_crash_recover_join_leave_ops(self):
        spec = {
            "replicas": 3, "seed": 3, "settle": 2.0,
            "steps": [
                {"op": "crash", "node": 3},
                {"op": "submit", "node": 1,
                 "update": ["SET", "survived", True]},
                {"op": "run", "seconds": 1.0},
                {"op": "recover", "node": 3, "settle": 3.0},
                {"op": "join", "node": 4, "peer": 2, "settle": 6.0},
                {"op": "check", "kind": "key", "node": 4,
                 "key": "survived", "value": True},
                {"op": "leave", "node": 1, "settle": 3.0},
                {"op": "check", "kind": "prefix"},
            ],
        }
        report = run_scenario(spec)
        assert report.checks_passed == 2
        assert report.final_states[1] == "exited"

    def test_failed_check_raises(self):
        spec = dict(BASIC)
        spec["steps"] = [
            {"op": "check", "kind": "key", "node": 1, "key": "missing",
             "value": 1},
        ]
        with pytest.raises(ScenarioError):
            run_scenario(spec)

    def test_unknown_op_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario({"replicas": 3,
                          "steps": [{"op": "explode"}]})

    def test_unknown_check_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario({"replicas": 3,
                          "steps": [{"op": "check", "kind": "what"}]})

    def test_cli_main(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(BASIC))
        assert scenario_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "completions=1" in out

    def test_cli_json_output(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(BASIC))
        assert scenario_main([str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks_passed"] == 2


class TestObsReport:
    def test_builtin_workload_prints_latency_table(self, capsys):
        assert obsreport_main(["--replicas", "3",
                               "--actions", "12"]) == 0
        out = capsys.readouterr().out
        assert "red->green" in out and "submit->green" in out
        # Header plus one row per replica in the latency table (the
        # staleness table follows after a blank line).
        latency_table = out.strip().split("\n\n")[0]
        assert len(latency_table.splitlines()) == 2 + 3
        assert "staleness ms" in out

    def test_json_report_is_complete(self, capsys):
        assert obsreport_main(["--json", "--replicas", "3",
                               "--actions", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["replicas"]) == ["1", "2", "3"]
        for entry in doc["replicas"].values():
            assert entry["actions_completed"] >= 8
            assert entry["forced_writes"] > 0
            assert entry["syncs"] > 0
            # The built-in workload injects a partition/heal cycle.
            assert entry["membership_changes"] >= 2
            assert entry["vulnerable_windows"] >= 1
            percentiles = entry["submit_to_green"]
            assert 0.0 <= percentiles["p50"] <= percentiles["p99"]
            # The simulator keeps the gather window.
            assert entry["gathers_answered"] == 0
        coordinator = doc["replicas"]["1"]
        assert coordinator["gathers_timer"] >= 2
        assert coordinator["gather_p50_s"] > 0.0

    def test_scenario_spec_report(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(BASIC))
        assert obsreport_main([str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["replicas"]["1"]["actions_completed"] >= 1

class TestTimeline:
    def traced_cluster(self):
        cluster = ReplicaCluster(n=3, seed=5, trace=True)
        cluster.start_all(settle=2.0)
        cluster.partition([1], [2, 3])
        cluster.run_for(2.0)
        cluster.heal()
        cluster.run_for(2.0)
        return cluster

    def test_state_changes_ordered(self):
        cluster = self.traced_cluster()
        changes = state_changes(cluster.tracer)
        assert changes
        times = [r.time for r in changes]
        assert times == sorted(times)

    def test_render_timeline_mentions_primary(self):
        cluster = self.traced_cluster()
        text = render_timeline(cluster.tracer)
        assert "PRIMARY" in text
        assert "non-prim" in text
        assert text.count("\n") > 3

    def test_render_empty_tracer(self):
        from repro.sim import Tracer
        assert "no engine state changes" in render_timeline(Tracer())

    def test_time_in_state_accounts_for_everything(self):
        cluster = self.traced_cluster()
        now = cluster.sim.now
        totals = summarize_time_in_state(cluster.tracer, 1, until=now)
        assert totals
        assert sum(totals.values()) == pytest.approx(now, abs=0.01)
        assert totals.get("RegPrim", 0) > 0
