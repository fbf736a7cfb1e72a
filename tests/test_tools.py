"""Tests for the scenario runner and the timeline renderer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import ReplicaCluster, StaticMajority
from repro.tools.obsreport import main as obsreport_main
from repro.tools.scenario import (ScenarioError, ScenarioRunner,
                                  run_scenario)
from repro.tools.scenario import main as scenario_main
from repro.tools.timeline import (render_timeline, state_changes,
                                  summarize_time_in_state)


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


#: Every portable op and every check kind, short enough to run live.
PORTABLE = {
    "replicas": 3,
    "seed": 5,
    "settle": 2.0,
    "steps": [
        {"op": "submit", "node": 1, "update": ["SET", "owner", "alice"]},
        {"op": "submit", "node": 2, "update": ["INC", "visits", 1]},
        {"op": "run", "seconds": 0.5},
        {"op": "partition", "groups": [[1, 2], [3]], "settle": 1.0},
        {"op": "submit", "node": 1, "update": ["SET", "owner", "bob"]},
        {"op": "submit", "node": 3, "update": ["INC", "visits", 1]},
        {"op": "run", "seconds": 0.3},
        {"op": "check", "kind": "primary_is", "members": [1, 2]},
        {"op": "check", "kind": "single_primary"},
        {"op": "check", "kind": "prefix"},
        {"op": "heal", "settle": 1.5},
        {"op": "check", "kind": "converged"},
        {"op": "check", "kind": "all_primary"},
        {"op": "check", "kind": "key", "node": 3, "key": "owner",
         "value": "bob"},
        {"op": "check", "kind": "key", "node": 1, "key": "visits",
         "value": 2},
        {"op": "check", "kind": "completions", "at_least": 4},
    ],
}


SECTION5 = (Path(__file__).resolve().parent.parent / "examples"
            / "scenarios" / "section5_faults.json")


class TestPortableScenario:
    def test_same_outcome_on_sim_and_asyncio(self):
        runners = {runtime: ScenarioRunner(PORTABLE, runtime=runtime)
                   for runtime in ("sim", "asyncio")}
        reports = {runtime: runner.run()
                   for runtime, runner in runners.items()}
        for report in reports.values():
            assert report.checks_passed == 8
            assert report.completions == 4
        assert reports["sim"].final_green_counts \
            == reports["asyncio"].final_green_counts == {1: 4, 2: 4, 3: 4}
        states = {runtime: {n: r.database.state
                            for n, r in runner.cluster.replicas.items()}
                  for runtime, runner in runners.items()}
        assert states["sim"] == states["asyncio"]

    def test_section5_faults_same_outcome_on_sim_and_asyncio(self):
        # Crash, recover, join, partition, heal and leave (Section 5)
        # through the one step interpreter on both runtimes.
        spec = json.loads(SECTION5.read_text())
        runners = {runtime: ScenarioRunner(spec, runtime=runtime)
                   for runtime in ("sim", "asyncio")}
        reports = {runtime: runner.run()
                   for runtime, runner in runners.items()}
        for report in reports.values():
            assert report.checks_passed == 10
            assert report.completions == 5
        # Five updates plus the join and the leave, which are ordered
        # actions too.
        assert reports["sim"].final_green_counts \
            == reports["asyncio"].final_green_counts == {2: 7, 3: 7, 4: 7}
        states = {runtime: {n: r.database.state
                            for n, r in runner.cluster.replicas.items()}
                  for runtime, runner in runners.items()}
        assert states["sim"] == states["asyncio"]

    def test_live_run_applies_the_spec_cluster_keys(self):
        spec = {"replicas": 3, "quorum": "static-majority",
                "gcs": {"failure_timeout": 0.5},
                "disk": {"forced_write_latency": 0.001}, "steps": []}
        runner = ScenarioRunner(spec, runtime="asyncio")
        runner.run()
        for replica in runner.cluster.replicas.values():
            assert isinstance(replica.engine_config.quorum, StaticMajority)
            # Overrides of the live defaults, not of the LAN ones.
            assert replica.engine_config.apply_cpu == 0.0
            assert replica.gcs_settings.failure_timeout == 0.5
            assert replica.gcs_settings.idle_immediate is True
            assert replica.disk.profile.forced_write_latency == 0.001
            assert replica.disk.profile.async_write_latency == 0.0

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ScenarioError, match="unknown runtime"):
            run_scenario(BASIC, runtime="threads")


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
        cluster = ReplicaCluster(n=3, seed=5)
        cluster.start_all(settle=2.0)
        cluster.partition([1], [2, 3])
        cluster.run_for(2.0)
        cluster.heal()
        cluster.run_for(2.0)
        return cluster

    def test_state_changes_ordered(self):
        cluster = self.traced_cluster()
        changes = state_changes(cluster.tracer.select())
        assert changes
        times = [r["t"] for r in changes]
        assert times == sorted(times)

    def test_render_timeline_mentions_primary(self):
        cluster = self.traced_cluster()
        text = render_timeline(cluster.tracer.select("engine.state"))
        assert "PRIMARY" in text
        assert "non-prim" in text
        assert text.count("\n") > 3

    def test_render_empty_tracer(self):
        assert "no engine state changes" in render_timeline([])

    def test_time_in_state_accounts_for_everything(self):
        cluster = self.traced_cluster()
        now = cluster.sim.now
        totals = summarize_time_in_state(
            cluster.tracer.select("engine.state"), 1, until=now)
        assert totals
        assert sum(totals.values()) == pytest.approx(now, abs=0.01)
        assert totals.get("RegPrim", 0) > 0


class TestPackage:
    def test_running_a_tool_as_main_does_not_warn(self):
        # runpy warns when ``python -m repro.tools.scenario`` finds the
        # module already imported by its package's __init__.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.tools.scenario", "--help"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
