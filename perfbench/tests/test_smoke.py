"""The benchmark end to end at 1 s windows: every workload runs, checks
its outputs, and emits exactly the metrics BENCHMARK.json declares."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_runs_all_six_workloads_within_25_seconds(tmp_path):
    out = tmp_path / "smoke.json"
    began = time.perf_counter()
    done = subprocess.run(RUN + ["--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stderr
    assert elapsed < 25, f"--smoke took {elapsed:.1f} s"

    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == \
        [w["name"] for w in SPEC["workloads"]]
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        assert {n: m["unit"] for n, m in run["metrics"].items()} == declared
        assert all(m["value"] > 0 for m in run["metrics"].values()), run
        fingerprint = run["fingerprint"]
        assert {"git_commit", "python", "nproc", "loadavg_1min_at_start",
                "accel", "accel_build_info", "seed", "seconds",
                "window_seconds"} <= set(fingerprint)

    # One printed line per metric: ``workload metric value unit``.
    printed = [line.split()[:4] for line in done.stdout.splitlines()
               if not line.startswith("{")]
    assert len(printed) == len(runs) * len(declared)
    assert all(line[1] in declared and line[3] == declared[line[1]]
               for line in printed)


def test_traced_run_emits_exactly_the_declared_layer_metrics(tmp_path):
    done = subprocess.run(
        RUN + ["--workload", "live_udp_mixed_rw", "--seconds", "2.5",
               "--trace", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    # Layer self times and the loop's remainder account for the traced
    # window's processor time.
    parts = sum(m["value"] for n, m in metrics.items()
                if n.endswith(".self_us_per_action"))
    parts += metrics["runtime.loop_other_us_per_action"]["value"]
    measured = metrics["trace.cpu_us_per_action"]["value"]
    assert abs(parts - measured) <= 0.10 * measured
    assert metrics["storage.forced_writes_per_action"]["value"] >= 1.0
    assert metrics["read_p99_ms"]["value"] > 0

    trace = json.loads(
        (ROOT / "perfbench" / "results" /
         "trace-live_udp_mixed_rw.json").read_text())
    assert trace["unpatched"] == []
    assert trace["span_fields"] == ["id", "layer", "name", "start_ns",
                                    "end_ns", "parent_id", "action_id"]
    assert trace["spans"] and any(s[6] for s in trace["spans"])


def test_no_program_no_result(tmp_path):
    """In a directory with only the benchmark's own files the command
    fails without printing a result."""
    import shutil
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_fig5a",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
