"""perfbench: the repository's benchmark.

One workload per process (so set-up time and peak memory are that
workload's own)::

    python3 perfbench/run.py --workload live_udp_saturated --seed 0 \\
        --seconds 10 --trace 0

prints every end-to-end metric as ``workload metric value unit``, checks
the outputs, and ends with one JSON line.  ``--trace 1`` prints the
per-layer metrics instead: an untraced and a traced window, each 0.4 of
``--seconds``, and the spans in ``perfbench/results/trace-<workload>.json``.
Without ``--workload`` every workload runs in turn, each in a child
process.  The metrics and their bounds are declared in ``BENCHMARK.json``;
``perfbench/README.md`` says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import SETUP_REPEATS, Params

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: Share of ``--seconds`` each of the two windows of a traced run gets.
TRACED_WINDOW_SHARE = 0.4
SMOKE_SECONDS = 1.0


def declared() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint(seed: int, seconds: float, window_s: float) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    from repro import accel
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, check=False)
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "accel": accel.active(),
        "accel_build_info": accel.build_info(),
        "seed": seed,
        "seconds": seconds,
        "window_seconds": window_s,
    }


# ----------------------------------------------------------------------
# one workload, this process
# ----------------------------------------------------------------------
def import_seconds(repeats: int) -> float:
    """Process start to the program imported, as the median of fresh
    interpreters doing what this one is about to do.  Measured several
    times because one import rides on the file cache and the machine's
    mood; ``setup_s`` adds the median cluster set-up to it."""
    script = ("import sys; sys.path[:0] = [%r, %r]; import live, simw"
              % (str(ROOT / "src"), str(HERE)))
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", script], check=True)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def _end_to_end(window: Any, import_s: float) -> Tuple[Dict[str, float],
                                                       Dict[str, Any]]:
    from stats import percentile, supported_quantile
    writes = window.write_ms
    samples = len(writes)
    metrics = {
        "setup_s": import_s + statistics.median(window.setup_s),
        "actions_per_s": window.actions_per_s,
        "submit_green_p50_ms": percentile(writes, 0.50),
        "submit_green_p90_ms": percentile(writes, 0.90),
        "cpu_us_per_action": window.cpu_s / window.actions * 1e6,
        "peak_rss_mb": window.peak_rss_mb,
    }
    supported = supported_quantile(samples)
    detail = {
        "latency_samples": samples,
        "highest_supported_percentile": supported,
        "import_s": import_s,
        "setup_runs_s": window.setup_s,
        "actions": window.actions,
        "window_wall_s": window.wall_s,
        "extra": window.extra,
    }
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setups: int) -> Dict[str, Any]:
    """Run one workload here and return its record; ``setups`` is how
    many times set-up is timed for ``setup_s``."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
            "is missing")
    sys.path.insert(0, str(ROOT / "src"))
    import live
    import simw

    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if name not in names:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"BENCHMARK.json declares {names}")
    runner = live.run if name in live.WORKLOADS else simw.run
    simulated = name in simw.WORKLOADS

    detail: Dict[str, Any]
    if not trace:
        import_s = import_seconds(setups)
        window = runner(Params(name, seed, seconds), setups)
        metrics, detail = _end_to_end(window, import_s)
        kind, window_s = "end_to_end", seconds
        attempted, failed = window.attempted, window.failed
    else:
        import layers
        import tracing
        window_s = seconds * TRACED_WINDOW_SHARE
        plain = runner(Params(name, seed, window_s), 1)
        recorder = tracing.SpanRecorder()
        patches = tracing.install(recorder)
        try:
            traced = runner(Params(name, seed, window_s, recorder), 1)
        finally:
            patches.undo()
        metrics = layers.layer_metrics(plain, traced, recorder, simulated)
        RESULTS.mkdir(exist_ok=True)
        trace_file = RESULTS / f"trace-{name}.json"
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": seed,
                       "window_seconds": window_s,
                       "actions": traced.actions,
                       "cpu_ns": traced.cpu_s * 1e9,
                       "unpatched": patches.missing,
                       **recorder.document()}, handle)
        for missing in patches.missing:
            print(f"perfbench: could not trace {missing}", file=sys.stderr)
        detail = {"trace_file": str(trace_file.relative_to(ROOT)),
                  "unpatched": patches.missing,
                  "plain_actions": plain.actions,
                  "traced_actions": traced.actions}
        kind = "per_layer"
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise SystemExit(
            "perfbench: metrics measured and metrics declared differ: "
            f"undeclared {sorted(set(metrics) - set(units))}, "
            f"unmeasured {sorted(set(units) - set(metrics))}")
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {metric: {"value": metrics[metric],
                             "unit": units[metric]}
                    for metric in units},
        "detail": detail,
        "fingerprint": fingerprint(seed, seconds, window_s),
    }


def print_record(record: Dict[str, Any]) -> None:
    note = ""
    detail = record["detail"]
    if "latency_samples" in detail:
        top = detail["highest_supported_percentile"]
        note = (f"   # latencies: n={detail['latency_samples']}, highest "
                f"percentile with 10 samples beyond it: "
                f"{'none' if top is None else f'p{top * 100:g}'}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']} {name} {metric['value']!r} "
              f"{metric['unit']}"
              + (note if name.startswith("submit_green") else ""))


def append_record(path: Path, record: Dict[str, Any]) -> None:
    document = {"schema": 1, "runs": []}
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document["runs"].append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def last_line(record: Dict[str, Any]) -> str:
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# ----------------------------------------------------------------------
# every workload, one child process each
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    names = [w["name"] for w in declared()["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for repeat in range(args.repeat):
        for name in names:
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name,
                       "--seed", str(args.seed + repeat),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.smoke:
                command.append("--smoke")
            if args.out:
                command += ["--out", args.out]
            done = subprocess.run(command, capture_output=True, text=True,
                                  check=False)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"perfbench: {name} failed (exit {done.returncode})",
                      file=sys.stderr)
                return done.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured window; default: run_seconds of "
                             "BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s windows and one timed "
                             "set-up instead of five")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all workloads this many times, seeds "
                             "--seed, --seed+1, ...")
    parser.add_argument("--out", help="append each run's record to this "
                                      "results file")
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1
    if args.smoke and args.seconds is None:
        args.seconds = SMOKE_SECONDS
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.workload is None:
        return run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace),
                          1 if args.smoke else SETUP_REPEATS)
    print_record(record)
    if args.out:
        append_record(Path(args.out), record)
    print(last_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
