"""Observability report: latency, membership, and fsync tables.

Runs a workload with observability enabled and prints, per replica:

* action latency percentiles — red→green and submit→green p50/p95/p99
  (bucket-interpolated from the whole-run histograms);
* membership changes — count and total duration (exact, from the
  histograms) and max duration (over the span ring's recent changes)
  from steady state lost to primary installed, plus closed vulnerable
  windows, and the
  GCS gather rounds: how many settled on every expected member's
  answer and how many on the settle timer, with the gather p50;
* fsync accounting — forced writes, platter syncs (group commits), and
  the mean sync wait.

Two ways to drive it:

    python -m repro.tools.obsreport                       # built-in workload
    python -m repro.tools.obsreport scenario.json         # a scenario spec
    python -m repro.tools.obsreport --runtime asyncio     # wall-clock run
    python -m repro.tools.obsreport --json                # machine-readable

The built-in workload submits ``--actions`` updates round-robin, then
injects one partition/heal cycle (so membership spans and vulnerable
windows are exercised) and a second batch after the merge.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..obs import Observability
from .scenario import run_scenario


def default_spec(replicas: int = 5, actions: int = 100,
                 seed: int = 0) -> Dict[str, Any]:
    """The built-in workload: load, partition, merge, load again."""
    majority = list(range(1, replicas // 2 + 2))
    minority = list(range(replicas // 2 + 2, replicas + 1))
    nodes = list(range(1, replicas + 1))
    first, second = actions - actions // 4, actions // 4
    steps: List[Dict[str, Any]] = []
    for i in range(first):
        steps.append({"op": "submit", "node": nodes[i % len(nodes)],
                      "update": ["SET", f"k{i}", i]})
    steps.append({"op": "run", "seconds": 2.0})
    if minority:
        steps.append({"op": "partition",
                      "groups": [majority, minority], "settle": 2.0})
        steps.append({"op": "heal", "settle": 3.0})
    for i in range(second):
        steps.append({"op": "submit",
                      "node": nodes[i % len(nodes)],
                      "update": ["SET", f"post{i}", i]})
    steps.append({"op": "run", "seconds": 3.0})
    steps.append({"op": "check", "kind": "converged"})
    return {"replicas": replicas, "seed": seed, "steps": steps}


def build_report(obs: Observability) -> Dict[str, Any]:
    """Per-replica observability digest from a finished run."""
    snapshot = obs.snapshot()

    def sample(name: str, node: Any, default: Any = 0.0,
               *labels: str) -> Any:
        # Snapshot keys are the comma-joined label values, node first.
        return snapshot.get(name, {}).get(
            ",".join([str(node), *labels]), default)

    doc: Dict[str, Any] = {"replicas": {}}
    for node in sorted(obs.trackers):
        tracker = obs.trackers[node]
        red_green = tracker.latency_percentiles("red_to_green")
        submit_green = tracker.latency_percentiles("submit_to_green")
        durations = tracker.membership_durations()
        forced = sample("repro_disk_forced_writes", node)
        syncs = sample("repro_disk_syncs", node)
        sync_hist = sample("repro_disk_sync_wait_seconds", node, {})
        gather_hist = sample("repro_gcs_gather_seconds", node, {})
        # Counts and sums from the exact histograms; the span ring keeps
        # only the last MAX_COMPLETED membership changes.
        membership = sample("repro_membership_change_seconds", node, {})
        vulnerable = sample("repro_vulnerable_window_seconds", node, {})
        doc["replicas"][str(node)] = {
            "actions_completed": tracker.greens_total,
            "red_to_green": dict(zip(("p50", "p95", "p99"), red_green)),
            "submit_to_green": dict(zip(("p50", "p95", "p99"),
                                        submit_green)),
            "membership_changes": membership.get("count", 0),
            "membership_total_s": membership.get("sum", 0.0),
            "membership_max_s": max(durations) if durations else 0.0,
            "gathers_answered": int(sample(
                "repro_gcs_gather_settled_total", node, 0, "answered")),
            "gathers_timer": int(sample(
                "repro_gcs_gather_settled_total", node, 0, "timer")),
            "gather_p50_s": gather_hist.get("p50", 0.0),
            "vulnerable_windows": vulnerable.get("count", 0),
            "forced_writes": int(forced),
            "syncs": int(syncs),
            "sync_wait_mean_s": (sync_hist.get("sum", 0.0)
                                 / sync_hist["count"]
                                 if sync_hist.get("count") else 0.0),
        }
        staleness = tracker.staleness_percentiles()
        if staleness is not None:
            doc["replicas"][str(node)]["staleness"] = dict(
                zip(("p50", "p95", "p99"), staleness))
            doc["replicas"][str(node)]["green_lag_s"] = tracker.green_lag
    return doc


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:8.2f}"


def format_table(doc: Dict[str, Any]) -> str:
    """Render the report as the fixed-width operator table."""
    lines = [
        "server  actions   red->green ms (p50/p95/p99)   "
        "submit->green ms (p50/p95/p99)   membership (n, max ms)   "
        "gathers (answered/timer, p50 ms)   "
        "fsyncs (forced/syncs, mean ms)",
    ]
    lines.append("-" * len(lines[0]))
    for node, entry in doc["replicas"].items():
        rg = entry["red_to_green"]
        sg = entry["submit_to_green"]
        gathers = f"{entry['gathers_answered']}/{entry['gathers_timer']}"
        lines.append(
            f"{node:>6}  {entry['actions_completed']:>7}   "
            f"{_ms(rg['p50'])}/{_ms(rg['p95'])}/{_ms(rg['p99'])}   "
            f"{_ms(sg['p50'])}/{_ms(sg['p95'])}/{_ms(sg['p99'])}   "
            f"{entry['membership_changes']:>3}, "
            f"{_ms(entry['membership_max_s'])}          "
            f"{gathers:>7}, {_ms(entry['gather_p50_s'])}             "
            f"{entry['forced_writes']:>6}/{entry['syncs']:<6} "
            f"{_ms(entry['sync_wait_mean_s'])}")
    if any("staleness" in e for e in doc["replicas"].values()):
        lines.append("")
        lines.append("server  staleness ms (p50/p95/p99)   green lag ms")
        for node, entry in doc["replicas"].items():
            st = entry.get("staleness")
            if st is None:
                continue
            lines.append(
                f"{node:>6}  {_ms(st['p50'])}/{_ms(st['p95'])}"
                f"/{_ms(st['p99'])}      {_ms(entry['green_lag_s'])}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Run a workload with observability on and print "
                    "per-replica latency/membership/fsync tables.")
    parser.add_argument("spec", nargs="?", default=None,
                        help="scenario JSON (default: built-in workload)")
    parser.add_argument("--replicas", type=int, default=5,
                        help="built-in workload cluster size")
    parser.add_argument("--actions", type=int, default=100,
                        help="built-in workload action count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runtime", choices=("sim", "asyncio"),
                        default=None,
                        help="execution substrate (default: spec's "
                             "'runtime' key, else sim)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    args = parser.parse_args(argv)

    if args.spec is not None:
        with open(args.spec, encoding="utf-8") as handle:
            spec = json.load(handle)
    else:
        spec = default_spec(args.replicas, args.actions, args.seed)

    obs = Observability(staleness=True)
    run_scenario(spec, runtime=args.runtime, observability=obs)
    doc = build_report(obs)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_table(doc))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
