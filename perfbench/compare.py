"""Compare two results files written by ``run.py --out``.

    python3 perfbench/compare.py A.json B.json

One row per workload and end-to-end metric: each side's median and
quartiles, B's median over A's (A is the base), and a verdict by the
rules of the choosing-metrics guide, sections 6.5 and 8:

``unresolved``  either side's run-to-run spread (distance between its
                quartiles over its median) is wider than the metric's
                bound, so neither a regression nor its absence shows;
``regressed``   B's median is worse than A's by more than the bound;
``improved``    B wins at least nine tenths of the pairs (run i of A
                against run i of B, ties counting for neither) and the
                medians differ by more than the distance between A's
                own quartiles;
``unchanged``   none of the above.

Exits 1 if any row regressed.

    python3 perfbench/compare.py --summarize A.json > baseline.json

writes the medians and quartiles of one results file instead: per
workload every end-to-end metric of its untraced runs and every
per-layer metric of its traced ones.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from stats import quartiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_runs(*paths: str) -> List[Dict[str, Any]]:
    runs: List[Dict[str, Any]] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs += json.load(handle)["runs"]
    return runs


def metric_table(runs: List[Dict[str, Any]], trace: int = 0
                 ) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, one per run with that ``--trace``,
    in file order."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        metrics = table.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    if not b2 or not c2:
        return "unresolved"
    if (b3 - b1) / b2 > bound or (c3 - c1) / c2 > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    if sign * (c2 - b2) / b2 > bound:
        return "regressed"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (b2 - c2) > (b3 - b1):
        return "improved"
    return "unchanged"


def rows(base_path: str, change_path: str
         ) -> List[Tuple[str, str, str, Any, Any, float, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    base = metric_table(load_runs(base_path))
    change = metric_table(load_runs(change_path))
    out = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = base.get(workload, {}).get(metric["name"])
            b = change.get(workload, {}).get(metric["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            out.append((workload, metric["name"], metric["unit"], qa, qb,
                        qb[1] / qa[1] if qa[1] else float("nan"),
                        verdict(a, b, metric["better"], metric["bound"])))
    return out


def summarize(paths: Sequence[str]) -> Dict[str, Any]:
    """Medians and quartiles of the runs in ``paths``, and where they
    were measured (the first run's fingerprint)."""
    runs = load_runs(*paths)
    summary: Dict[str, Any] = {
        "measured_on": {key: runs[0]["fingerprint"][key] for key in (
            "git_commit", "python", "nproc", "accel", "seconds")},
        "seeds": sorted({run["seed"] for run in runs}),
        "workloads": {}}
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        for workload, metrics in metric_table(runs, trace).items():
            summary["workloads"].setdefault(workload, {})[kind] = {
                name: dict(zip(("q1", "median", "q3"), quartiles(values)),
                           n=len(values))
                for name, values in metrics.items()}
    return summary


def main(argv: List[str]) -> int:
    if len(argv) >= 2 and argv[0] == "--summarize":
        json.dump(summarize(argv[1:]), sys.stdout, indent=1)
        print()
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    def cell(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    table = rows(argv[0], argv[1])
    print("workload | metric | unit | A median [q1, q3] | "
          "B median [q1, q3] | B/A (base A) | verdict")
    for workload, metric, unit, qa, qb, ratio, result in table:
        print(f"{workload} | {metric} | {unit} | {cell(qa)} | {cell(qb)} | "
              f"{ratio:.4f} of {qa[1]:.5g} | {result}")
    return 1 if any(row[-1] == "regressed" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
