"""Rendering: paper-style tables and paper-vs-measured comparisons."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .metrics import RunResult


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Simple aligned text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i])
                         for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def throughput_series_table(series: Dict[str, List[RunResult]]) -> str:
    """Figure 5-style table: one row per client count, one column per
    system, cells in actions/second."""
    counts = sorted({r.clients for results in series.values()
                     for r in results})
    headers = ["clients"] + list(series)
    rows = []
    for count in counts:
        row: List[object] = [count]
        for name, results in series.items():
            match = next((r for r in results if r.clients == count), None)
            row.append(f"{match.throughput:8.1f}" if match else "-")
        rows.append(row)
    return format_table(headers, rows)


def latency_table(results: List[RunResult]) -> str:
    headers = ["system", "mean ms", "median ms", "p99 ms", "actions"]
    rows = [[r.system, f"{r.mean_latency_ms:7.2f}",
             f"{r.median_latency * 1e3:7.2f}",
             f"{r.p99_latency * 1e3:7.2f}", r.actions_completed]
            for r in results]
    return format_table(headers, rows)


def per_action_cost_table(results: List[RunResult],
                          counters: Sequence[str]) -> str:
    headers = ["system"] + [f"{c}/action" for c in counters]
    rows = []
    for r in results:
        rows.append([r.system] + [f"{r.per_action(c):8.2f}"
                                  for c in counters])
    return format_table(headers, rows)


def paper_vs_measured(rows: Iterable[Sequence[object]]) -> str:
    """Rows of (metric, paper value, measured value, verdict)."""
    return format_table(["metric", "paper", "measured", "verdict"], rows)
