"""ASCII line charts for benchmark reports.

Renders throughput/latency series as terminal plots so the figure
reproductions in ``benchmarks/results/`` read like the paper's figures
without any plotting dependency.

    2500 |                         d  d  d
         |                   d
         |             d
    1250 |       d                    e  e
         |    d        e  e  e
         |  d e  e
       0 +--+--+--+--+--+--+--+--+--+--+--
            1     2     4     7    10    14
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Series = Dict[str, List[Tuple[float, float]]]


def render_chart(series: Series, width: int = 64, height: int = 16,
                 y_label: str = "", x_label: str = "") -> str:
    """Render named (x, y) series as an ASCII scatter/line chart.

    Each series is plotted with the first letter of its name; collisions
    print ``*``.  Axes are linear, auto-scaled to the data.
    """
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(0.0, min(ys)), max(ys)
    if x_max == x_min:
        x_max = x_min + 1
    if y_max == y_min:
        y_max = y_min + 1

    def col(x: float) -> int:
        return int(round((x - x_min) / (x_max - x_min) * (width - 1)))

    def row(y: float) -> int:
        return int(round((y - y_min) / (y_max - y_min) * (height - 1)))

    grid = [[" "] * width for _ in range(height)]
    for name, values in series.items():
        marker = name[0]
        for x, y in values:
            r, c = row(y), col(x)
            cell = grid[height - 1 - r][c]
            grid[height - 1 - r][c] = marker if cell == " " else "*"

    label_width = max(len(f"{y_max:.0f}"), len(f"{y_min:.0f}")) + 1
    lines = []
    for i, cells in enumerate(grid):
        value = y_max - (y_max - y_min) * i / (height - 1)
        show = (i == 0 or i == height - 1 or i == (height - 1) // 2)
        label = f"{value:.0f}".rjust(label_width) if show \
            else " " * label_width
        lines.append(f"{label} |" + "".join(cells))
    lines.append(" " * label_width + " +" + "-" * width)
    ticks = " " * (label_width + 2) + (
        f"{x_min:g}".ljust(width - 8) + f"{x_max:g}".rjust(8))
    lines.append(ticks)
    legend = "   ".join(f"{name[0]} = {name}" for name in series)
    footer = []
    if y_label or x_label:
        footer.append(f"y: {y_label}   x: {x_label}".rstrip())
    footer.append(f"legend: {legend}")
    return "\n".join(lines + footer)


def throughput_chart(results_by_system, width: int = 64,
                     height: int = 14) -> str:
    """Chart throughput-vs-clients series from RunResult lists."""
    series: Series = {
        name: [(r.clients, r.throughput) for r in results]
        for name, results in results_by_system.items()
    }
    return render_chart(series, width=width, height=height,
                        y_label="actions/second", x_label="clients")
