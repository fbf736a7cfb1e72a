"""Operator tooling: scenario runner, trace timelines, obs reports."""

from .obsreport import build_report, default_spec, format_table
from .scenario import (ScenarioError, ScenarioReport, ScenarioRunner,
                       run_scenario)
from .timeline import (render_timeline, state_changes,
                       summarize_time_in_state)
from .tracecli import (causal_signature, chrome_trace, descendants,
                       dump_flight, flight_sink, happens_before,
                       load_rows, merge_rows, render_text)

__all__ = [
    "ScenarioError",
    "ScenarioReport",
    "ScenarioRunner",
    "build_report",
    "causal_signature",
    "chrome_trace",
    "default_spec",
    "descendants",
    "dump_flight",
    "flight_sink",
    "format_table",
    "happens_before",
    "load_rows",
    "merge_rows",
    "render_text",
    "render_timeline",
    "run_scenario",
    "state_changes",
    "summarize_time_in_state",
]
