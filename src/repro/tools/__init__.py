"""Operator tooling: scenario runner, trace timelines, obs reports.

The package init imports nothing, so ``python -m repro.tools.<module>``
runs each tool exactly once; import from the submodules:
:mod:`~repro.tools.scenario`, :mod:`~repro.tools.timeline`,
:mod:`~repro.tools.tracecli` and :mod:`~repro.tools.obsreport`.
"""
