"""Static analysis of the protocol implementation.

Four AST-based analyzers (stdlib-only) verify structural properties
that the paper's correctness argument relies on and that runtime
checks alone catch late or not at all:

* :mod:`~repro.analysis.state_checker` — extracts every
  ``_set_state`` edge and state guard from the engine source and diffs
  it against the declared Figure-4 table in
  :mod:`repro.core.state_machine`;
* :mod:`~repro.analysis.determinism` — flags nondeterminism hazards in
  protocol modules: wall-clock reads, the global ``random`` module,
  iteration over sets feeding ordering or emission, ``id()``-based
  keys, float equality;
* :mod:`~repro.analysis.seams` — enforces that protocol code reaches
  clocks, timers, and sockets only through the ``Runtime`` /
  ``Transport`` protocols of :mod:`repro.runtime.base`;
* :mod:`~repro.analysis.model_sync` — asserts the model checker's
  abstract model (:mod:`repro.check.model`) *derives* its edges from
  ``EDGES_BY_INPUT`` rather than carrying a hand-written copy that
  could drift from the executable table.

Run the whole suite with ``repro-analyze`` (see
:mod:`repro.tools.analyze`) or programmatically via
:func:`run_analyzers`.  Intentional exceptions carry inline
suppressions: ``# repro: allow[rule-name] -- reason``.
"""

from .common import (Finding, Suppressions, collect_py_files,
                     iter_findings, module_parts, parse_file)
from .determinism import DeterminismLinter, PROTOCOL_PACKAGES
from .model_sync import ModelSyncChecker, model_modules
from .seams import SEAM_EXEMPT_PACKAGES, SeamEnforcer
from .state_checker import (StateMachineChecker, default_state_table,
                            engine_sources)
from .cli import main, run_analyzers

__all__ = [
    "DeterminismLinter",
    "Finding",
    "ModelSyncChecker",
    "PROTOCOL_PACKAGES",
    "SEAM_EXEMPT_PACKAGES",
    "SeamEnforcer",
    "StateMachineChecker",
    "Suppressions",
    "collect_py_files",
    "default_state_table",
    "engine_sources",
    "iter_findings",
    "main",
    "model_modules",
    "module_parts",
    "parse_file",
    "run_analyzers",
]
