"""Static cross-check of the model checker against the Figure-4 table.

One AST-based checker (stdlib-only) keeps the declared table in
:mod:`repro.core.state_machine` the one source of truth for the
abstract model:

* :mod:`~repro.analysis.model_sync` — asserts the model checker's
  abstract model (:mod:`repro.check.model`) *derives* its edges from
  ``EDGES_BY_INPUT`` rather than carrying a hand-written copy that
  could drift from the executable table.

The engine itself needs no static check: it checks every transition
against the input that caused it at run time (``check_transition``),
and ``tests/test_engine_edge_coverage.py`` drives it through every live
edge.  Which modules may reach the host (event loop, sockets, clocks,
files), the wire format or randomness is an import policy, asserted by
``tests/test_import_policy.py``; determinism itself is checked
dynamically by the pins and the hash-seed replay of
``tests/test_determinism.py``.
"""

from .model_sync import ModelSyncChecker, model_modules

__all__ = [
    "ModelSyncChecker",
    "model_modules",
]
