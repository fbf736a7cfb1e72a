"""Static cross-checks of the Figure-4 transition table.

Two AST-based checkers (stdlib-only) verify that the declared table in
:mod:`repro.core.state_machine` stays the one source of truth:

* :mod:`~repro.analysis.state_checker` — extracts every
  ``_set_state`` edge and state guard from the engine source and diffs
  it against the declared table;
* :mod:`~repro.analysis.model_sync` — asserts the model checker's
  abstract model (:mod:`repro.check.model`) *derives* its edges from
  ``EDGES_BY_INPUT`` rather than carrying a hand-written copy that
  could drift from the executable table.

Both run as tier-1 tests.  Which modules may reach the host (event
loop, sockets, clocks, files), the wire format or randomness is an
import policy, asserted by ``tests/test_import_policy.py``; determinism
itself is checked dynamically by the pins and the hash-seed replay of
``tests/test_determinism.py``.
"""

from .model_sync import ModelSyncChecker, model_modules
from .state_checker import (StateMachineChecker, default_state_table,
                            engine_sources)

__all__ = [
    "ModelSyncChecker",
    "StateMachineChecker",
    "default_state_table",
    "engine_sources",
    "model_modules",
]
