"""Model checking and fault-schedule fuzzing for the Figure-4 machine.

Two complementary correctness instruments over the same protocol:

* :mod:`repro.check.model` + :mod:`repro.check.mc` — a global model of
  N servers (components, crashes, inboxes, view formation, frozen
  exchange reports) whose every per-node reaction is computed by a
  real :class:`~repro.core.engine.ReplicationEngine` rebuilt from the
  node's record, explored exhaustively (bounded BFS) with safety
  invariants and liveness wedge detection, producing minimal
  counterexample traces;
* :mod:`repro.check.fuzz` + :mod:`repro.check.shrink` — seeded random
  fault schedules run against the real simulator stack end-to-end,
  with ddmin-style shrinking of failing schedules into pinned
  ``tools/scenario.py`` regression specs.

``repro-check`` (:mod:`repro.check.cli`) fronts both.
"""

from .mc import McResult, ModelChecker, Violation, run_check
from .model import (GlobalState, Model, ModelConfig, ModelInternalError,
                    canonicalize)
from .mutations import MUTATIONS, mutation

__all__ = [
    "GlobalState",
    "MUTATIONS",
    "McResult",
    "Model",
    "ModelChecker",
    "ModelConfig",
    "ModelInternalError",
    "Violation",
    "canonicalize",
    "mutation",
    "run_check",
]
