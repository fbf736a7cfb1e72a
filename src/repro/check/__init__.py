"""Model checking and fault-schedule fuzzing for the Figure-4 machine.

Two complementary correctness instruments over the same protocol:

* :mod:`repro.check.model` + :mod:`repro.check.mc` — an abstract
  N-engine model whose every move passes the engine's own
  ``core.state_machine.check_transition``, built on
  ``core.knowledge.compute_knowledge`` and the real quorum policies,
  explored exhaustively (bounded BFS) with safety invariants and
  liveness wedge detection, producing minimal counterexample traces;
* :mod:`repro.check.fuzz` + :mod:`repro.check.shrink` — seeded random
  fault schedules run against the real simulator stack end-to-end,
  with ddmin-style shrinking of failing schedules into pinned
  ``tools/scenario.py`` regression specs.

``repro-check`` (:mod:`repro.check.cli`) fronts both.
"""

from .mc import McResult, ModelChecker, Violation, run_check
from .model import (GlobalState, Model, ModelConfig, ModelInternalError,
                    canonicalize)
from .mutations import MUTATIONS, apply_mutation

__all__ = [
    "GlobalState",
    "MUTATIONS",
    "McResult",
    "Model",
    "ModelChecker",
    "ModelConfig",
    "ModelInternalError",
    "Violation",
    "apply_mutation",
    "canonicalize",
    "run_check",
]
