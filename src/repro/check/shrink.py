"""Delta-debugging shrinker for failing fuzz schedules.

Classic ddmin over the schedule's step list: repeatedly try dropping
contiguous chunks (halving the chunk size down to single steps) and
keep any removal after which the run still fails with the *same*
failure name.  The fixed tail (recover + heal + settle + checks) is
appended by ``render_spec`` and is never part of the shrink space, so
the minimization cannot degenerate into "never heal, of course it
diverges".

Everything downstream of the schedule is deterministic, so the shrink
itself is deterministic: same case + same failing schedule ⇒ the same
sequence of candidate runs ⇒ byte-identical shrunk schedule and
byte-identical emitted scenario spec (:func:`spec_json`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .fuzz import (FuzzCase, FuzzResult, ScheduleStep, render_spec,
                   run_schedule)


@dataclass
class ShrinkResult:
    """A minimized failing schedule plus its pinned replay spec."""

    case: FuzzCase
    failure: str
    original_steps: int
    schedule: List[ScheduleStep] = field(default_factory=list)
    runs: int = 0               # candidate executions spent shrinking

    @property
    def spec(self) -> Dict[str, Any]:
        return render_spec(self.case, self.schedule)

    def spec_json(self) -> str:
        """Byte-deterministic serialization of the replay spec."""
        return json.dumps(self.spec, indent=2, sort_keys=True) + "\n"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.case.seed,
            "failure": self.failure,
            "original_steps": self.original_steps,
            "shrunk_steps": len(self.schedule),
            "runs": self.runs,
            "schedule": [list(s) for s in self.schedule],
            "spec": self.spec,
        }


def shrink(result: FuzzResult,
           max_runs: int = 500) -> Optional[ShrinkResult]:
    """ddmin ``result``'s schedule to a locally minimal failing one.

    Returns None if ``result`` was not a failure.  The outcome is
    1-minimal (no single remaining step can be dropped) unless the
    ``max_runs`` budget ran out first.
    """
    if result.failure is None:
        return None
    case, failure = result.case, result.failure
    out = ShrinkResult(case=case, failure=failure,
                       original_steps=len(result.schedule))

    def still_fails(candidate: List[ScheduleStep]) -> bool:
        out.runs += 1
        return run_schedule(case, candidate).failure == failure

    current = list(result.schedule)
    chunk = max(1, len(current) // 2)
    while chunk >= 1 and out.runs < max_runs:
        i = 0
        while i < len(current) and out.runs < max_runs:
            candidate = current[:i] + current[i + chunk:]
            if still_fails(candidate):
                current = candidate  # keep the removal, retry at i
            else:
                i += chunk
        chunk //= 2
    out.schedule = current
    return out


def write_repro(result: ShrinkResult, path: str) -> None:
    """Write the pinned replay spec where ``tools/scenario.py`` (or
    ``python -m repro.tools.scenario``) can run it directly."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(result.spec_json())
