"""Deterministic fault-schedule fuzzing of the real simulator stack.

Where the model checker (:mod:`repro.check.mc`) explores an abstract
model exhaustively, the fuzzer drives the *real* system — GCS daemons,
replication engines, disks, the works — through seeded random fault
schedules drawn from :func:`random_fault_schedule`, then checks the
global end-to-end invariants: the safety rules of
:mod:`repro.core.invariants` over the real engines (``green-prefix``,
then ``single-primary``, ``unique-install`` and ``vulnerable-net``),
convergence after the final heal, a re-formed primary component, and
durability of every completed action.

Everything is plain data.  A fuzz case is rendered into a
``tools/scenario.py`` spec (JSON-compatible) and executed via
:func:`repro.tools.scenario.run_scenario`; the same rendering is what
the shrinker (:mod:`repro.check.shrink`) emits as a pinned regression
spec, so a shrunk repro replays bit-for-bit with no fuzzer involved.

Determinism: the only randomness is ``random.Random(seed)``; the
simulator underneath is the deterministic virtual-time kernel.  Same
seed ⇒ same schedule ⇒ same execution ⇒ same verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: One schedule entry: (time, op, arg) with a JSON-able arg — the groups
#: of a partition, the node of a crash or recover, the node and update
#: of a submit, None for a heal.
ScheduleStep = Tuple[float, str, Any]

#: GCS timers for fuzz runs — the fast test profile, pinned inline so
#: emitted repro specs are self-contained.
FAST_GCS: Dict[str, float] = {
    "heartbeat_interval": 0.02,
    "failure_timeout": 0.08,
    "gather_settle": 0.02,
    "phase_timeout": 0.15,
    "nack_timeout": 0.01,
}

#: Disk profile for fuzz runs (protocol logic, not latency, dominates).
FAST_DISK: Dict[str, float] = {
    "forced_write_latency": 0.001,
    "async_write_latency": 0.00001,
}


@dataclass(frozen=True)
class FuzzCase:
    """Shape of one seeded fuzz run."""

    seed: int
    nodes: int = 4
    horizon: float = 4.0
    rate: float = 2.0           # mean faults per virtual second
    submits: int = 3
    allow_crashes: bool = True
    settle: float = 3.0         # quiet tail after the final heal
    quorum: str = "dynamic-linear"


@dataclass
class FuzzResult:
    """Verdict of one case: ``failure`` is None on a clean run."""

    case: FuzzCase
    schedule: List[ScheduleStep]
    failure: Optional[str] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.case.seed,
            "nodes": self.case.nodes,
            "quorum": self.case.quorum,
            "schedule": [list(s) for s in self.schedule],
            "failure": self.failure,
            "detail": self.detail,
        }


def random_partition(nodes: Sequence[int], rng: random.Random
                     ) -> List[List[int]]:
    """Split ``nodes`` into 1..3 random non-empty groups."""
    nodes = list(nodes)
    rng.shuffle(nodes)
    k = rng.randint(1, min(3, len(nodes)))
    cuts = sorted(rng.sample(range(1, len(nodes)), k - 1)) if k > 1 else []
    groups, prev = [], 0
    for cut in cuts + [len(nodes)]:
        groups.append(nodes[prev:cut])
        prev = cut
    return groups


def random_fault_schedule(nodes: Sequence[int], rng: random.Random,
                          horizon: float, rate: float = 1.0,
                          allow_crashes: bool = True
                          ) -> List[ScheduleStep]:
    """Draw a time-ordered fault schedule over ``[0, horizon]``.

    ``rate`` is the mean number of fault events per second.  The
    schedule always ends, at ``horizon``, by recovering every crashed
    node and healing, so liveness can be checked after quiescence.
    """
    steps: List[ScheduleStep] = []
    time = 0.0
    crashed: set = set()
    while True:
        time += rng.expovariate(rate) if rate > 0 else horizon + 1
        if time >= horizon:
            break
        ops = ["partition", "heal"]
        if allow_crashes:
            ops.append("crash")
            if crashed:
                ops.append("recover")
        op = rng.choice(ops)
        if op == "partition":
            steps.append((time, op, random_partition(nodes, rng)))
        elif op == "heal":
            steps.append((time, op, None))
        elif op == "crash":
            alive = [n for n in nodes if n not in crashed]
            if len(alive) <= 1:
                continue
            node = rng.choice(alive)
            crashed.add(node)
            steps.append((time, op, node))
        elif op == "recover":
            node = rng.choice(sorted(crashed))
            crashed.discard(node)
            steps.append((time, op, node))
    steps.extend((horizon, "recover", node) for node in sorted(crashed))
    steps.append((horizon, "heal", None))
    return steps


def generate_schedule(case: FuzzCase) -> List[ScheduleStep]:
    """Draw the case's fault + submit schedule (deterministic).

    The body is free-form; the tail — recover every crashed node, heal,
    settle — is appended by :func:`render_spec` so the end-state
    invariants are meaningful (and the shrinker never removes it).
    """
    rng = random.Random(case.seed)
    nodes = list(range(1, case.nodes + 1))
    # The tail recovery/heal at the horizon is re-added at render.
    steps = [step for step in random_fault_schedule(
        nodes, rng, horizon=case.horizon, rate=case.rate,
        allow_crashes=case.allow_crashes) if step[0] < case.horizon]

    def alive_at(t: float, node: int) -> bool:
        state = True
        for when, op, arg in steps:
            if op in ("crash", "recover") and arg == node and when <= t:
                state = op != "crash"
        return state

    for i in range(case.submits):
        t = round(rng.uniform(0.0, case.horizon), 3)
        node = rng.choice(nodes)
        if not alive_at(t, node):
            continue  # submission target is down: skip, keep the draw
        steps.append((t, "submit", [node, ["SET", f"k{i}", i]]))
    steps.sort(key=lambda s: (s[0], s[1], str(s[2])))
    return steps


def render_spec(case: FuzzCase,
                schedule: List[ScheduleStep]) -> Dict[str, Any]:
    """Render a schedule into a ``tools/scenario.py`` spec.

    Pure data in, pure data out — this is also the shrinker's emitted
    regression format, so it embeds the timers and quorum policy.
    """
    ops: List[Dict[str, Any]] = []
    now = 0.0
    submitted: List[Tuple[float, int]] = []  # (time, node)
    crash_times: List[Tuple[float, int]] = []
    crashed: set = set()
    for when, op, arg in sorted(schedule,
                                key=lambda s: (s[0], s[1], str(s[2]))):
        if when > now:
            ops.append({"op": "run", "seconds": round(when - now, 6)})
            now = when
        if op == "partition":
            ops.append({"op": "partition", "groups": arg, "settle": 0.0})
        elif op == "heal":
            ops.append({"op": "heal", "settle": 0.0})
        elif op == "crash":
            if arg in crashed or len(crashed) + 1 >= case.nodes:
                continue  # shrinking removed the matching recover
            crashed.add(arg)
            crash_times.append((when, arg))
            ops.append({"op": "crash", "node": arg, "settle": 0.0})
        elif op == "recover":
            if arg not in crashed:
                continue
            crashed.discard(arg)
            ops.append({"op": "recover", "node": arg, "settle": 0.0})
        elif op == "submit":
            node, update = arg
            if node in crashed:
                continue
            submitted.append((when, node))
            ops.append({"op": "submit", "node": node, "update": update})
        else:
            raise ValueError(f"unknown schedule op {op!r}")
    # Fixed tail: recover everything, heal, settle, then the invariant
    # checks.  The shrinker operates on the schedule, never the tail.
    for node in sorted(crashed):
        ops.append({"op": "recover", "node": node, "settle": 0.0})
    ops.append({"op": "heal", "settle": 0.0})
    ops.append({"op": "run", "seconds": case.settle})
    ops.append({"op": "check", "kind": "prefix"})
    ops.append({"op": "check", "kind": "single_primary"})
    ops.append({"op": "check", "kind": "converged"})
    ops.append({"op": "check", "kind": "all_primary"})
    # A submission's completion callback lives in the submitting
    # replica's memory: if that node crashes later, the action itself
    # survives (forced write) but the callback is gone, so such
    # submissions don't count toward the expected completions.
    expected = sum(
        1 for t, node in submitted
        if not any(node == victim and when >= t
                   for when, victim in crash_times))
    if expected:
        ops.append({"op": "check", "kind": "completions",
                    "at_least": expected})
    return {
        "replicas": case.nodes,
        "seed": case.seed,
        "settle": 1.0,
        "gcs": dict(FAST_GCS),
        "disk": dict(FAST_DISK),
        "quorum": case.quorum,
        "steps": ops,
    }


def classify_failure(error: BaseException) -> Tuple[str, str]:
    """Stable failure name for shrink matching + a human detail."""
    from ..tools.scenario import ScenarioError
    if isinstance(error, ScenarioError):
        text = str(error)
        if text.startswith("check "):
            kind = text.split("'")[1] if "'" in text else "unknown"
            return f"check:{kind}", text
        return "scenario-error", text
    return f"exception:{type(error).__name__}", str(error)


def run_schedule(case: FuzzCase,
                 schedule: List[ScheduleStep]) -> FuzzResult:
    """Render + execute one schedule on the real simulator."""
    from ..tools.scenario import run_scenario
    spec = render_spec(case, schedule)
    try:
        run_scenario(spec)
    except Exception as error:  # noqa: BLE001 - every failure is a find
        name, detail = classify_failure(error)
        return FuzzResult(case=case, schedule=schedule,
                          failure=name, detail=detail)
    return FuzzResult(case=case, schedule=schedule)


def run_case(case: FuzzCase) -> FuzzResult:
    return run_schedule(case, generate_schedule(case))


@dataclass
class CampaignResult:
    """Verdicts for a batch of seeds."""

    results: List[FuzzResult] = field(default_factory=list)

    @property
    def failures(self) -> List[FuzzResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seeds": len(self.results),
            "failed": len(self.failures),
            "results": [r.to_dict() for r in self.results],
        }


def run_campaign(seeds: int = 10, base: Optional[FuzzCase] = None,
                 first_seed: int = 0) -> CampaignResult:
    """Run ``seeds`` consecutive seeded cases."""
    template = base or FuzzCase(seed=0)
    campaign = CampaignResult()
    for seed in range(first_seed, first_seed + seeds):
        case = FuzzCase(
            seed=seed, nodes=template.nodes, horizon=template.horizon,
            rate=template.rate, submits=template.submits,
            allow_crashes=template.allow_crashes,
            settle=template.settle, quorum=template.quorum)
        campaign.results.append(run_case(case))
    return campaign
