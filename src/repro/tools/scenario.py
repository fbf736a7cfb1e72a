"""Declarative scenario runner.

Describes a whole experiment — cluster size, faults, workload,
expectations — as plain data (JSON-compatible), runs it on a simulated
cluster, and produces a structured report.  Useful for regression
scenarios, documentation, and exploring the protocol from the command
line:

    python -m repro.tools.scenario my_scenario.json

A scenario can also be replayed on the live asyncio runtime
(``"runtime": "asyncio"`` in the spec, or ``--runtime asyncio`` on the
command line): the same step interpreter then drives a
:class:`~repro.runtime.LiveCluster` in wall-clock time.  Every op,
every check kind and the optional ``gcs``/``disk``/``quorum`` keys
apply on both runtimes.

Scenario format::

    {
      "replicas": 5,
      "seed": 7,
      "settle": 2.0,
      "steps": [
        {"op": "submit", "node": 1, "update": ["SET", "k", 1]},
        {"op": "run", "seconds": 1.0},
        {"op": "partition", "groups": [[1, 2], [3, 4, 5]]},
        {"op": "crash", "node": 4},
        {"op": "recover", "node": 4},
        {"op": "heal"},
        {"op": "join", "node": 6, "peer": 2},
        {"op": "leave", "node": 1},
        {"op": "check", "kind": "converged"}
      ]
    }

``check`` kinds: ``converged``, ``prefix``, ``single_primary``,
``primary_is`` (with ``members``), ``key`` (with ``node``, ``key``,
``value``), ``all_primary`` (every running replica back in RegPrim),
``completions`` (with ``at_least``).

Optional top-level keys tune the cluster build — all plain data, so a
shrunk fuzzer repro pins its exact timers and policy:

* ``"gcs"`` — keyword overrides for :class:`~repro.gcs.GcsSettings`
  (on asyncio, of :func:`~repro.runtime.live_gcs_settings`);
* ``"disk"`` — keyword overrides for
  :class:`~repro.storage.DiskProfile` (on asyncio, of
  :func:`~repro.runtime.live_disk_profile`);
* ``"quorum"`` — ``"dynamic-linear"`` (default), ``"static-majority"``,
  or ``"both-halves"`` (the deliberately broken tie policy from
  :mod:`repro.check.mutations`, for regression replays of fuzzer
  counterexamples).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..core import (DynamicLinearVoting, EngineConfig, EngineState,
                    ReplicaCluster, StaticMajority)
from ..gcs import GcsSettings
from ..obs import Observability
from ..runtime import (LiveCluster, live_disk_profile, live_engine_config,
                       live_gcs_settings)
from ..storage import DiskProfile


class ScenarioError(Exception):
    """Raised for malformed scenarios or failed checks."""


def _cluster_kwargs(spec: Dict[str, Any], live: bool) -> Dict[str, Any]:
    """Resolve the optional ``gcs``/``disk``/``quorum`` spec keys into
    cluster constructor arguments, as overrides of the chosen runtime's
    defaults."""
    gcs, disk, engine = ((live_gcs_settings, live_disk_profile,
                          live_engine_config) if live
                         else (GcsSettings, DiskProfile, EngineConfig))
    kwargs: Dict[str, Any] = {}
    if "gcs" in spec:
        kwargs["gcs_settings"] = gcs(**spec["gcs"])
    if "disk" in spec:
        kwargs["disk_profile"] = disk(**spec["disk"])
    if "quorum" in spec:
        kwargs["engine_config"] = engine(quorum=_quorum(spec["quorum"]))
    return kwargs


def _quorum(name: str) -> Any:
    if name == "dynamic-linear":
        return DynamicLinearVoting()
    if name == "static-majority":
        return StaticMajority()
    if name == "both-halves":
        from ..check.mutations import BothHalvesQuorum
        return BothHalvesQuorum()
    raise ScenarioError(f"unknown quorum policy {name!r}")


@dataclass
class ScenarioReport:
    """Outcome of a scenario run."""

    steps_executed: int = 0
    submissions: int = 0
    completions: int = 0
    checks_passed: int = 0
    final_states: Dict[int, str] = field(default_factory=dict)
    final_green_counts: Dict[int, int] = field(default_factory=dict)
    events: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "steps_executed": self.steps_executed,
            "submissions": self.submissions,
            "completions": self.completions,
            "checks_passed": self.checks_passed,
            "final_states": self.final_states,
            "final_green_counts": self.final_green_counts,
            "events": self.events,
        }


class ScenarioRunner:
    """Executes one scenario spec against a fresh cluster.

    One step interpreter serves both runtimes: it yields the seconds
    each step settles, which the simulator driver steps through and
    the asyncio driver awaits.
    """

    def __init__(self, spec: Dict[str, Any],
                 observability: Optional[Observability] = None,
                 runtime: Optional[str] = None):
        self.spec = spec
        self.runtime = runtime or spec.get("runtime", "sim")
        if self.runtime not in ("sim", "asyncio"):
            raise ScenarioError(f"unknown runtime {self.runtime!r}")
        self.report = ScenarioReport()
        self.obs = observability
        self.cluster: Any = None

    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        if self.runtime == "asyncio":
            return asyncio.run(self._run_live())
        self.cluster = ReplicaCluster(
            n=int(self.spec.get("replicas", 3)),
            seed=int(self.spec.get("seed", 0)),
            observability=self.obs,
            **_cluster_kwargs(self.spec, live=False))
        self.cluster.start_all(settle=float(self.spec.get("settle", 2.0)))
        for seconds in self._steps():
            self.cluster.run_for(seconds)
        return self._finish()

    async def _run_live(self) -> ScenarioReport:
        n = int(self.spec.get("replicas", 3))
        self.cluster = LiveCluster(list(range(1, n + 1)),
                                   observability=self.obs,
                                   **_cluster_kwargs(self.spec, live=True))
        self.cluster.start_all()
        try:
            settle = float(self.spec.get("settle", 2.0))
            await self.cluster.wait_all_engine_state(
                EngineState.REG_PRIM, timeout=max(10.0, settle * 5))
            for seconds in self._steps():
                await self.cluster.run_for(seconds)
            return self._finish()
        finally:
            self.cluster.shutdown()

    def _finish(self) -> ScenarioReport:
        self.report.final_states = self.cluster.states()
        self.report.final_green_counts = self.cluster.green_counts()
        return self.report

    # ------------------------------------------------------------------
    def _steps(self) -> Iterator[float]:
        """Apply the spec's steps in order, yielding each settle."""
        for step in self.spec.get("steps", []):
            op = step.get("op")
            if op == "submit":
                node = int(step["node"])
                update = tuple(step["update"])
                self.report.submissions += 1
                self.cluster.submit(node, update, on_complete=self._done)
                self._log(f"submit at {node}: {update}")
            elif op == "run":
                yield float(step.get("seconds", 1.0))
            elif op == "partition":
                groups = [list(map(int, g)) for g in step["groups"]]
                self.cluster.partition(*groups)
                yield float(step.get("settle", 1.0))
                self._log(f"partition {groups}")
            elif op == "heal":
                self.cluster.heal()
                yield float(step.get("settle", 2.0))
                self._log("heal")
            elif op == "crash":
                self.cluster.crash(int(step["node"]))
                yield float(step.get("settle", 1.0))
                self._log(f"crash {step['node']}")
            elif op == "recover":
                self.cluster.recover(int(step["node"]))
                yield float(step.get("settle", 2.0))
                self._log(f"recover {step['node']}")
            elif op == "join":
                self.cluster.add_replica(int(step["node"]),
                                         peer=int(step["peer"]))
                yield float(step.get("settle", 5.0))
                self._log(f"join {step['node']} via {step['peer']}")
            elif op == "leave":
                self.cluster.replicas[int(step["node"])].leave()
                yield float(step.get("settle", 2.0))
                self._log(f"leave {step['node']}")
            elif op == "check":
                self._check(step)
            else:
                raise ScenarioError(f"unknown op {op!r}")
            self.report.steps_executed += 1

    def _done(self, _action: Any, _position: int, _result: Any) -> None:
        self.report.completions += 1

    def _check(self, step: Dict[str, Any]) -> None:
        kind = step.get("kind")
        try:
            if kind == "converged":
                self.cluster.assert_converged()
            elif kind == "prefix":
                self.cluster.assert_prefix_consistent()
            elif kind == "single_primary":
                self.cluster.assert_single_primary()
            elif kind == "primary_is":
                expected = sorted(int(n) for n in step["members"])
                actual = sorted(self.cluster.primary_members())
                if actual != expected:
                    raise AssertionError(
                        f"primary is {actual}, expected {expected}")
            elif kind == "key":
                node = int(step["node"])
                value = self.cluster.replicas[node].database.state.get(
                    step["key"])
                if value != step["value"]:
                    raise AssertionError(
                        f"{step['key']!r} at {node} is {value!r}, "
                        f"expected {step['value']!r}")
            elif kind == "all_primary":
                states = self.cluster.states()
                laggards = {n: s for n, s in states.items()
                            if s != "RegPrim"}
                if laggards:
                    raise AssertionError(
                        f"not all replicas are primary: {laggards}")
            elif kind == "completions":
                expected = int(step["at_least"])
                if self.report.completions < expected:
                    raise AssertionError(
                        f"only {self.report.completions} completions, "
                        f"expected at least {expected}")
            else:
                raise ScenarioError(f"unknown check kind {kind!r}")
        except AssertionError as failure:
            raise ScenarioError(f"check {kind!r} failed: {failure}") \
                from failure
        self.report.checks_passed += 1
        self._log(f"check {kind}: ok")

    def _log(self, message: str) -> None:
        self.report.events.append(
            f"[{self.cluster.runtime.now:9.3f}] {message}")


def run_scenario(spec: Dict[str, Any],
                 runtime: Optional[str] = None,
                 observability: Optional[Observability] = None
                 ) -> ScenarioReport:
    """Run a scenario spec; raises ScenarioError on failed checks.

    ``runtime`` (or the spec's ``"runtime"`` key) selects the execution
    substrate: ``"sim"`` (default, deterministic virtual time) or
    ``"asyncio"`` (live wall-clock run on a :class:`LiveCluster`).
    Pass an enabled :class:`~repro.obs.Observability` to collect spans
    and histograms during the run (``repro.tools.obsreport`` does).
    """
    return ScenarioRunner(spec, observability=observability,
                          runtime=runtime).run()


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Run a replication scenario from a JSON spec.")
    parser.add_argument("spec", help="path to the scenario JSON file")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    parser.add_argument("--runtime", choices=("sim", "asyncio"),
                        default=None,
                        help="execution substrate (default: spec's "
                             "'runtime' key, else sim)")
    parser.add_argument("--trace-out", metavar="DIR", default=None,
                        help="enable distributed tracing and dump the "
                             "per-node flight recorders into DIR "
                             "(merge with repro-trace)")
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    obs = None
    if args.trace_out is not None:
        obs = Observability(flight=True, staleness=True)
    report = run_scenario(spec, runtime=args.runtime, observability=obs)
    if obs is not None:
        from .tracecli import dump_flight
        paths = dump_flight(obs, args.trace_out)
        print(f"wrote {len(paths)} flight dumps to {args.trace_out}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for event in report.events:
            print(event)
        print(f"steps={report.steps_executed} "
              f"submissions={report.submissions} "
              f"completions={report.completions} "
              f"checks={report.checks_passed}")
        print(f"final states: {report.final_states}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
