"""``repro-check`` — model checking + fault fuzzing front end.

Modes (combine freely; at least one required):

* ``--mc`` — bounded-depth exhaustive BFS over N real engines
  (``--nodes``, ``--depth``, ``--max-states``, fault budgets).  With
  ``--mutate NAME`` a known-bug mutation is applied first;
  ``--expect-violation`` then inverts the exit code (the mutation
  self-test: finding the wedge is the *passing* outcome).
* ``--fuzz`` — seeded random fault schedules against the real
  simulator (``--seeds``, ``--inject-bug`` for the broken tie policy).
  ``--shrink`` minimizes each failure and, with ``--out DIR``, writes
  pinned ``tools/scenario.py`` replay specs.
* ``--coverage`` — Figure-4 edge coverage of the exploration
  portfolio; fails if any live edge is unexercised or an EVS-shadowed
  edge fires.

``--json FILE`` writes the combined machine-readable report (``-`` for
stdout).  Exit code 0 on success, 1 on violations/failures (inverted
by ``--expect-violation``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Model-check and fuzz the Figure-4 machine.")
    modes = parser.add_argument_group("modes")
    modes.add_argument("--mc", action="store_true",
                       help="run the explicit-state model checker")
    modes.add_argument("--fuzz", action="store_true",
                       help="run seeded fault-schedule fuzzing")
    modes.add_argument("--coverage", action="store_true",
                       help="measure Figure-4 edge coverage")

    mc = parser.add_argument_group("model checker")
    mc.add_argument("--nodes", type=int, default=4,
                    help="model size (default 4)")
    mc.add_argument("--depth", type=int, default=12,
                    help="BFS depth bound (default 12)")
    mc.add_argument("--max-states", type=int, default=2_000_000,
                    help="state budget (default 2000000)")
    mc.add_argument("--max-faults", type=int, default=1,
                    help="fault budget (default 1)")
    mc.add_argument("--max-crashes", type=int, default=0,
                    help="crash budget (default 0)")
    mc.add_argument("--max-actions", type=int, default=0,
                    help="client-action budget (default 0)")
    mc.add_argument("--quorum", default="dynamic-linear",
                    choices=("dynamic-linear", "static-majority"),
                    help="quorum policy for the model")
    mc.add_argument("--mutate", default=None,
                    help="apply a known-bug mutation "
                         "(exact-half-tie, cpc-drop)")
    mc.add_argument("--expect-violation", action="store_true",
                    help="succeed iff a violation IS found "
                         "(mutation self-test)")

    fz = parser.add_argument_group("fuzzer")
    fz.add_argument("--seeds", type=int, default=10,
                    help="number of consecutive seeds (default 10)")
    fz.add_argument("--first-seed", type=int, default=0,
                    help="first seed (default 0)")
    fz.add_argument("--fuzz-nodes", type=int, default=4,
                    help="cluster size for fuzz runs (default 4)")
    fz.add_argument("--inject-bug", action="store_true",
                    help="fuzz with the deliberately broken "
                         "both-halves quorum policy")
    fz.add_argument("--shrink", action="store_true",
                    help="ddmin-shrink every failing schedule")
    fz.add_argument("--out", metavar="DIR", default=None,
                    help="write shrunk replay specs into DIR")

    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the combined JSON report "
                             "(- for stdout)")
    args = parser.parse_args(argv)

    if not (args.mc or args.fuzz or args.coverage):
        parser.error("pick at least one mode: --mc / --fuzz / --coverage")

    report: Dict[str, Any] = {}
    problems = 0       # everything that should fail a clean run
    found = 0          # mc violations + fuzz failures (for --expect-violation)

    if args.mc:
        mc_violations = _run_mc(args, report)
        problems += mc_violations
        found += mc_violations

    if args.coverage:
        from .coverage import measure_coverage
        cov = measure_coverage()
        report["coverage"] = cov.to_dict()
        if cov.ok:
            print(f"coverage: all {len(cov.covered)} live Figure-4 "
                  f"edges exercised; shadowed edges quiet")
        else:
            problems += len(cov.uncovered) + len(cov.shadowed_exercised)
            for edge in sorted(map(str, cov.uncovered)):
                print(f"coverage: UNCOVERED edge {edge}")
            for edge in sorted(map(str, cov.shadowed_exercised)):
                print(f"coverage: EVS-shadowed edge exercised: {edge}")

    if args.fuzz:
        fuzz_failures = _run_fuzz(args, report)
        problems += fuzz_failures
        found += fuzz_failures

    if args.json:
        payload = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")

    if args.expect_violation:
        if found:
            return 0
        print("expected a violation, found none", file=sys.stderr)
        return 1
    return 1 if problems else 0


def _run_mc(args: argparse.Namespace,
            report: Dict[str, Any]) -> int:
    from .mc import ModelChecker
    from .model import ModelConfig
    config = ModelConfig(
        nodes=args.nodes, max_faults=args.max_faults,
        max_crashes=args.max_crashes, max_actions=args.max_actions,
        quorum=args.quorum)
    checker = ModelChecker(
        config, max_depth=args.depth, max_states=args.max_states,
        max_violations=1 if args.expect_violation else 25)
    result = checker.run_mutated(args.mutate)
    report["mc"] = result.to_dict()
    print(f"mc: {result.states} states, {result.transitions} "
          f"transitions, depth {result.depth_reached}, "
          f"{result.quiescent_states} quiescent, "
          f"{'complete' if result.complete else 'budget-bounded'}")
    for violation in result.violations:
        print(violation.format())
    return len(result.violations)


def _run_fuzz(args: argparse.Namespace,
              report: Dict[str, Any]) -> int:
    from .fuzz import FuzzCase, run_campaign
    from .shrink import shrink, write_repro
    base = FuzzCase(
        seed=0, nodes=args.fuzz_nodes,
        quorum="both-halves" if args.inject_bug else "dynamic-linear")
    campaign = run_campaign(seeds=args.seeds, base=base,
                            first_seed=args.first_seed)
    entry: Dict[str, Any] = campaign.to_dict()
    print(f"fuzz: {len(campaign.results)} seeds, "
          f"{len(campaign.failures)} failures")
    shrunk_reports = []
    for failure in campaign.failures:
        print(f"fuzz: seed {failure.case.seed} FAILED "
              f"{failure.failure}: {failure.detail}")
        if args.shrink:
            minimized = shrink(failure)
            assert minimized is not None
            print(f"fuzz: shrunk seed {failure.case.seed} "
                  f"{minimized.original_steps} -> "
                  f"{len(minimized.schedule)} steps "
                  f"({minimized.runs} runs)")
            shrunk_reports.append(minimized.to_dict())
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(
                    args.out,
                    f"repro-seed{failure.case.seed}.json")
                write_repro(minimized, path)
                print(f"fuzz: wrote replay spec {path}")
    if shrunk_reports:
        entry["shrunk"] = shrunk_reports
    report["fuzz"] = entry
    return len(campaign.failures)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
