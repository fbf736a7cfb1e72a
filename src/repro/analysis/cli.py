"""Command-line driver for the static-analysis suite.

``repro-analyze [paths...]`` runs all four analyzers over the given
files/directories (default: the installed ``repro`` package source) and
prints findings as ``path:line: [rule] message``.

Exit status: 0 unless ``--strict`` is given and at least one
unsuppressed finding exists.  ``--json FILE`` additionally writes the
full machine-readable report (CI publishes it as an artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .common import Finding, collect_py_files
from .determinism import DeterminismLinter
from .model_sync import ModelSyncChecker, model_modules
from .seams import SeamEnforcer
from .state_checker import StateMachineChecker, engine_sources


def run_analyzers(paths: Iterable[Path],
                  table_path: Optional[Path] = None) -> List[Finding]:
    """Run the whole suite over ``paths`` and return every finding,
    suppressed ones included (callers filter on ``suppressed``)."""
    roots = [Path(p) for p in paths]
    files = collect_py_files(roots)
    findings: List[Finding] = []
    engine_files = [f for root in roots for f in engine_sources(root)]
    if engine_files:
        if table_path is None:
            for f in files:
                if f.name == "state_machine.py" and f.parent.name == "core":
                    table_path = f
                    break
        checker = StateMachineChecker()
        findings.extend(checker.check_paths(engine_files,
                                            table_path=table_path))
    model_files = [f for root in roots for f in model_modules(root)]
    if model_files:
        findings.extend(ModelSyncChecker().check_paths(model_files))
    findings.extend(DeterminismLinter().check_paths(files))
    findings.extend(SeamEnforcer().check_paths(files))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _default_paths() -> List[Path]:
    return [Path(__file__).resolve().parent.parent]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=("Static analysis for the replication protocol: "
                     "state-machine cross-check, determinism lint, "
                     "runtime-seam enforcement, model-derivation "
                     "check."))
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to analyze "
                             "(default: the installed repro package)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 if any unsuppressed finding exists")
    parser.add_argument("--json", type=Path, metavar="FILE",
                        help="write the full JSON report to FILE "
                             "('-' for stdout)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print findings silenced by "
                             "'# repro: allow[...]' comments")
    args = parser.parse_args(argv)

    paths = list(args.paths) or _default_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"repro-analyze: no such path: {p}", file=sys.stderr)
        return 2

    findings = run_analyzers(paths)
    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]

    for finding in active:
        print(finding.format())
    if args.show_suppressed:
        for finding in suppressed:
            print(f"{finding.format()} (suppressed)")

    if args.json is not None:
        report: Dict[str, object] = {
            "paths": [str(p) for p in paths],
            "counts": {
                "active": len(active),
                "suppressed": len(suppressed),
            },
            "findings": [f.as_dict() for f in findings],
        }
        payload = json.dumps(report, indent=2, sort_keys=True)
        if str(args.json) == "-":
            print(payload)
        else:
            args.json.write_text(payload + "\n", encoding="utf-8")

    summary = (f"{len(active)} finding(s), "
               f"{len(suppressed)} suppressed")
    print(summary, file=sys.stderr)
    if args.strict and active:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
