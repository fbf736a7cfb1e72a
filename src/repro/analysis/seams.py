"""Runtime-seam enforcer.

PR 2 split the stack along ``Runtime`` / ``Transport`` protocols
(:mod:`repro.runtime.base`): protocol code asks the runtime for clocks,
timers, and message delivery, and only the runtime adapters
(``SimRuntime`` for deterministic simulation, ``AsyncioRuntime`` for
real deployment) touch the event loop, sockets, or the host clock.
That seam is what makes the same engine/daemon code runnable both under
the simulation used for the paper's figures and on asyncio.

This analyzer keeps the seam honest:

* **seam-import** — protocol modules importing ``asyncio``, ``socket``,
  ``selectors``, ``threading``, ``time``, ``signal``, ``subprocess``,
  or ``concurrent.futures`` directly.  Any such import couples the
  protocol to a particular runtime and breaks simulation determinism.
* **seam-blocking-io** — calls that perform blocking filesystem I/O in
  protocol code (``open``, ``os.fsync``, ``os.fdatasync``): durability
  must go through the storage abstraction so the simulation can model
  sync latency (the paper's Section 5 crash-recovery argument depends
  on controlled sync points).
* **seam-framing** — imports of :mod:`struct` anywhere but
  :mod:`repro.net.codec`.  The binary wire format lives in exactly one
  module; scattering struct-level framing invites version skew between
  encoders and decoders.  Unlike the other rules this one also covers
  the otherwise-exempt packages (a runtime adapter hand-packing frames
  would bypass the codec's versioned header just as badly).
* **flight-clock** — the flight recorder (:mod:`repro.obs.flight`)
  importing a time source (``time``, ``datetime``) or evaluating a
  ``.now`` attribute.  Flight-recorder timestamps must arrive as
  caller parameters off the Runtime clock: a recorder that reads its
  own clock would silently diverge between simulated and live runs
  and could perturb the fig5a determinism pin.

Modules under the packages in :data:`SEAM_EXEMPT_PACKAGES` (the runtime
adapters themselves, operational tools, and this analysis package) are
exempt from the seam rules.  Deliberate exceptions elsewhere carry
``# repro: allow[seam-import] -- reason``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Set

from .common import (Finding, SourceFile, collect_py_files, iter_findings,
                     module_parts, parse_file, subpackage_of)

ANALYZER = "runtime-seam"
RULE_IMPORT = "seam-import"
RULE_BLOCKING_IO = "seam-blocking-io"
RULE_FRAMING = "seam-framing"
RULE_FLIGHT_CLOCK = "flight-clock"

#: Subpackages of ``repro`` allowed to touch the host runtime directly.
SEAM_EXEMPT_PACKAGES = frozenset({"runtime", "tools", "analysis"})

#: Top-level modules protocol code must not import directly.
_BANNED_MODULES = frozenset({
    "asyncio", "socket", "selectors", "threading", "time", "signal",
    "subprocess", "multiprocessing", "concurrent",
})

#: os functions that force blocking filesystem I/O.
_BLOCKING_OS_FUNCS = frozenset({"fsync", "fdatasync", "sync"})

#: Modules that constitute struct-level wire framing.
_FRAMING_MODULES = frozenset({"struct"})

#: The one module allowed to own the binary wire format.
_CODEC_MODULE = ("repro", "net", "codec")

#: The flight recorder: timestamps are caller parameters, never read.
_FLIGHT_MODULE = ("repro", "obs", "flight")

#: Time sources the flight recorder must not import.
_CLOCK_MODULES = frozenset({"time", "datetime"})


class SeamEnforcer:
    """Verify protocol code reaches the host only through the seam."""

    def __init__(self, exempt: Optional[Set[str]] = None):
        self.exempt = set(exempt) if exempt is not None \
            else set(SEAM_EXEMPT_PACKAGES)

    def in_scope(self, path: Path) -> bool:
        sub = subpackage_of(path)
        return sub is not None and sub not in self.exempt

    def in_framing_scope(self, path: Path) -> bool:
        """Framing applies to every repro module except the codec —
        including the seam-exempt packages."""
        if subpackage_of(path) is None:
            return False
        return module_parts(path)[-3:] != _CODEC_MODULE

    def in_flight_scope(self, path: Path) -> bool:
        """The flight-clock rule covers exactly the recorder module."""
        return module_parts(path)[-3:] == _FLIGHT_MODULE

    def check_paths(self, paths: Iterable[Path]) -> List[Finding]:
        findings: List[Finding] = []
        for path in collect_py_files(paths):
            seam = self.in_scope(path)
            framing = self.in_framing_scope(path)
            flight = self.in_flight_scope(path)
            if not seam and not framing and not flight:
                continue
            source = parse_file(path)
            findings.extend(iter_findings(
                self._check_source(source, seam, framing, flight),
                source))
        return findings

    def _check_source(self, source: SourceFile, seam: bool = True,
                      framing: bool = True,
                      flight: bool = False) -> List[Finding]:
        findings: List[Finding] = []
        path = str(source.path)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if flight and top in _CLOCK_MODULES:
                        findings.append(self._flight_finding(
                            node.lineno, path,
                            f"import of {alias.name!r}"))
                    if seam and top in _BANNED_MODULES:
                        findings.append(Finding(
                            rule=RULE_IMPORT, path=path, line=node.lineno,
                            message=(f"direct import of {alias.name!r}; "
                                     f"protocol code must use the "
                                     f"Runtime/Transport seam "
                                     f"(repro.runtime.base)"),
                            analyzer=ANALYZER))
                    if framing and top in _FRAMING_MODULES:
                        findings.append(self._framing_finding(
                            node.lineno, path, alias.name))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue               # relative import, in-package
                top = (node.module or "").split(".")[0]
                if flight and top in _CLOCK_MODULES:
                    findings.append(self._flight_finding(
                        node.lineno, path,
                        f"import from {node.module!r}"))
                if seam and top in _BANNED_MODULES:
                    findings.append(Finding(
                        rule=RULE_IMPORT, path=path, line=node.lineno,
                        message=(f"direct import from {node.module!r}; "
                                 f"protocol code must use the "
                                 f"Runtime/Transport seam "
                                 f"(repro.runtime.base)"),
                        analyzer=ANALYZER))
                if framing and top in _FRAMING_MODULES:
                    findings.append(self._framing_finding(
                        node.lineno, path, node.module or top))
            elif isinstance(node, ast.Attribute):
                if flight and node.attr == "now":
                    findings.append(self._flight_finding(
                        node.lineno, path, "evaluation of '.now'"))
            elif seam and isinstance(node, ast.Call):
                findings.extend(self._blocking_call(node, path))
        return findings

    def _flight_finding(self, line: int, path: str,
                        what: str) -> Finding:
        return Finding(
            rule=RULE_FLIGHT_CLOCK, path=path, line=line,
            message=(f"{what} in the flight recorder; timestamps must "
                     f"be caller parameters off the Runtime clock so "
                     f"recording never perturbs determinism"),
            analyzer=ANALYZER)

    def _framing_finding(self, line: int, path: str,
                         module: str) -> Finding:
        return Finding(
            rule=RULE_FRAMING, path=path, line=line,
            message=(f"import of {module!r} outside repro.net.codec; "
                     f"the binary wire format lives in exactly one "
                     f"module"),
            analyzer=ANALYZER)

    def _blocking_call(self, node: ast.Call, path: str) -> List[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return [Finding(
                rule=RULE_BLOCKING_IO, path=path, line=node.lineno,
                message=("blocking open() in protocol code; durability "
                         "goes through the storage abstraction"),
                analyzer=ANALYZER)]
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
                and func.attr in _BLOCKING_OS_FUNCS):
            return [Finding(
                rule=RULE_BLOCKING_IO, path=path, line=node.lineno,
                message=(f"os.{func.attr}() blocks in protocol code; "
                         f"durability goes through the storage "
                         f"abstraction"),
                analyzer=ANALYZER)]
        return []
