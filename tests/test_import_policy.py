"""Import policy: which modules may reach the host, the wire format or
randomness.

The protocol stack runs unchanged under the deterministic simulator and
on asyncio because it reaches the event loop, sockets and clocks only
through the ``Runtime`` / ``Transport`` seam (:mod:`repro.runtime.base`)
and durability only through the storage abstraction.  This test walks
every module of ``src/repro`` with :mod:`ast` and holds it to one table
of allowed edges.  Every entry of the table must be used by some
module, so an allowance nobody needs fails here instead of lingering.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Host modules: event loop, sockets, threads, clocks and processes.
HOST_MODULES = frozenset({
    "asyncio", "socket", "selectors", "threading", "time", "datetime",
    "signal", "subprocess", "multiprocessing", "concurrent",
})

#: Top-level module -> the capability importing it takes.
CAPABILITY = {**{name: "host" for name in HOST_MODULES},
              "struct": "framing", "random": "random"}

#: Capability -> the modules allowed to take it (``pkg.*`` covers the
#: package and everything under it).
ALLOWED = {
    "host": ("repro.runtime.*", "repro.tools.*", "repro.obs.export"),
    # The binary wire format lives in exactly one module.
    "framing": ("repro.net.codec",),
    # Seeded generators only: the simulator's streams, the network
    # models that draw from them, and the fuzzer's schedules.
    "random": ("repro.sim.rng", "repro.net.faults", "repro.net.latency",
               "repro.net.network", "repro.check.fuzz"),
    # ``open(`` and ``os.fsync`` / ``fdatasync`` / ``sync``: report and
    # replay files of the tools, never protocol durability.
    "file-io": ("repro.tools.*", "repro.check.cli", "repro.check.shrink"),
}

#: The flight recorder takes every timestamp as a caller parameter.
FLIGHT = "repro.obs.flight"
CLOCK_MODULES = frozenset({"time", "datetime"})


def module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def edges(tree):
    """(capability, line, what) for every policed edge of one module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                    and func.attr in ("fsync", "fdatasync", "sync")):
                yield "file-io", node.lineno, ast.unparse(func) + "()"
            continue
        else:
            continue
        for name in names:
            capability = CAPABILITY.get(name.split(".")[0])
            if capability is not None:
                yield capability, node.lineno, f"import {name}"


def covers(pattern, module):
    if pattern.endswith(".*"):
        return module == pattern[:-2] or module.startswith(pattern[:-1])
    return module == pattern


def trees():
    for path in sorted((SRC / "repro").rglob("*.py")):
        yield module_name(path), ast.parse(path.read_text("utf-8"))


def test_every_edge_is_allowed():
    bad = [f"{module}:{line}: {what} ({capability})"
           for module, tree in trees()
           for capability, line, what in edges(tree)
           if not any(covers(p, module) for p in ALLOWED[capability])]
    assert bad == [], "\n".join(bad)


def test_every_allowance_is_used():
    used = {(capability, module) for module, tree in trees()
            for capability, _line, _what in edges(tree)}
    stale = [(capability, pattern)
             for capability, patterns in ALLOWED.items()
             for pattern in patterns
             if not any(c == capability and covers(pattern, module)
                        for c, module in used)]
    assert stale == []


def test_flight_recorder_reads_no_clock():
    tree = dict(trees())[FLIGHT]
    imports = [what for _c, _line, what in edges(tree)
               if what.startswith("import ")
               and what[7:].split(".")[0] in CLOCK_MODULES]
    now = [node.lineno for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and node.attr == "now"]
    assert imports == []
    assert now == [], f"{FLIGHT} evaluates .now on line(s) {now}"


def test_the_walker_sees_every_edge_kind():
    tree = ast.parse("import asyncio.events\nfrom time import monotonic\n"
                     "import struct, random\nfrom . import records\n"
                     "open('f')\nos.fsync(3)\n")
    assert sorted((c, w) for c, _line, w in edges(tree)) == [
        ("file-io", "open()"), ("file-io", "os.fsync()"),
        ("framing", "import struct"), ("host", "import asyncio.events"),
        ("host", "import time"), ("random", "import random")]
