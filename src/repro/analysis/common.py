"""Shared infrastructure of the model-sync checker.

Findings and source parsing.  Everything is stdlib-only: the checker
parses with :mod:`ast` and never imports the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple


@dataclass(frozen=True)
class Finding:
    """One checker finding, pointing at a file/line."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """A parsed source file."""

    path: Path
    source: str
    tree: ast.Module


def parse_file(path: Path) -> SourceFile:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return SourceFile(path=path, source=source, tree=tree)


def module_parts(path: Path) -> Tuple[str, ...]:
    """Dotted-module path components of ``path`` relative to the
    innermost enclosing package root (walks up past ``__init__.py``
    files).  ``src/repro/core/engine.py`` -> ``("repro", "core",
    "engine")``; files outside any package yield just the stem."""
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return tuple(parts) if parts else (path.stem,)
