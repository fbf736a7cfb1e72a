"""Local mirror of the CI mypy gate for the protocol layers.

CI runs ``mypy`` with ``disallow_untyped_defs`` on ``repro.core.*``,
``repro.gcs.*`` and ``repro.obs.*`` (see pyproject.toml).  mypy is not
a runtime dependency of the test environment, so this test enforces
the structural part of that contract — every def fully annotated — by
AST, keeping the discipline visible locally instead of only on the CI
matrix.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"
STRICT_PACKAGES = ("core", "gcs", "obs")


def strict_files():
    for pkg in STRICT_PACKAGES:
        yield from sorted((SRC / pkg).rglob("*.py"))


@pytest.mark.parametrize("path", list(strict_files()),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_def_is_fully_annotated(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs
        if args.vararg is not None:
            every.append(args.vararg)
        if args.kwarg is not None:
            every.append(args.kwarg)
        missing = [a.arg for a in every
                   if a.annotation is None and a.arg not in ("self", "cls")]
        if node.returns is None:
            missing.append("return")
        if missing:
            offenders.append(f"{path.name}:{node.lineno} {node.name}: "
                             f"missing {', '.join(missing)}")
    assert not offenders, "\n".join(offenders)
