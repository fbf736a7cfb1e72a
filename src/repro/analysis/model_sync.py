"""Model-derivation checker: the abstract model must not fork the table.

The model checker's fidelity argument (:mod:`repro.check.model`) is
*derivation, not duplication*: every transition the abstract model
takes is validated against ``EDGES_BY_INPUT`` via
:func:`repro.core.state_machine.next_states`.  That argument collapses
silently if someone "optimizes" the model by pasting a private copy of
the edge table into it — the copy then drifts from the code and the
checker starts certifying a machine nobody runs.

Two rules over the model module (``repro/check/model.py``):

* **model-derivation** — the module must import the transition table
  or its accessors (``EDGES_BY_INPUT``, ``next_states``, or
  ``check_transition``) from ``repro.core.state_machine``.  A model
  module without that import cannot be validating its moves against
  the declared table.
* **model-edge-copy** — no hand-written edge-table literal: a
  collection literal whose elements are 2-tuples of ``EngineState``
  attributes, or a dict literal keyed by ``EngineState`` attributes
  with state-collection values, re-declares Figure-4 edges instead of
  deriving them.  (Flat tuples of states — membership tests like
  ``state in (A, B)`` — are fine; it is the *pair structure* that
  makes a literal an edge table.)
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Set

from .common import Finding, SourceFile, module_parts, parse_file

RULE_DERIVATION = "model-derivation"
RULE_EDGE_COPY = "model-edge-copy"

#: Names whose import from the table module proves derivation.
_TABLE_ACCESSORS = frozenset({
    "EDGES_BY_INPUT", "next_states", "check_transition",
})

#: The module that owns the Figure-4 declaration.
_TABLE_MODULE = "state_machine"


def model_modules(root: Path) -> List[Path]:
    """The abstract-model modules under ``root`` (any package layout
    whose dotted path ends in ``check.model``)."""
    candidates = ([root] if root.is_file()
                  else sorted(root.rglob("model.py")))
    out = []
    for path in candidates:
        if path.name != "model.py":
            continue
        parts = module_parts(path)
        if len(parts) >= 2 and parts[-2] == "check":
            out.append(path)
    return out


class ModelSyncChecker:
    """AST checks that the model derives from, not copies, the table."""

    def check_paths(self, paths: Iterable[Path]) -> List[Finding]:
        findings: List[Finding] = []
        for path in paths:
            source = parse_file(path)
            findings.extend(self._check(source))
        return findings

    # ------------------------------------------------------------------
    def _check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        state_aliases = self._state_aliases(source.tree)
        if not self._imports_table(source.tree):
            findings.append(Finding(
                rule=RULE_DERIVATION, path=str(source.path), line=1,
                message=("abstract model does not import the "
                         "transition table (EDGES_BY_INPUT / "
                         "next_states / check_transition) from "
                         "repro.core.state_machine; its moves cannot "
                         "be derived from Figure 4")))
        for node in ast.walk(source.tree):
            finding = self._edge_literal(node, state_aliases,
                                         source.path)
            if finding is not None:
                findings.append(finding)
        return findings

    # ------------------------------------------------------------------
    @staticmethod
    def _imports_table(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[-1] == _TABLE_MODULE:
                if any(alias.name in _TABLE_ACCESSORS
                       for alias in node.names):
                    return True
            elif isinstance(node, ast.Attribute) \
                    and node.attr in _TABLE_ACCESSORS:
                # e.g. state_machine.next_states(...) via module import
                value = node.value
                if isinstance(value, ast.Name) \
                        and value.id == _TABLE_MODULE:
                    return True
        return False

    @staticmethod
    def _state_aliases(tree: ast.Module) -> Set[str]:
        """Names bound to the ``EngineState`` enum in this module."""
        aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "EngineState":
                        aliases.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        return aliases

    def _edge_literal(self, node: ast.AST, aliases: Set[str],
                      path: Path) -> Optional[Finding]:
        # frozenset({...}) etc. need no special case: ast.walk visits
        # the inner collection literal on its own.
        elements: Optional[List[ast.expr]] = None
        if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
            elements = list(node.elts)
        elif isinstance(node, ast.Dict):
            if self._is_state_table_dict(node, aliases):
                return Finding(
                    rule=RULE_EDGE_COPY, path=str(path),
                    line=node.lineno,
                    message=("dict literal keyed by EngineState with "
                             "state-collection values re-declares the "
                             "transition table; derive it from "
                             "EDGES_BY_INPUT instead"))
            return None
        if elements is None:
            return None
        pairs = sum(1 for e in elements if self._is_state_pair(e, aliases))
        if pairs >= 2:
            return Finding(
                rule=RULE_EDGE_COPY, path=str(path),
                line=node.lineno,
                message=(f"collection literal of {pairs} "
                         f"(EngineState, EngineState) pairs is a "
                         f"hand-written edge table; derive edges from "
                         f"EDGES_BY_INPUT instead"))
        return None

    def _is_state_table_dict(self, node: ast.Dict,
                             aliases: Set[str]) -> bool:
        rows = 0
        for key, value in zip(node.keys, node.values):
            if key is None or not self._is_state_attr(key, aliases):
                continue
            if isinstance(value, (ast.Set, ast.List, ast.Tuple)) \
                    and value.elts \
                    and all(self._is_state_attr(e, aliases)
                            for e in value.elts):
                rows += 1
            elif isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Name) \
                    and value.func.id in ("frozenset", "set") \
                    and len(value.args) == 1 \
                    and isinstance(value.args[0],
                                   (ast.Set, ast.List, ast.Tuple)) \
                    and value.args[0].elts \
                    and all(self._is_state_attr(e, aliases)
                            for e in value.args[0].elts):
                rows += 1
        return rows >= 2

    def _is_state_pair(self, node: ast.expr,
                       aliases: Set[str]) -> bool:
        return (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and all(self._is_state_attr(e, aliases)
                        for e in node.elts))

    @staticmethod
    def _is_state_attr(node: ast.expr, aliases: Set[str]) -> bool:
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases)
