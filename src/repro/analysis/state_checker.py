"""State-machine cross-checker.

Extracts every ``self._set_state(EngineState.X)`` call from the engine
source by AST walk, together with the state guards dominating it, and
diffs the result against the declared Figure-4 table of
:mod:`repro.core.state_machine`:

* **undeclared-edge** — a guarded call can take a transition the table
  does not declare (the runtime ``check_transition`` would raise, but
  only once the path is actually hit);
* **unreachable-edge** — the table declares an edge no call site can
  produce (dead declaration: the table over-approximates the code and
  would mask an illegal runtime transition);
* **unguarded-handler** — a GCS event handler (``_on_*``) changes
  state without any dominating state guard, relying entirely on the
  runtime check;
* **dynamic-transition** — a ``_set_state`` argument that is not a
  literal ``EngineState`` member, which the checker cannot verify.

The tracker is flow-sensitive inside each method (``if``/``elif``
chains, ``in``-tuples, early-return guards, aliases like ``state =
self.state``, and ``_set_state`` itself narrowing the known state) and
propagates entry constraints through the intra-class call graph to a
fixed point.  Calls made from inside ``lambda``/nested functions are
deferred callbacks and deliberately propagate *no* constraint — by the
time they run, the state may have moved.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .common import Finding, SourceFile, parse_file

RULE_UNDECLARED = "undeclared-edge"
RULE_UNREACHABLE = "unreachable-edge"
RULE_UNGUARDED = "unguarded-handler"
RULE_DYNAMIC = "dynamic-transition"

StateSet = Optional[FrozenSet[str]]  # None = unconstrained (any state)
Edge = Tuple[str, str]


def default_state_table() -> Dict[str, FrozenSet[str]]:
    """The live Figure-4 table, as state-name strings."""
    from ..core.state_machine import TRANSITIONS
    return {old.name: frozenset(new.name for new in news)
            for old, news in TRANSITIONS.items()}


def engine_sources(root: Path) -> List[Path]:
    """The files the cross-checker scans by default: the engine and the
    reconfiguration module under any ``core/`` directory of ``root``."""
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.py")
                  if p.parent.name == "core"
                  and p.name in ("engine.py", "reconfig.py"))


def _intersect(a: StateSet, b: StateSet) -> StateSet:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _union(a: StateSet, b: StateSet) -> StateSet:
    if a is None or b is None:
        return None
    return a | b


@dataclass
class _SetStateRecord:
    method: str
    line: int
    target: Optional[str]          # None when not a literal member
    sources: StateSet              # states the engine may be in here


@dataclass
class _CallRecord:
    callee: str
    sources: StateSet


@dataclass
class _MethodScan:
    name: str
    line: int
    set_states: List[_SetStateRecord] = field(default_factory=list)
    calls: List[_CallRecord] = field(default_factory=list)


class _BodyScanner:
    """Flow-sensitive walk of one method body."""

    def __init__(self, checker: "StateMachineChecker", method: str,
                 entry: StateSet):
        self.checker = checker
        self.scan = _MethodScan(name=method, line=0)
        self.entry = entry
        self.aliases: Set[str] = set()
        self._deferred_ids: Set[int] = set()

    # -- constraint-carrying statement walk -----------------------------
    def run(self, body: Sequence[ast.stmt]) -> StateSet:
        return self._block(body, self.entry)

    def _block(self, stmts: Sequence[ast.stmt],
               constraint: StateSet) -> StateSet:
        for stmt in stmts:
            constraint = self._stmt(stmt, constraint)
        return constraint

    def _stmt(self, stmt: ast.stmt, constraint: StateSet) -> StateSet:
        if isinstance(stmt, ast.If):
            return self._if(stmt, constraint)
        if isinstance(stmt, ast.Assign):
            self._track_alias(stmt)
            return self._expr(stmt.value, constraint)
        if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None:
                return self._expr(stmt.value, constraint)
            return constraint
        if isinstance(stmt, ast.Expr):
            return self._expr(stmt.value, constraint)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            if getattr(stmt, "value", None) is not None:
                self._expr(stmt.value, constraint)  # type: ignore[arg-type]
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                self._expr(stmt.exc, constraint)
            return constraint
        if isinstance(stmt, (ast.For, ast.While)):
            changes = self._block_changes_state(stmt.body)
            inner = None if changes else constraint
            self._block(stmt.body, inner)
            self._block(stmt.orelse, inner)
            return None if changes else constraint
        if isinstance(stmt, ast.Try):
            out = self._block(stmt.body, constraint)
            for handler in stmt.handlers:
                self._block(handler.body, None)
            out = self._block(stmt.orelse, out)
            out = self._block(stmt.finalbody, out)
            return out
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._expr(item.context_expr, constraint)
            return self._block(stmt.body, constraint)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: runs later, no constraint carries over.
            self._deferred(stmt)
            return constraint
        if isinstance(stmt, ast.Assert):
            self._expr(stmt.test, constraint)
            return constraint
        return constraint

    def _if(self, stmt: ast.If, constraint: StateSet) -> StateSet:
        pos, neg = self._eval_test(stmt.test)
        body_in = _intersect(constraint, pos)
        else_in = _intersect(constraint, neg)
        body_out = self._block(stmt.body, body_in)
        else_out = self._block(stmt.orelse, else_in) if stmt.orelse \
            else else_in
        body_ends = self._terminates(stmt.body)
        else_ends = bool(stmt.orelse) and self._terminates(stmt.orelse)
        if body_ends and else_ends:
            return constraint          # fall-through unreachable
        if body_ends:
            return else_out
        if else_ends:
            return body_out
        return _union(body_out, else_out)

    def _terminates(self, stmts: Sequence[ast.stmt]) -> bool:
        if not stmts:
            return False
        last = stmts[-1]
        if isinstance(last, (ast.Return, ast.Raise, ast.Continue,
                             ast.Break)):
            return True
        if isinstance(last, ast.If) and last.orelse:
            return (self._terminates(last.body)
                    and self._terminates(last.orelse))
        return False

    # -- expressions: record _set_state and self-method calls -----------
    def _expr(self, node: ast.expr, constraint: StateSet) -> StateSet:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Lambda):
                self._deferred(sub)
        constraint = self._visit_calls(node, constraint)
        return constraint

    def _visit_calls(self, node: ast.expr,
                     constraint: StateSet) -> StateSet:
        # Statement-level precision is enough — one statement rarely
        # chains two state-changing calls.  Calls inside lambdas were
        # pre-marked deferred and are skipped here.
        for sub in ast.walk(node):
            if id(sub) in self._deferred_ids:
                continue
            if isinstance(sub, ast.Call):
                constraint = self._call(sub, constraint)
        return constraint

    def _deferred(self, func: ast.AST) -> None:
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for sub in ast.walk(stmt):
                self._deferred_ids.add(id(sub))
            self._record_deferred_calls(stmt)

    def _record_deferred_calls(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = self._self_method(sub.func)
                if name == self.checker.set_state_name:
                    self.scan.set_states.append(_SetStateRecord(
                        method=self.scan.name, line=sub.lineno,
                        target=self._target_of(sub), sources=None))
                elif name is not None:
                    self.scan.calls.append(_CallRecord(name, None))

    def _call(self, call: ast.Call, constraint: StateSet) -> StateSet:
        name = self._self_method(call.func)
        # A constraint equal to the whole universe carries no
        # information (an if/elif chain whose branches union back to
        # every state); record it as unconstrained.
        sources = constraint
        if sources is not None and sources == self.checker.all_states:
            sources = None
        if name == self.checker.set_state_name:
            target = self._target_of(call)
            self.scan.set_states.append(_SetStateRecord(
                method=self.scan.name, line=call.lineno,
                target=target, sources=sources))
            if target is not None:
                return frozenset({target})
            return None
        if name is not None:
            self.scan.calls.append(_CallRecord(name, sources))
            if name in self.checker.state_changing:
                return None
        return constraint

    def _self_method(self, func: ast.expr) -> Optional[str]:
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"):
            return func.attr
        return None

    def _target_of(self, call: ast.Call) -> Optional[str]:
        if len(call.args) != 1:
            return None
        return self.checker.state_member(call.args[0])

    # -- aliases and guards ---------------------------------------------
    def _track_alias(self, stmt: ast.Assign) -> None:
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        if self._is_state_expr(stmt.value):
            self.aliases.update(names)
        else:
            self.aliases.difference_update(names)

    def _is_state_expr(self, node: ast.expr) -> bool:
        if (isinstance(node, ast.Attribute) and node.attr == "state"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return True
        return isinstance(node, ast.Name) and node.id in self.aliases

    def _eval_test(self, test: ast.expr) -> Tuple[StateSet, StateSet]:
        """Return (states-if-true, states-if-false); None = no info."""
        checker = self.checker
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            pos, neg = self._eval_test(test.operand)
            return neg, pos
        if isinstance(test, ast.BoolOp):
            parts = [self._eval_test(v) for v in test.values]
            if isinstance(test.op, ast.And):
                # a and b: true-side intersects what is understood;
                # false-side (not a or not b) needs every operand
                # understood to stay sound.
                pos: StateSet = None
                for p, _ in parts:
                    pos = _intersect(pos, p)
                negs = [n for _, n in parts]
                neg: StateSet = frozenset().union(*negs) \
                    if negs and all(n is not None for n in negs) else None
                return pos, neg
            # a or b: true-side needs every operand understood;
            # false-side intersects the understood negations.
            poss = [p for p, _ in parts]
            pos = frozenset().union(*poss) \
                if poss and all(p is not None for p in poss) else None
            neg = None
            for _, n in parts:
                neg = _intersect(neg, n)
            return pos, neg
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None, None
        left, op, right = test.left, test.ops[0], test.comparators[0]
        state_side = None
        other = None
        if self._is_state_expr(left):
            state_side, other = left, right
        elif self._is_state_expr(right):
            state_side, other = right, left
        if state_side is None:
            return None, None
        universe = checker.all_states
        if isinstance(op, (ast.Eq, ast.Is)):
            member = checker.state_member(other)
            if member is None:
                return None, None
            return frozenset({member}), universe - {member}
        if isinstance(op, (ast.NotEq, ast.IsNot)):
            member = checker.state_member(other)
            if member is None:
                return None, None
            return universe - {member}, frozenset({member})
        if isinstance(op, (ast.In, ast.NotIn)):
            members = checker.state_members(other)
            if members is None:
                return None, None
            if isinstance(op, ast.In):
                return members, universe - members
            return universe - members, members
        return None, None

    def _block_changes_state(self, stmts: Sequence[ast.stmt]) -> bool:
        for stmt in stmts:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    name = self._self_method(sub.func)
                    if name is not None and (
                            name == self.checker.set_state_name
                            or name in self.checker.state_changing):
                        return True
        return False


class StateMachineChecker:
    """Cross-check engine sources against the declared Figure-4 table."""

    def __init__(self, table: Optional[Mapping[str, FrozenSet[str]]] = None,
                 set_state_name: str = "_set_state",
                 enum_name: str = "EngineState",
                 handler_prefix: str = "_on_",
                 max_rounds: int = 8):
        self.table = dict(table) if table is not None \
            else default_state_table()
        self.all_states: FrozenSet[str] = frozenset(self.table)
        self.edges: Set[Edge] = {
            (old, new) for old, news in self.table.items()
            for new in news}
        self.set_state_name = set_state_name
        self.enum_name = enum_name
        self.handler_prefix = handler_prefix
        self.max_rounds = max_rounds
        self.state_changing: Set[str] = set()

    # -- enum literal helpers -------------------------------------------
    def state_member(self, node: ast.expr) -> Optional[str]:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == self.enum_name
                and node.attr in self.all_states):
            return node.attr
        return None

    def state_members(self, node: ast.expr) -> StateSet:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            members = [self.state_member(e) for e in node.elts]
            if all(m is not None for m in members):
                return frozenset(m for m in members if m is not None)
        member = self.state_member(node)
        if member is not None:
            return frozenset({member})
        return None

    # -- scanning --------------------------------------------------------
    def check_paths(self, paths: Iterable[Path],
                    table_path: Optional[Path] = None) -> List[Finding]:
        ordered = sorted(set(paths))
        findings: List[Finding] = []
        witnesses: Set[Edge] = set()
        any_set_state = False
        for path in ordered:
            source = parse_file(path)
            file_findings, file_witnesses, saw = self._check_source(source)
            findings.extend(file_findings)
            witnesses |= file_witnesses
            any_set_state = any_set_state or saw
        if any_set_state:
            missing = sorted(self.edges - witnesses)
            anchor = str(table_path) if table_path is not None \
                else (str(ordered[0]) if ordered else "<table>")
            for old, new in missing:
                findings.append(Finding(
                    rule=RULE_UNREACHABLE, path=anchor, line=1,
                    message=(f"declared edge {old} -> {new} has no "
                             f"matching _set_state call site")))
        return findings

    def _check_source(self, source: SourceFile
                      ) -> Tuple[List[Finding], Set[Edge], bool]:
        findings: List[Finding] = []
        witnesses: Set[Edge] = set()
        saw_set_state = False
        for cls in [n for n in ast.walk(source.tree)
                    if isinstance(n, ast.ClassDef)]:
            methods = {n.name: n for n in cls.body
                       if isinstance(n, ast.FunctionDef)}
            if not self._class_uses_set_state(cls, methods):
                continue
            saw_set_state = True
            scans = self._fixed_point(cls, methods)
            for scan in scans.values():
                for record in scan.set_states:
                    if record.target is None:
                        findings.append(Finding(
                            rule=RULE_DYNAMIC, path=str(source.path),
                            line=record.line,
                            message=(f"{cls.name}.{record.method}: "
                                     f"_set_state target is not a literal "
                                     f"{self.enum_name} member")))
                        continue
                    if record.sources is None:
                        witnesses |= {(old, record.target)
                                      for old in self.all_states
                                      if (old, record.target) in self.edges}
                        if scan.name.startswith(self.handler_prefix):
                            findings.append(Finding(
                                rule=RULE_UNGUARDED,
                                path=str(source.path), line=record.line,
                                message=(f"{cls.name}.{scan.name}: handler "
                                         f"changes state to "
                                         f"{record.target} without a "
                                         f"dominating state guard")))
                        continue
                    for old in sorted(record.sources):
                        if old == record.target:
                            continue
                        witnesses.add((old, record.target))
                        if (old, record.target) not in self.edges:
                            findings.append(Finding(
                                rule=RULE_UNDECLARED,
                                path=str(source.path), line=record.line,
                                message=(f"{cls.name}.{record.method}: "
                                         f"transition {old} -> "
                                         f"{record.target} is not declared "
                                         f"in the Figure-4 table")))
        return findings, witnesses, saw_set_state

    def _class_uses_set_state(self, cls: ast.ClassDef,
                              methods: Dict[str, ast.FunctionDef]) -> bool:
        for method in methods.values():
            for node in ast.walk(method):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == self.set_state_name
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"):
                    return True
        return False

    def _fixed_point(self, cls: ast.ClassDef,
                     methods: Dict[str, ast.FunctionDef]
                     ) -> Dict[str, _MethodScan]:
        self.state_changing = self._state_changing_closure(methods)
        external = self._externally_invoked(cls, methods)
        entries: Dict[str, StateSet] = {name: None for name in methods}
        scans: Dict[str, _MethodScan] = {}
        for _ in range(self.max_rounds):
            scans = {}
            call_sites: Dict[str, List[StateSet]] = {n: []
                                                     for n in methods}
            for name, node in methods.items():
                scanner = _BodyScanner(self, name, entries[name])
                scanner.scan.line = node.lineno
                scanner.run(node.body)
                scans[name] = scanner.scan
                for call in scanner.scan.calls:
                    if call.callee in call_sites:
                        call_sites[call.callee].append(call.sources)
            new_entries: Dict[str, StateSet] = {}
            for name in methods:
                if name in external or not call_sites[name]:
                    new_entries[name] = None
                    continue
                entry: StateSet = frozenset()
                for sources in call_sites[name]:
                    entry = _union(entry, sources)
                if entry is not None and entry == self.all_states:
                    entry = None
                new_entries[name] = entry
            if new_entries == entries:
                break
            entries = new_entries
        return scans

    def _state_changing_closure(self, methods: Dict[str, ast.FunctionDef]
                                ) -> Set[str]:
        direct: Set[str] = set()
        calls: Dict[str, Set[str]] = {}
        for name, node in methods.items():
            calls[name] = set()
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == "self"):
                    if sub.func.attr == self.set_state_name:
                        direct.add(name)
                    else:
                        calls[name].add(sub.func.attr)
        closure = set(direct)
        changed = True
        while changed:
            changed = False
            for name, callees in calls.items():
                if name not in closure and callees & closure:
                    closure.add(name)
                    changed = True
        return closure

    def _externally_invoked(self, cls: ast.ClassDef,
                            methods: Dict[str, ast.FunctionDef]
                            ) -> Set[str]:
        """Methods reachable from outside the class: public methods and
        any ``self.m`` referenced outside a direct call (callbacks)."""
        external = {name for name in methods
                    if not name.startswith("_")}
        for node in ast.walk(cls):
            # A bare self.m reference (not the func of a Call) means
            # the method escapes as a callback.
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in methods
                    and self._escapes(cls, node)):
                external.add(node.attr)
        return external

    def _escapes(self, cls: ast.ClassDef, attr: ast.Attribute) -> bool:
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and node.func is attr:
                return False
        return True
