"""State-machine cross-checker: fixture violations and the live tree."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import StateMachineChecker, engine_sources
from repro.analysis.state_checker import (RULE_DYNAMIC, RULE_UNDECLARED,
                                          RULE_UNGUARDED, RULE_UNREACHABLE)

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
SRC = Path(__file__).parent.parent / "src" / "repro"


def check_source(tmp_path, source, table=None):
    path = tmp_path / "engine.py"
    path.write_text(textwrap.dedent(source))
    checker = StateMachineChecker(table=table)
    return checker.check_paths([path])


def rules(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# seeded fixture violations
# ---------------------------------------------------------------------------

def test_fixture_undeclared_edge_detected():
    findings = StateMachineChecker().check_paths(
        [FIXTURES / "repro" / "core" / "engine.py"])
    undeclared = [f for f in findings if f.rule == RULE_UNDECLARED]
    assert len(undeclared) == 1
    assert "NON_PRIM -> REG_PRIM" in undeclared[0].message
    assert undeclared[0].path.endswith("engine.py")


def test_fixture_unguarded_handler_detected():
    findings = StateMachineChecker().check_paths(
        [FIXTURES / "repro" / "core" / "engine.py"])
    unguarded = [f for f in findings if f.rule == RULE_UNGUARDED]
    assert len(unguarded) == 1
    assert "_on_unguarded" in unguarded[0].message


def test_fixture_dynamic_transition_detected():
    findings = StateMachineChecker().check_paths(
        [FIXTURES / "repro" / "core" / "engine.py"])
    dynamic = [f for f in findings if f.rule == RULE_DYNAMIC]
    assert len(dynamic) == 1
    assert "_on_computed" in dynamic[0].message


def test_fixture_legal_edge_not_flagged():
    findings = StateMachineChecker().check_paths(
        [FIXTURES / "repro" / "core" / "engine.py"])
    assert not any("_on_legal" in f.message for f in findings)


# ---------------------------------------------------------------------------
# guard-tracking precision
# ---------------------------------------------------------------------------

def test_alias_and_elif_narrowing(tmp_path):
    findings = check_source(tmp_path, """
        class E:
            def _on_x(self, m):
                state = self.state
                if state == EngineState.REG_PRIM:
                    self._set_state(EngineState.TRANS_PRIM)
                elif state in (EngineState.EXCHANGE_STATES,
                               EngineState.EXCHANGE_ACTIONS):
                    self._set_state(EngineState.NON_PRIM)
        """)
    assert RULE_UNDECLARED not in rules(findings)
    assert RULE_UNGUARDED not in rules(findings)


def test_early_return_guard(tmp_path):
    findings = check_source(tmp_path, """
        class E:
            def _on_x(self, m):
                if self.state != EngineState.EXCHANGE_STATES:
                    return
                self._set_state(EngineState.EXCHANGE_ACTIONS)
        """)
    assert RULE_UNDECLARED not in rules(findings)
    assert RULE_UNGUARDED not in rules(findings)


def test_early_return_guard_catches_bad_edge(tmp_path):
    findings = check_source(tmp_path, """
        class E:
            def _on_x(self, m):
                if self.state != EngineState.NON_PRIM:
                    return
                self._set_state(EngineState.REG_PRIM)
        """)
    assert rules(findings).count(RULE_UNDECLARED) == 1


def test_entry_constraint_propagates_through_private_helper(tmp_path):
    # The helper has no guard of its own, but its only caller
    # constrains the state to Construct; Construct -> RegPrim is legal.
    findings = check_source(tmp_path, """
        class E:
            def _on_x(self, m):
                if self.state == EngineState.CONSTRUCT:
                    self._finish()

            def _finish(self):
                self._set_state(EngineState.REG_PRIM)
        """)
    assert RULE_UNDECLARED not in rules(findings)


def test_entry_constraint_flags_bad_edge_through_helper(tmp_path):
    findings = check_source(tmp_path, """
        class E:
            def _on_x(self, m):
                if self.state == EngineState.NON_PRIM:
                    self._finish()

            def _finish(self):
                self._set_state(EngineState.REG_PRIM)
        """)
    assert rules(findings).count(RULE_UNDECLARED) == 1


def test_public_method_entry_is_unconstrained(tmp_path):
    # A public method is externally callable: the guarded internal call
    # site must not narrow its entry, so no undeclared edge is proven.
    findings = check_source(tmp_path, """
        class E:
            def _on_x(self, m):
                if self.state == EngineState.NON_PRIM:
                    self.finish()

            def finish(self):
                self._set_state(EngineState.REG_PRIM)
        """)
    assert RULE_UNDECLARED not in rules(findings)


def test_lambda_body_is_deferred(tmp_path):
    # By the time the sync callback runs, the state may have moved:
    # the Construct guard must not count as proof of Construct->NonPrim.
    findings = check_source(tmp_path, """
        class E:
            def _on_x(self, m):
                if self.state == EngineState.CONSTRUCT:
                    self.store.sync(
                        lambda: self._set_state(EngineState.NON_PRIM))
        """)
    assert RULE_UNDECLARED not in rules(findings)


def test_set_state_narrows_constraint(tmp_path):
    # After _set_state(ExchangeStates) the tracker knows the state; a
    # second transition from there must be checked against ES, not the
    # original guard.
    findings = check_source(tmp_path, """
        class E:
            def _on_x(self, m):
                if self.state == EngineState.NON_PRIM:
                    self._set_state(EngineState.EXCHANGE_STATES)
                    self._set_state(EngineState.REG_PRIM)
        """)
    undeclared = [f for f in findings if f.rule == RULE_UNDECLARED]
    assert len(undeclared) == 1
    assert "EXCHANGE_STATES -> REG_PRIM" in undeclared[0].message


def test_universe_constraint_treated_as_unconstrained(tmp_path):
    # An if/elif chain whose branches union back to all eight states
    # proves nothing; the transition must not be reported as reachable
    # from every state.
    findings = check_source(tmp_path, """
        class E:
            def _helper(self):
                state = self.state
                if state == EngineState.TRANS_PRIM:
                    pass
                elif state == EngineState.NO:
                    pass
                self._shift()

            def _shift(self):
                self._set_state(EngineState.EXCHANGE_STATES)
        """)
    assert RULE_UNDECLARED not in rules(findings)


# ---------------------------------------------------------------------------
# unreachable declared edges
# ---------------------------------------------------------------------------

def test_unreachable_declared_edge_detected(tmp_path):
    table = {
        "NON_PRIM": frozenset({"EXCHANGE_STATES"}),
        "EXCHANGE_STATES": frozenset({"CONSTRUCT"}),   # never taken
        "CONSTRUCT": frozenset(),
    }
    findings = check_source(tmp_path, """
        class E:
            def _on_x(self, m):
                if self.state == EngineState.NON_PRIM:
                    self._set_state(EngineState.EXCHANGE_STATES)
        """, table=table)
    unreachable = [f for f in findings if f.rule == RULE_UNREACHABLE]
    assert len(unreachable) == 1
    assert "EXCHANGE_STATES -> CONSTRUCT" in unreachable[0].message


def test_no_set_state_means_no_unreachable_noise(tmp_path):
    path = tmp_path / "plain.py"
    path.write_text("class C:\n    def f(self):\n        return 1\n")
    assert StateMachineChecker().check_paths([path]) == []


# ---------------------------------------------------------------------------
# the live tree
# ---------------------------------------------------------------------------

def test_live_engine_is_clean():
    files = engine_sources(SRC)
    assert any(f.name == "engine.py" for f in files)
    findings = StateMachineChecker().check_paths(files)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_live_engine_witnesses_every_declared_edge():
    # Every Figure-4 edge in the declared table corresponds to an
    # actual _set_state call site (checked via: adding a bogus edge
    # produces an unreachable-edge finding, the real table produces
    # none — covered by test_live_engine_is_clean).
    from repro.analysis.state_checker import default_state_table
    table = {s: set(targets) for s, targets in
             default_state_table().items()}
    table["EXCHANGE_STATES"] = \
        frozenset(table["EXCHANGE_STATES"]) | {"CONSTRUCT"}
    table = {s: frozenset(t) for s, t in table.items()}
    findings = StateMachineChecker(table=table).check_paths(
        engine_sources(SRC))
    unreachable = [f for f in findings if f.rule == RULE_UNREACHABLE]
    assert len(unreachable) == 1
    assert "EXCHANGE_STATES -> CONSTRUCT" in unreachable[0].message
