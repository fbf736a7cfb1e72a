"""The model-sync analyzer: derivation proven, edge copies flagged."""

from pathlib import Path

from repro.analysis import ModelSyncChecker, model_modules
from repro.analysis.model_sync import RULE_DERIVATION, RULE_EDGE_COPY

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
FIXTURE_MODEL = FIXTURES / "repro" / "check" / "model.py"
REAL_SRC = Path(__file__).parent.parent / "src" / "repro"
REAL_MODEL = REAL_SRC / "check" / "model.py"


def rules_for(path):
    return [(f.rule, f.line)
            for f in ModelSyncChecker().check_paths([path])]


class TestDiscovery:
    def test_finds_the_real_model_module(self):
        assert model_modules(REAL_SRC) == [REAL_MODEL]

    def test_finds_the_fixture_model_module(self):
        assert model_modules(FIXTURES) == [FIXTURE_MODEL]

    def test_a_file_root_outside_check_is_ignored(self):
        engine = REAL_SRC / "core" / "engine.py"
        assert model_modules(engine) == []

    def test_a_model_file_root_is_accepted(self):
        assert model_modules(REAL_MODEL) == [REAL_MODEL]


class TestFixtureFindings:
    def test_missing_derivation_import_is_flagged(self):
        rules = [r for r, _line in rules_for(FIXTURE_MODEL)]
        assert RULE_DERIVATION in rules

    def test_edge_table_literals_are_flagged(self):
        findings = rules_for(FIXTURE_MODEL)
        copies = [line for rule, line in findings
                  if rule == RULE_EDGE_COPY]
        # Both the frozenset-of-pairs and the dict-shaped copy.
        assert len(copies) == 2

    def test_membership_tuples_are_not_flagged(self):
        source = FIXTURE_MODEL.read_text(encoding="utf-8")
        quiet_line = next(
            i for i, text in enumerate(source.splitlines(), start=1)
            if text.startswith("QUIET_STATES"))
        flagged = {line for _rule, line in rules_for(FIXTURE_MODEL)}
        assert quiet_line not in flagged


class TestRealModelIsClean:
    def test_no_findings_on_the_shipped_model(self):
        assert rules_for(REAL_MODEL) == []

    def test_suite_integration_stays_clean(self):
        findings = ModelSyncChecker().check_paths(model_modules(REAL_SRC))
        assert findings == []

    def test_suite_integration_reports_the_fixture(self):
        findings = ModelSyncChecker().check_paths(model_modules(FIXTURES))
        assert {f.rule for f in findings} == {RULE_DERIVATION,
                                              RULE_EDGE_COPY}
