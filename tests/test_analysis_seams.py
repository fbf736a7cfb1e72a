"""Runtime-seam enforcer: fixture violations, exemptions, suppressions."""

from pathlib import Path

from repro.analysis import SeamEnforcer
from repro.analysis.seams import (RULE_BLOCKING_IO, RULE_FLIGHT_CLOCK,
                                  RULE_FRAMING, RULE_IMPORT)

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
BAD_SOCKET = FIXTURES / "repro" / "gcs" / "bad_socket.py"
SUPPRESSED = FIXTURES / "repro" / "gcs" / "suppressed.py"
BAD_FRAMING = FIXTURES / "repro" / "runtime" / "bad_framing.py"
FIXTURE_CODEC = FIXTURES / "repro" / "net" / "codec.py"
BAD_FLIGHT = FIXTURES / "repro" / "obs" / "flight.py"


def test_fixture_socket_import_detected():
    findings = SeamEnforcer().check_paths([BAD_SOCKET])
    imports = [f for f in findings if f.rule == RULE_IMPORT]
    assert any("'socket'" in f.message for f in imports)
    assert any("'time'" in f.message for f in imports)


def test_fixture_blocking_io_detected():
    findings = SeamEnforcer().check_paths([BAD_SOCKET])
    blocking = [f for f in findings if f.rule == RULE_BLOCKING_IO]
    assert len(blocking) == 2
    assert any("open()" in f.message for f in blocking)
    assert any("os.fsync()" in f.message for f in blocking)


def test_suppressions_cover_fixture():
    findings = SeamEnforcer().check_paths([SUPPRESSED])
    assert findings, "suppressed findings should still be reported"
    assert all(f.suppressed for f in findings), \
        "\n".join(f.format() for f in findings if not f.suppressed)


def test_runtime_and_tools_are_exempt(tmp_path):
    for sub in ("runtime", "tools"):
        pkg = tmp_path / "repro" / sub
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "adapter.py").write_text("import asyncio\nimport socket\n")
    (tmp_path / "repro" / "__init__.py").write_text("")
    assert SeamEnforcer().check_paths([tmp_path]) == []


def test_relative_imports_allowed(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("from . import records\n"
                                "from ..runtime.base import Runtime\n")
    assert SeamEnforcer().check_paths([tmp_path]) == []


def test_framing_rule_covers_exempt_packages():
    # runtime/ is exempt from the seam rules but not from framing: the
    # fixture imports struct twice (plain and from-import).
    findings = SeamEnforcer().check_paths([BAD_FRAMING])
    assert [f.rule for f in findings] == [RULE_FRAMING, RULE_FRAMING]
    assert all("repro.net.codec" in f.message for f in findings)


def test_framing_rule_exempts_the_codec():
    assert SeamEnforcer().check_paths([FIXTURE_CODEC]) == []


def test_framing_rule_in_protocol_code(tmp_path):
    pkg = tmp_path / "repro" / "gcs"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("import struct\n")
    findings = SeamEnforcer().check_paths([tmp_path])
    assert [f.rule for f in findings] == [RULE_FRAMING]


def test_fixture_flight_clock_detected():
    findings = [f for f in SeamEnforcer().check_paths([BAD_FLIGHT])
                if f.rule == RULE_FLIGHT_CLOCK]
    assert any("'datetime'" in f.message for f in findings)
    assert any("'time'" in f.message for f in findings)
    # Both `self.runtime.now` and `datetime.datetime.now` evaluate a
    # `.now` attribute inside the recorder module.
    assert sum("'.now'" in f.message for f in findings) == 2


def test_flight_clock_rule_covers_only_the_recorder(tmp_path):
    # The same source outside repro/obs/flight.py is not in scope for
    # flight-clock (other rules may still apply).
    module = tmp_path / "repro" / "obs" / "other.py"
    module.parent.mkdir(parents=True)
    (module.parent / "__init__.py").write_text("")
    module.write_text(BAD_FLIGHT.read_text())
    findings = [f for f in SeamEnforcer().check_paths([module])
                if f.rule == RULE_FLIGHT_CLOCK]
    assert findings == []


def test_live_flight_recorder_takes_caller_timestamps():
    # The real recorder passes its own rule: no clock imports, no
    # `.now` — every timestamp is a parameter off the Runtime clock.
    src = Path(__file__).parent.parent / "src" / "repro" / "obs"
    findings = [f for f in SeamEnforcer().check_paths([src])
                if f.rule == RULE_FLIGHT_CLOCK]
    assert findings == [], "\n".join(f.format() for f in findings)


def test_live_codec_is_the_only_struct_importer():
    src = Path(__file__).parent.parent / "src" / "repro"
    framing = [f for f in SeamEnforcer().check_paths([src])
               if f.rule == RULE_FRAMING]
    assert framing == [], "\n".join(f.format() for f in framing)


def test_live_tree_has_no_unsuppressed_violations():
    src = Path(__file__).parent.parent / "src" / "repro"
    findings = [f for f in SeamEnforcer().check_paths([src])
                if not f.suppressed]
    assert findings == [], "\n".join(f.format() for f in findings)


def test_live_tree_suppressions_are_exactly_the_known_set():
    # The sanctioned seam crossings: the metrics-export helpers and the
    # repro-check report/repro writers (developer-tool file output).
    src = Path(__file__).parent.parent / "src" / "repro"
    suppressed = [f for f in SeamEnforcer().check_paths([src])
                  if f.suppressed]
    assert suppressed
    sanctioned = ("obs/export.py", "check/cli.py", "check/shrink.py")
    assert all(f.path.endswith(sanctioned) for f in suppressed), \
        "\n".join(f.format() for f in suppressed)
