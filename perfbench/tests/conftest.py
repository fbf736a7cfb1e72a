"""Run with ``python -m pytest perfbench/tests`` from the repository
root; these tests are not part of the tier-1 suite under ``tests/``."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
for entry in (PERFBENCH.parent / "src", PERFBENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
