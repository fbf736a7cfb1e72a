"""Build report for perfbench's result fingerprint, its only caller.

The package has a single, pure-Python build, so there is nothing to
report beyond that.
"""

from typing import Dict


def active() -> str:
    return "pure"


def build_info() -> Dict[str, str]:
    return {}
