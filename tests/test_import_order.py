"""Every package imports cleanly as the *first* repro import.

``repro.runtime`` builds live clusters from ``repro.core``'s replica
stack, and ``repro.core`` names ``repro.runtime``'s protocols in its
type hints.  A run-time import back from ``repro.core`` into
``repro.runtime`` would close a cycle that only bites whichever
package is imported first, so each case gets a fresh interpreter.
"""

import os
import subprocess
import sys

import pytest

import repro

PACKAGES = ["repro.runtime", "repro.core"]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first_in_a_fresh_interpreter(package):
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import {package}"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
