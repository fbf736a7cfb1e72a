"""Every package imports cleanly as the *first* repro import.

``repro.core`` builds simulated clusters on ``repro.runtime``'s
SimRuntime and ``repro.runtime`` builds live clusters from
``repro.core``'s replica stack, so the two packages import each other;
a fresh interpreter per case, because the cycle only bites whichever
package is imported first.
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
