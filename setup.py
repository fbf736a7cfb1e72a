"""Build shim for editable installs on toolchains without the wheel
package; all metadata lives in ``pyproject.toml``."""

from setuptools import setup

setup()
