"""Every ``repro`` module imports as the first import of a fresh
interpreter: no package may depend on another having been loaded
before it (``repro.core``, ``repro.sansio`` and ``repro.simnet.driver``
import each other's modules, so a cycle shows up here as the one
entry point that fails)."""

import os
import subprocess
import sys

import pytest

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def repro_modules():
    """Dotted names of every module and package under ``src/repro``."""
    names = []
    for root, _dirs, files in os.walk(os.path.join(SRC_ROOT, "repro")):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            relpath = os.path.relpath(os.path.join(root, filename), SRC_ROOT)
            parts = relpath[:-len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            names.append(".".join(parts))
    return sorted(names)


@pytest.mark.parametrize("module", repro_modules())
def test_module_imports_first_in_a_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", "import %s" % module],
        env=dict(os.environ, PYTHONPATH=SRC_ROOT),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
