"""``repro`` and every ``repro.*`` submodule import cleanly without numpy.

numpy is not a dependency (``pyproject.toml``).  The check runs in a fresh
interpreter with ``sys.modules["numpy"] = None``, which makes any
``import numpy`` raise, so a new hard import anywhere in the package fails
here instead of on an install that lacks numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None
import repro
names = [
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith(".__main__")  # runs the CLI on import
]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 50  # walked the whole package, not just the root
