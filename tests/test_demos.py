"""The demos run to completion against the current package."""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhead

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# 04 trains a head for about 14 s and is left out of the fast suite
FAST_DEMOS = [
    "01_statevector_basics.py",
    "02_circuits_and_gradients.py",
    "03_noise_and_shots.py",
    "05_energy_crossover.py",
    "06_cli_workflow.py",
]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    package_root = str(Path(qhead.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=package_root + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_qhead_imports_resolve(demo):
    """Every ``from qhead... import name`` in a demo names something the package has."""
    tree = ast.parse((DEMOS / demo).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qhead"
               for alias in node.names]
    assert imports
    missing = [f"{m}.{n}" for m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert not missing
