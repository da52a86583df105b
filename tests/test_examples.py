"""Every script under ``examples/`` runs to completion (exit 0).

Each example runs in a fresh interpreter with ``PYTHONPATH=src``, as its
``Run:`` line says.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
