"""Every script under ``examples/`` runs to completion on the current
API, with deprecation warnings promoted to errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(ROOT / "src"), env.get("PYTHONPATH")) if path)
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
