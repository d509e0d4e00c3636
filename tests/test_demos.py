"""Smoke test: every demo script runs to completion, under the warning
filters the suite runs under (pyproject.toml): a numpy overflow or
invalid-value warning, or a resource left unclosed, fails the demo."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::ResourceWarning"]
    result = subprocess.run([sys.executable, *warnings, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
