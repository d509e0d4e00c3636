"""Smoke test: every demo script and every ``python`` code block of
README.md runs to completion, under the warning filters the suite runs
under (pyproject.toml): a numpy overflow or invalid-value warning, or a
resource left unclosed, fails it."""

import os
import re
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


README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(
    encoding="utf-8"), flags=re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    # in this process, so that the suite's warning filters apply
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
