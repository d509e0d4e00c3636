"""Smoke test: every demo script and every ``python`` code block of
README.md runs to completion, under the warning filters the suite runs
under (pyproject.toml): a numpy overflow or invalid-value warning, or a
resource left unclosed, fails it.  README.md's config example parses."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinboson.config import parse_config_text

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


README_CONFIG, = re.findall(r"^```\n(# model:.*?)^```", (ROOT / "README.md").read_text(
    encoding="utf-8"), flags=re.DOTALL | re.MULTILINE)


def test_readme_config_example_parses():
    # as written, and with the commented discretization in place of the
    # mode list, so that the documented keys and bounds follow the parser
    cfg = parse_config_text(README_CONFIG)
    assert cfg.modes == ((0.8, 0.1), (1.2, 0.07)) and cfg.oracle_enabled
    text = re.sub(r"^modes = .*\n", "", README_CONFIG, flags=re.MULTILINE)
    cfg = parse_config_text(re.sub(r"^#(?=\w+ *=)", "", text, flags=re.MULTILINE))
    assert cfg.modes is None and cfg.density == "ohmic" and len(cfg.model().modes) == 400
