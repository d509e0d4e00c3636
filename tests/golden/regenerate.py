"""Golden CLI outputs: the seed-0 benchmark configs and what the five verbs
write for them.

    PYTHONPATH=src python tests/golden/regenerate.py

run from the repository root, rewrites every file under ``tests/golden/``:
the three configs (the seed-0 configs of ``perfbench/workloads.py``), one
directory per workload with each verb's output, ``.summary`` sidecar and
``<verb>.log`` (the exit code, then stdout and any stderr, with the output
directory masked as ``<out>``), and ``build.txt``, the numpy and BLAS/LAPACK
build that wrote them.  ``tests/test_golden.py`` runs the same invocations
in-process and compares bytes.  Regenerating moves the reference of that
test: state every value that moved as a test-data change.
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

from spinboson import cli

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
ALL_VERBS = ("rates", "evolve", "exact", "compare", "limits")
# the verbs of each benchmark workload: ohmic_400's bath is past any Fock cap
WORKLOADS = {"thermal_2mode": ALL_VERBS, "fock_4mode": ALL_VERBS,
             "ohmic_400": ("rates", "evolve", "limits")}
OUTPUT_NAMES = {"rates": "rates.csv", "evolve": "evolve.csv", "exact": "exact.csv",
                "compare": "compare.txt", "limits": "limits.txt"}
OUT_MASK = "<out>"

INVOCATIONS = [(workload, verb) for workload, verbs in WORKLOADS.items() for verb in verbs]


def run_invocation(workload: str, verb: str, out_dir: Path) -> dict[str, bytes]:
    """Run ``spinboson <verb>`` on the workload's golden config in this
    process, writing under the empty ``out_dir``; returns the golden files
    of the invocation by name."""
    out = out_dir / OUTPUT_NAMES[verb]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([verb, "--config", str(GOLDEN / f"{workload}.cfg"), "--out", str(out)])
    files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    log = f"exit {code}\n{stdout.getvalue()}"
    if stderr.getvalue():
        log += f"stderr:\n{stderr.getvalue()}"
    files[f"{verb}.log"] = log.replace(str(out_dir), OUT_MASK).encode()
    return files


def build() -> str:
    """The numpy version and its BLAS and LAPACK build, one per line."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    lines = [f"numpy {np.__version__}"]
    for lib in ("blas", "lapack"):
        info = deps.get(lib, {})
        lines.append(f"{lib} {info.get('name', 'unknown')} {info.get('version', '')}".rstrip())
    return "\n".join(lines) + "\n"


def benchmark_configs() -> dict[str, str]:
    """The seed-0 config text of each workload, from ``perfbench/workloads.py``."""
    make_workload = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["make_workload"]
    return {name: make_workload(name, 0).config_text for name in WORKLOADS}


def main() -> int:
    for name, text in benchmark_configs().items():
        (GOLDEN / f"{name}.cfg").write_text(text, encoding="utf-8")
    for workload in WORKLOADS:
        target = GOLDEN / workload
        target.mkdir(exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
    for workload, verb in INVOCATIONS:
        target = GOLDEN / workload
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in run_invocation(workload, verb, Path(tmp)).items():
                (target / name).write_bytes(data)
    (GOLDEN / "build.txt").write_text(build(), encoding="utf-8")
    print(f"wrote {len(INVOCATIONS)} invocations under {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
