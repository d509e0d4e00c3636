"""Golden CLI outputs: every seed-0 benchmark invocation writes the committed
bytes of ``tests/golden/`` (see ``tests/golden/regenerate.py``).  On a
mismatch the failure names the file and, per numeric column, the largest
absolute and relative deviation from the golden value, and says so when the
running numpy or BLAS build differs from the one that wrote the files."""

import os
import subprocess
import sys

import numpy as np
import pytest

from golden.regenerate import (GOLDEN, INVOCATIONS, ROOT, WORKLOADS, benchmark_configs, build,
                               run_invocation)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def numeric_columns(text: str) -> dict[str, list[float]]:
    """The numbers of a CLI output by column: a CSV column by its header
    name, a ``key = value`` line by its key, each prefixed with its
    ``[section]``, if any."""
    columns: dict[str, list[float]] = {}
    section, header = "", None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section, header = line[1:-1] + ".", None
        elif " = " in line:
            key, value = line.split(" = ", 1)
            if _number(value) is not None:
                columns.setdefault(section + key, []).append(_number(value))
        elif "," in line:
            cells = line.split(",")
            if header is None or _number(cells[0]) is None:
                header = cells
                continue
            for name, cell in zip(header, cells):
                if _number(cell) is not None:
                    columns.setdefault(section + name, []).append(_number(cell))
    return columns


def deviation_report(actual: str, golden: str) -> list[str]:
    """One line per numeric column that moved, with its largest absolute
    and relative deviation, then the first line that differs."""
    lines = []
    got, want = numeric_columns(actual), numeric_columns(golden)
    for name in sorted(got.keys() | want.keys()):
        a, b = np.array(got.get(name, [])), np.array(want.get(name, []))
        if a.shape != b.shape:
            lines.append(f"  {name}: {len(a)} values, golden {len(b)}")
            continue
        if np.array_equal(a, b):
            continue
        deviation = np.abs(a - b)
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.where(deviation == 0, 0.0, deviation / np.abs(b))
        lines.append(f"  {name}: max abs deviation {deviation.max():.3e}, "
                     f"max rel deviation {relative.max():.3e}")
    for number, (new, old) in enumerate(zip(actual.splitlines(), golden.splitlines()), 1):
        if new != old:
            lines.append(f"  first differing line {number}: {new!r}, golden {old!r}")
            break
    else:
        lines.append(f"  {len(actual.splitlines())} lines, golden {len(golden.splitlines())}")
    return lines


@pytest.mark.parametrize("workload, verb", INVOCATIONS,
                         ids=[f"{w}-{v}" for w, v in INVOCATIONS])
def test_cli_outputs_match_the_golden_files(tmp_path, workload, verb):
    files = run_invocation(workload, verb, tmp_path)
    golden = {path.name: path.read_bytes()
              for path in sorted((GOLDEN / workload).glob(f"{verb}.*"))}
    problems = []
    if files.keys() != golden.keys():
        problems.append(f"wrote {sorted(files)}, golden {sorted(golden)}")
    for name in sorted(files.keys() & golden.keys()):
        if files[name] != golden[name]:
            problems.append(f"{workload}/{name} differs from its golden file:")
            problems += deviation_report(files[name].decode(), golden[name].decode())
    recorded = (GOLDEN / "build.txt").read_text(encoding="utf-8")
    if problems and recorded != build():
        problems.append(f"the golden files were written by\n{recorded}"
                        f"and this run uses\n{build()}")
    assert not problems, "\n".join(problems)


# Run in a fresh interpreter that starts with OpenBLAS pinned to one thread,
# as the benchmark runs: the exact sector pass decides for its worker thread
# at import, diagonalizes fock_4mode's buckets on it and on the calling
# thread, and writes the bytes the calling thread alone writes.
PINNED_SCRIPT = """\
import tempfile, threading
from pathlib import Path
import numpy as np
from spinboson import oracle
from golden.regenerate import GOLDEN, run_invocation
assert oracle._WORKER
threads = set()
eigh = np.linalg.eigh

def recording_eigh(a, *args, **kwargs):
    threads.add(threading.current_thread().name)
    return eigh(a, *args, **kwargs)

np.linalg.eigh = recording_eigh
for verb in ("exact", "compare"):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in run_invocation("fock_4mode", verb, Path(tmp)).items():
            assert data == (GOLDEN / "fock_4mode" / name).read_bytes(), name
assert "spinboson-eigh" in threads and threading.current_thread().name in threads, threads
"""


def test_a_pinned_process_writes_the_golden_bytes_on_the_worker():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus < 2 or "openblas" not in build().lower():
        pytest.skip("the worker runs beside OpenBLAS with a CPU it leaves idle")
    path = [str(ROOT / "src"), str(GOLDEN.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", PINNED_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_golden_configs_are_the_benchmark_seed0_configs():
    for name, text in benchmark_configs().items():
        assert (GOLDEN / f"{name}.cfg").read_text(encoding="utf-8") == text, name
    assert sorted(p.stem for p in GOLDEN.glob("*.cfg")) == sorted(WORKLOADS)


def test_deviation_report_names_a_column_moved_by_one_ulp():
    golden = (GOLDEN / "thermal_2mode" / "rates.csv").read_text(encoding="utf-8")
    rows = golden.splitlines()
    cells = rows[5].split(",")
    column = rows[0].split(",")[3]
    moved = np.nextafter(float(cells[3]), np.inf)
    cells[3] = f"{moved:.17g}"
    actual = "\n".join(rows[:5] + [",".join(cells)] + rows[6:]) + "\n"
    report = deviation_report(actual, golden)
    assert len(report) == 2
    assert report[0].startswith(f"  {column}: max abs deviation ")
    assert float(report[0].split()[-1]) <= 2.3e-16
    assert report[1].startswith("  first differing line 6: ")
    # a key = value report, by section
    golden = (GOLDEN / "fock_4mode" / "compare.txt").read_text(encoding="utf-8")
    rows = golden.splitlines()
    k = rows.index("[ratios]") + 1
    key, value = rows[k].split(" = ")
    rows[k] = f"{key} = {np.nextafter(float(value), np.inf):.17g}"
    report = deviation_report("\n".join(rows) + "\n", golden)
    assert report[0].startswith(f"  ratios.{key}: max abs deviation ")
