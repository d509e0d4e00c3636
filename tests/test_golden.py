"""Golden CLI outputs: every seed-0 benchmark invocation writes the committed
bytes of ``tests/golden/`` (see ``tests/golden/regenerate.py``).  On a
mismatch the failure names the file and, per numeric column, the largest
absolute and relative deviation from the golden value, and says so when the
running numpy or BLAS build differs from the one that wrote the files."""

import numpy as np
import pytest

from golden.regenerate import (GOLDEN, INVOCATIONS, WORKLOADS, benchmark_configs, build,
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
