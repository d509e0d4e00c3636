"""Quick self-test of the benchmark itself (about a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload path at tiny sizes, untraced and traced, and checks:

* the metric names printed match BENCHMARK.json exactly;
* a clean run counts no failure, and the deterministic counts repeat
  exactly between two traced runs;
* a deliberately corrupted output is counted as failed, and the run exits
  non-zero;
* in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.

It is not part of the test suite, so it adds no time to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

DETERMINISTIC = ("master_eq.substeps", "spin_boson.rate_kernel_points",
                 "spin_boson.bath_hook_calls", "oracle.full_dim",
                 "oracle.reconstruct_gflop_per_sample", "trace.spans")


def _corrupt_evolve(verb, path):
    if verb == "evolve":
        text = Path(path).read_text(encoding="utf-8")
        Path(path).write_text(text.replace("0.", "0.9", 1), encoding="utf-8")


def _drop_summary(verb, path):
    if verb == "exact":
        Path(path + ".summary").unlink()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    threads = run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import bench

    out = run.OUT_DIR / "selftest"
    problems = []

    def check(condition, message):
        print(f"{'ok  ' if condition else 'FAIL'} {message}", flush=True)
        if not condition:
            problems.append(message)

    for workload in run.WORKLOAD_NAMES:
        result, _ = bench.run(workload, 0, 0.0, False, out, threads, tiny=True)
        check(list(result["metrics"]) == end_to_end, f"{workload}: end-to-end metric names")
        check(result["correct"] and result["failed"] == 0, f"{workload}: clean untraced run")
        counts = []
        for _ in range(2):
            result, _ = bench.run(workload, 1, 0.0, True, out, threads, tiny=True)
            check(list(result["metrics"]) == per_layer, f"{workload}: per-layer metric names")
            check(result["correct"] and result["failed"] == 0, f"{workload}: clean traced run")
            counts.append({k: result["metrics"][k]["value"] for k in DETERMINISTIC})
        check(counts[0] == counts[1], f"{workload}: deterministic counts repeat {counts[0]}")

    for corrupt, what in ((_corrupt_evolve, "corrupted evolve CSV"),
                          (_drop_summary, "missing exact .summary")):
        result, record = bench.run("thermal_2mode", 0, 0.0, False, out, threads,
                                   tiny=True, corrupt=corrupt)
        check(not result["correct"] and result["failed"] > 0 and record["failed_ops_ratio"] > 0,
              f"{what} counted as failed ({result['failed']} of {result['attempted']})")

    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(spec["command"] + ["--workload", "thermal_2mode", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(done.returncode != 0 and not done.stdout.strip(),
              f"without src/ run.py exits {done.returncode} and prints no result")

    shutil.rmtree(out, ignore_errors=True)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
