"""spinboson benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload thermal_2mode --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
run writes its configs, outputs, result record and spans under
``perfbench/out/``.  With ``--trace 0`` the result carries the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer metrics.  The
last line of standard output is the JSON result; the exit code is non-zero
when any invocation failed its exit-code or output check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("thermal_2mode", "fock_4mode", "ohmic_400")


def pin_blas_threads() -> int:
    """Pin BLAS/OpenMP threads to 1; must run before numpy is imported.

    One thread, because on a shared host a second BLAS thread waits for
    whichever core another tenant is using, which makes timings less steady.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"git {env['git_sha'][:12]}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  blas {env['blas']} x{env['blas_threads']}  "
          f"nproc {env['nproc']}")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    units = {"setup_s": "process", "pass_s": "pass", "reference_s": "call"}
    for name, stats in record.get("timings", {}).items():
        scaled = ""
        if name in record["scaled_s"]:
            scaled = f"  scaled mean {record['scaled_s'][name]:.6g} s"
        print(f"  {name:<22} per {units.get(name, 'invocation')}: min {stats['min']:.6g} s  "
              f"q1 {stats['q1']:.6g} s  median {stats['median']:.6g} s  "
              f"q3 {stats['q3']:.6g} s  mean {stats['mean']:.6g} s  (n {stats['n']}){scaled}")
    for name, value in record["checks"].items():
        unit = "count" if isinstance(value, int) else "1"
        print(f"  {name:<22} {value:.6g} {unit}")
    print(f"  {'failed_ops_ratio':<22} {record['failed_ops_ratio']:.6g} 1 "
          f"({record['failed']} of {record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spinboson" / "__init__.py").is_file():
        print(f"no spinboson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import bench  # numpy is imported here, after the thread pin

    result, record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               OUT_DIR, threads)
    record_path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_report(record)
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
