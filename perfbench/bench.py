"""Measurement loop: set-up probes, timed passes over the CLI verbs, checks.

One run covers one workload in one process with one client (closed loop:
each invocation starts after the previous one returned).  A pass runs every
verb of the workload through ``spinboson.cli.main`` and the closed-form
solutions once; verbs that take well under ``MIN_OP_SECONDS`` are repeated
within the pass.  Every invocation is timed on its own, and the host-speed
reference kernel runs after it (see ``Reference``).  Passes repeat until the
run's measuring time is used up; see ``RUN_STATISTIC`` for the per-run
statistic.
Every invocation's exit code and output are checked outside the timed
region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from spinboson import cli, spin_boson
from spinboson.config import load_config

from checks import check_output
from hostspeed import REFERENCE_SECONDS, reference_kernel
from tracing import Tracer, layer_metrics
from workloads import EXPECTED_EXIT, make_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 7
# Verbs faster than this are repeated within a pass, up to MAX_REPEATS times.
MIN_OP_SECONDS = 0.2
MAX_REPEATS = 200
MIN_PASSES = 3
# Time spent in the reference kernel, as a share of the time measured.
REFERENCE_SHARE = 0.2

# Per-op timings gated by BENCHMARK.json, next to total_s: every workload
# runs these ops.  exact and compare are not among them because ohmic_400
# cannot run them; they count in total_s.
GATED_TIMINGS = ("rates_s", "evolve_s", "limits_s", "closed_forms_s")
# A gated timing is the mean over the run's invocations of one op, scaled
# to the reference host speed: times REFERENCE_SECONDS over the mean time of
# the reference calls that followed that op's invocations.  total_s is the
# sum of the scaled means over the workload's ops.  On a shared host, other
# tenants slow the CPU by up to 2x in bursts of milliseconds whose share of
# the time drifts over seconds to minutes, so every raw statistic of a run
# follows that share.  The reference calls of an op run in the same
# stretches of time as its invocations, in proportion to their length, so
# their mean slows by the same factor and the ratio repeats.  setup_s, made
# of separate cold starts, is the median, scaled by the reference calls made
# after each cold start.
RUN_STATISTIC = "mean"


class Runner:
    """Runs and checks the invocations of one workload."""

    def __init__(self, workload, workdir: Path, corrupt=None):
        self.workload = workload
        self.workdir = workdir
        self.config_path = str(workdir / f"{workload.name}.cfg")
        (workdir / f"{workload.name}.cfg").write_text(workload.config_text, encoding="utf-8")
        self.corrupt = corrupt
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.values: dict = {}
        self.reference = Reference()
        cfg = load_config(self.config_path)
        self.grid = cfg.time_grid()
        self.rates = spin_boson.rate_functions(cfg.model())
        self.closed = self._closed_forms()

    @property
    def ops(self) -> tuple[str, ...]:
        return self.workload.verbs + ("closed_forms",)

    def _closed_forms(self) -> dict:
        wl = self.workload
        return {"rho01": spin_boson.coherence_solution(wl.rho01, self.rates, self.grid),
                "rho00": spin_boson.population_solution(wl.rho00, self.rates, self.grid)}

    def _invoke_verb(self, verb: str) -> float:
        out = self.workdir / f"{verb}.out"
        for stale in (out, Path(str(out) + ".summary")):
            stale.unlink(missing_ok=True)
        argv = [verb, "--config", self.config_path, "--out", str(out)]
        sink = io.StringIO()
        code = None
        if self.tracer is not None:
            self.tracer.invocation += 1
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # the run goes on; the invocation counts as failed
                elapsed = perf_counter() - t0
                self.failures.append(f"{verb}: raised\n{traceback.format_exc()}")
                return elapsed
            elapsed = perf_counter() - t0
        if code != EXPECTED_EXIT[verb]:
            self.failures.append(f"{verb}: exit {code}, expected {EXPECTED_EXIT[verb]}: "
                       f"{sink.getvalue().strip()[-300:]}")
            return elapsed
        if self.corrupt is not None:
            self.corrupt(verb, str(out))
        errors, values = check_output(verb, str(out), self.grid, self.closed)
        for error in errors:
            self.failures.append(error)
        self.values.update(values)
        return elapsed

    def _invoke_closed_forms(self) -> float:
        if self.tracer is not None:
            self.tracer.invocation += 1
        call = self._closed_forms
        if self.tracer is not None:
            call = self.tracer.wrap("bench.closed_forms", call)
        t0 = perf_counter()
        result = call()
        elapsed = perf_counter() - t0
        # deterministic library path: every evaluation must be bit-identical
        if not all(np.array_equal(result[k], self.closed[k]) for k in self.closed):
            self.failures.append("closed forms: result differs between evaluations")
        return elapsed

    def invoke(self, op: str, repeats: int = 1) -> list[float]:
        """Wall times of ``repeats`` invocations of ``op``."""
        times = []
        for _ in range(repeats):
            self.attempted += 1
            before = len(self.failures)
            times.append(self._invoke_closed_forms() if op == "closed_forms"
                         else self._invoke_verb(op))
            self.failed += len(self.failures) > before
            self.reference.follow(op, times[-1])
        return times

    def run_pass(self, repeats: dict) -> dict:
        """Per op, the wall times of its invocations in one pass."""
        return {op: self.invoke(op, repeats.get(op, 1)) for op in self.ops}


def pass_total(times: dict) -> float:
    """Time of one pass with every op invoked once: the sum of per-op means."""
    return sum(statistics.fmean(t) for t in times.values())


class Reference:
    """Times the host-speed reference kernel between the timed invocations.

    After each invocation of an op it runs the kernel for ``REFERENCE_SHARE``
    of the invocation's time, so the kernel samples the host over the same
    stretches of time as that op, in proportion to their length.
    """

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self._due: dict[str, float] = {}

    def follow(self, op: str, elapsed: float) -> None:
        due = self._due.get(op, 0.0) + REFERENCE_SHARE * elapsed
        times = self.times.setdefault(op, [])
        while due > 0.0:
            t0 = perf_counter()
            reference_kernel()
            times.append(perf_counter() - t0)
            due -= times[-1]
        self._due[op] = due

    def scale(self, op: str) -> float:
        """Factor that scales ``op``'s times to the reference host speed."""
        return REFERENCE_SECONDS / statistics.fmean(self.times[op])


def time_setup(config_path: str) -> float:
    """Wall time of one fresh process that imports spinboson, loads the config,
    builds the model and makes its first LAPACK call."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), config_path],
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=60)
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.decode()[-300:]}")
    return elapsed


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        return "unknown"


def environment(seed: int, blas_threads: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _quartiles(values, keep_values=True) -> dict:
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    stats = {"min": min(values), "q1": q[0], "median": statistics.median(values), "q3": q[2],
             "mean": statistics.fmean(values), "n": len(values)}
    if keep_values:
        stats["values"] = values
    return stats


def _measure_passes(runner: Runner, seconds: float, repeats: dict,
                    after_pass=lambda: None) -> list[dict]:
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(runner.run_pass(repeats))
        after_pass()
    return passes


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_root: Path,
        blas_threads: int, tiny: bool = False, corrupt=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    workload = make_workload(workload_name, seed, tiny=tiny)
    out_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=out_root))
    try:
        return _run(workload, seed, seconds, trace, out_root, workdir, blas_threads, corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, out_root, workdir, blas_threads, corrupt):
    runner = Runner(workload, workdir, corrupt=corrupt)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "verbs": list(workload.verbs),
              "jitter": workload.jitter, "config": workload.config_text,
              "environment": environment(seed, blas_threads)}

    setup, setup_reference = [], Reference()
    if not trace:
        for _ in range(SETUP_REPEATS):
            setup.append(time_setup(runner.config_path))
            setup_reference.follow("setup", setup[-1])

    # warm-up pass: lazy initialisation and first-call costs stay out of the
    # measured passes; its timings size the repeats of the fast verbs
    warm = runner.run_pass({})
    repeats = {op: 1 if trace else
               max(1, min(MAX_REPEATS, math.ceil(MIN_OP_SECONDS / max(t[0], 1e-6))))
               for op, t in warm.items()}

    runner.reference = Reference()
    if trace:
        metrics = _traced_metrics(runner, seconds, repeats, record, out_root)
    else:
        passes = _measure_passes(runner, seconds, repeats)
        summary = {f"{op}_s": _quartiles((t for p in passes for t in p[op]),
                                         keep_values=repeats[op] == 1)
                   for op in runner.ops}
        summary["pass_s"] = _quartiles(pass_total(p) for p in passes)
        summary["setup_s"] = _quartiles(setup)
        summary["reference_s"] = _quartiles(
            (t for times in runner.reference.times.values() for t in times), keep_values=False)
        record["timings"] = summary
        record["repeats"] = repeats
        record["host_scale"] = scale = {op: runner.reference.scale(op) for op in runner.ops}
        scale["setup"] = setup_reference.scale("setup")
        scaled = {f"{op}_s": summary[f"{op}_s"][RUN_STATISTIC] * scale[op] for op in runner.ops}
        record["scaled_s"] = scaled
        metrics = {"setup_s": (summary["setup_s"]["median"] * scale["setup"], "s"),
                   "total_s": (sum(scaled.values()), "s")}
        metrics.update((name, (scaled[name], "s")) for name in GATED_TIMINGS)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")

    record["checks"] = runner.values
    record["failures"] = runner.failures[:20]
    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["failed_ops_ratio"] = runner.failed / runner.attempted
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    return result, record


def _traced_metrics(runner, seconds, repeats, record, out_root) -> dict:
    """Untraced passes for half the time, traced passes for the other half."""
    untraced = _measure_passes(runner, seconds / 2, repeats)
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        traced = _measure_passes(runner, seconds / 2, repeats, after_pass=tracer.close_pass)
    finally:
        tracer.uninstall()
        runner.tracer = None
    counts = tracer.pass_counts
    if any(c != counts[0] for c in counts):
        runner.failures.append(f"deterministic counts differ between passes: {counts}")
    metrics = layer_metrics(tracer, len(traced), counts[0])
    untraced_total = statistics.median(pass_total(p) for p in untraced)
    traced_total = statistics.median(pass_total(p) for p in traced)
    metrics["trace.overhead_s"] = (traced_total - untraced_total, "s")
    spans_path = out_root / f"spans_{record['workload']}_seed{record['seed']}.csv.gz"
    tracer.write_spans(spans_path)
    record.update(counts_per_pass=counts[0], untraced_total_s=untraced_total,
                  traced_total_s=traced_total, spans_file=str(spans_path.relative_to(ROOT)))
    return metrics
