"""Span tracing around the calls into each spinboson layer.

The traced run wraps public functions of the package at run time: every
module binding of a function is swapped for a wrapper that records a span
(name, start, end, parent span, invocation id) in memory, and the originals
are put back afterwards.  Nothing under ``src/`` is edited, and the CLI code
path stays the one the untraced run measures.  A function that a later
version of the package no longer has is skipped; its metrics then read 0.

Two hot paths are counted rather than spanned, to keep the overhead small:

* ``linalg.commutator`` (eight calls per generator evaluation) is not
  wrapped; its time counts as master_eq self time.
* the integrated-correlation hooks of ``bath_statistics`` are counted on
  every call, and spanned only when they evaluate the rate kernels.  The
  bridge memoizes one time argument, so a call evaluates the kernels exactly
  when its time differs from the previous call's; the kernel point count is
  computed from that rule.

Span names are ``<layer>.<function>``; a layer's self time is the time of
its spans minus the time of their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "spin_boson", "master_eq", "oracle", "linalg", "bench")

_RATE_METHODS = ("decay", "shift", "decay_integral", "shift_integral")


class Tracer:
    """In-memory span recorder with counters, installed around the package."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (invocation, parent index, name id, start, end); parent -1 is a root
        self.spans: list = []
        # counts of the pass in progress; close_pass() moves them to pass_counts
        self.counts: Counter = Counter()
        self.pass_counts: list[dict] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, post=None):
        """``fn`` recording one span per call; ``post(args, result)`` may
        count or replace the result."""
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[index] = (self.invocation, parent, nid, t0, t1)
            return result if post is None else post(args, result)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from spinboson import cli, config, linalg, master_eq, oracle, spin_boson

        functions = [
            (cli, "main", "cli.main", None),
            (cli, "write_csv", "cli.write_csv", None),
            (config, "load_config", "config.load_config", None),
            (master_eq, "propagate", "master_eq.propagate", self._count_substeps),
            (master_eq, "default_substeps", "master_eq.default_substeps", None),
            (master_eq, "generator_matrix", "master_eq.generator_matrix", None),
            (master_eq, "rhs", "master_eq.rhs", None),
            (spin_boson, "rate_functions", "spin_boson.rate_functions", None),
            (spin_boson, "bath_statistics", "spin_boson.bath_statistics", self._count_hooks),
            (spin_boson, "coherence_solution", "spin_boson.coherence_solution", None),
            (spin_boson, "population_solution", "spin_boson.population_solution", None),
            (spin_boson, "vacuum_rhs", "spin_boson.vacuum_rhs", None),
            (oracle, "exact_reduced_dynamics", "oracle.exact_reduced_dynamics",
             self._count_samples),
            (oracle, "full_hamiltonian", "oracle.full_hamiltonian", self._count_dim),
            (oracle, "thermal_bath_state", "oracle.thermal_bath_state", None),
            (linalg, "partial_trace", "linalg.partial_trace", None),
        ]
        for module, attr, name, post in functions:
            original = getattr(module, attr, None)
            if original is not None:
                self._rebind(original, self.wrap(name, original, post))

        attributes = [
            (getattr(config, "RunConfig", None), "model", "config.model", None),
            (getattr(master_eq, "Trajectory", None), "min_eigenvalues",
             "master_eq.min_eigenvalues", None),
            # only the exact solver diagonalizes; eigh is its LAPACK call
            (np.linalg, "eigh", "oracle.eigh", None),
        ]
        channel = getattr(spin_boson, "RateChannel", None)
        attributes += [(channel, m, "spin_boson.rate_kernel", self._count_points)
                       for m in _RATE_METHODS]
        for owner, attr, name, post in attributes:
            original = getattr(owner, attr, None) if owner is not None else None
            if original is not None:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, post))

    def _rebind(self, original, wrapped) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spinboson" and not mod_name.startswith("spinboson."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- counters -----------------------------------------------------------

    def close_pass(self) -> None:
        self.pass_counts.append({k: int(v) for k, v in self.counts.items()})
        self.counts.clear()

    def _count_substeps(self, args, traj):
        steps = traj.metadata.get("substeps", 0) * (len(traj.times) - 1)
        self.counts["master_eq.substeps"] += steps
        return traj

    def _count_samples(self, args, traj):
        self.counts["oracle.samples"] += len(traj.times)
        return traj

    def _count_dim(self, args, h):
        self.counts["oracle.full_dim"] = max(self.counts["oracle.full_dim"], h.shape[0])
        return h

    def _count_points(self, args, out):
        channel, t = args[0], args[1]
        modes = np.size(getattr(channel, "detunings", 0))
        self.counts["spin_boson.rate_kernel_points"] += np.size(t) * modes
        return out

    def _count_hooks(self, args, bath):
        hook_names = [n for n in ("integrated_correlation", "integrated_correlation_rev")
                      if getattr(bath, n, None) is not None]
        if not hook_names:
            return bath
        modes = len(args[0].modes)
        kernel_id = self._name_id("spin_boson.rate_kernel")
        last_t = [None]
        counts, spans, stack = self.counts, self.spans, self._stack

        def counted(hook):
            def call(j, k, t):
                counts["spin_boson.bath_hook_calls"] += 1
                if t == last_t[0]:
                    return hook(j, k, t)
                last_t[0] = t
                counts["spin_boson.rate_kernel_points"] += modes
                parent = stack[-1] if stack else -1
                t0 = perf_counter()
                result = hook(j, k, t)
                spans.append((self.invocation, parent, kernel_id, t0, perf_counter()))
                return result
            return call

        return dataclasses.replace(bath, **{n: counted(getattr(bath, n)) for n in hook_names})

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("invocation,parent,name,start_s,end_s\n")
            for inv, parent, nid, t0, t1 in self.spans:
                fh.write(f"{inv},{parent},{self.names[nid]},{t0!r},{t1!r}\n")


def layer_metrics(tracer: Tracer, passes: int, counts_per_pass: dict) -> dict:
    """Per-layer metrics from the recorded spans of ``passes`` traced passes.

    Times are means per call unless the name says per pass; counts are per
    pass and identical in every pass.
    """
    names = tracer.names
    _, parent, nid, t0, t1 = (np.array(col) for col in zip(*tracer.spans))
    dur = t1 - t0
    has_parent = parent >= 0
    child_time = np.zeros(len(dur))
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    name_of = np.array(names, dtype=object)[nid]

    def select(name):
        return name_of == name

    def total(name):
        return float(np.sum(dur[select(name)]))

    def mean(name, scale):
        mask = select(name)
        return float(np.mean(dur[mask])) * scale if np.any(mask) else 0.0

    def per_unit(seconds, units_per_pass, scale):
        return seconds / (units_per_pass * passes) * scale if units_per_pass else 0.0

    def children_of(parent_name, child_names):
        parents = np.flatnonzero(select(parent_name))
        mask = np.isin(parent, parents) & np.isin(name_of, child_names)
        return float(np.sum(dur[mask]))

    substeps = counts_per_pass.get("master_eq.substeps", 0)
    step_time = (total("master_eq.propagate")
                 - children_of("master_eq.propagate",
                               ["master_eq.default_substeps", "master_eq.min_eigenvalues"]))
    points = counts_per_pass.get("spin_boson.rate_kernel_points", 0)
    samples = counts_per_pass.get("oracle.samples", 0)
    reconstruction = (total("oracle.exact_reduced_dynamics")
                      - children_of("oracle.exact_reduced_dynamics",
                                    ["oracle.full_hamiltonian", "oracle.eigh",
                                     "oracle.thermal_bath_state",
                                     "master_eq.min_eigenvalues"]))
    dim = counts_per_pass.get("oracle.full_dim", 0)
    gflop_per_sample = 16.0 * dim ** 3 / 1e9

    metrics = {
        "master_eq.rhs_us": (mean("master_eq.rhs", 1e6), "us"),
        "master_eq.rk4_substep_us": (per_unit(step_time, substeps, 1e6), "us"),
        "master_eq.propagate_s": (mean("master_eq.propagate", 1.0), "s"),
        "master_eq.substeps": (substeps, "count"),
        "master_eq.generator_matrix_ms": (mean("master_eq.generator_matrix", 1e3), "ms"),
        "master_eq.default_substeps_ms": (mean("master_eq.default_substeps", 1e3), "ms"),
        "master_eq.min_eigenvalues_ms": (mean("master_eq.min_eigenvalues", 1e3), "ms"),
        "spin_boson.rate_kernel_ns_per_point":
            (per_unit(total("spin_boson.rate_kernel"), points, 1e9), "ns"),
        "spin_boson.rate_kernel_points": (points, "count"),
        "spin_boson.rate_functions_ms": (mean("spin_boson.rate_functions", 1e3), "ms"),
        "spin_boson.bath_hook_calls": (counts_per_pass.get("spin_boson.bath_hook_calls", 0), "count"),
        "spin_boson.coherence_solution_ms": (mean("spin_boson.coherence_solution", 1e3), "ms"),
        "spin_boson.population_solution_s": (mean("spin_boson.population_solution", 1.0), "s"),
        "oracle.full_dim": (dim, "count"),
        "oracle.full_hamiltonian_ms": (mean("oracle.full_hamiltonian", 1e3), "ms"),
        "oracle.eigh_s": (mean("oracle.eigh", 1.0), "s"),
        "oracle.exact_reduced_dynamics_s": (mean("oracle.exact_reduced_dynamics", 1.0), "s"),
        "oracle.per_sample_ms": (per_unit(reconstruction, samples, 1e3), "ms"),
        "oracle.reconstruct_gflop_per_sample": (gflop_per_sample, "GFLOP"),
        "oracle.reconstruct_gflops":
            (gflop_per_sample / per_unit(reconstruction, samples, 1.0) if samples else 0.0,
             "GFLOP/s"),
        "linalg.partial_trace_us": (mean("linalg.partial_trace", 1e6), "us"),
        "config.load_config_ms": (mean("config.load_config", 1e3), "ms"),
        "cli.write_csv_ms": (mean("cli.write_csv", 1e3), "ms"),
    }
    layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)[nid]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (float(np.sum(self_time[layer_of == layer])) / passes, "s")
    metrics["trace.spans"] = (len(dur) // passes, "count")
    return metrics
