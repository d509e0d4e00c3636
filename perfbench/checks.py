"""Output checks for each CLI verb.

Each check re-reads what the program wrote and returns a list of problems
(empty when the output is correct) plus the values the report prints.  The
checks parse the files themselves instead of calling the program's reader,
so a fault in the program's writer and reader together cannot pass.
"""

from __future__ import annotations

import math
import os

import numpy as np

RATES_HEADER = ["t", "D_R", "D_I", "D_Rp", "D_Ip",
                "int_D_R", "int_D_I", "int_D_Rp", "int_D_Ip"]
TRAJECTORY_HEADER = ["t", "rho00", "re_rho01", "im_rho01",
                     "re_rho10", "im_rho10", "rho11", "trace_err", "herm_err"]

# trace and hermiticity invariants of every emitted trajectory
INVARIANT_TOL = 1e-9
# master equation (RK4) against the closed-form rho00 / rho01 on the same
# grid; the measured differences are 1e-8 or below on every workload
ME_VS_CLOSED_TOL = 1e-6
# final-time distance between the master equation and the exact reference at
# coupling scale 1; the workloads are weakly coupled, measured 0.06 to 0.12
ME_VS_EXACT_TOL = 0.5


def _read_csv(path, header, samples, errors):
    """Parse a CSV the program wrote; every number must round-trip bit-exactly."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split(",") != header:
        errors.append(f"{os.path.basename(path)}: header mismatch")
        return None
    rows = []
    for line in lines[1:]:
        tokens = line.split(",")
        values = [float(tok) for tok in tokens]
        if [f"{v:.17g}" for v in values] != tokens:
            errors.append(f"{os.path.basename(path)}: number does not round-trip: {line}")
            return None
        rows.append(values)
    data = np.array(rows)
    if data.shape != (samples, len(header)):
        errors.append(f"{os.path.basename(path)}: shape {data.shape}, "
                      f"expected {(samples, len(header))}")
        return None
    if not np.all(np.isfinite(data)):
        errors.append(f"{os.path.basename(path)}: non-finite values")
        return None
    return data


def _read_keyvals(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.strip().partition(" = ")
            if sep:
                out[key] = value
    return out


def _check_grid(data, grid, errors):
    if not np.array_equal(data[:, 0], grid):
        errors.append("time column differs from the config grid")


def check_rates(path, grid):
    errors = []
    data = _read_csv(path, RATES_HEADER, len(grid), errors)
    if data is not None:
        _check_grid(data, grid, errors)
        if np.any(data[0, 1:] != 0.0):
            errors.append("rates: rate columns do not vanish at t = 0")
    return errors, {}


def check_trajectory(path, grid, closed, command):
    errors = []
    values = {}
    data = _read_csv(path, TRAJECTORY_HEADER, len(grid), errors)
    if data is None:
        return errors, values
    _check_grid(data, grid, errors)
    values["max_trace_err"] = float(np.max(data[:, 7]))
    values["max_herm_err"] = float(np.max(data[:, 8]))
    if values["max_trace_err"] > INVARIANT_TOL or values["max_herm_err"] > INVARIANT_TOL:
        errors.append(f"{command}: trace/hermiticity error above {INVARIANT_TOL:g}")
    summary_path = path + ".summary"
    if not os.path.isfile(summary_path):
        errors.append(f"{command}: missing .summary sidecar")
        return errors, values
    summary = _read_keyvals(summary_path)
    if summary.get("command") != command or summary.get("samples") != str(len(grid)):
        errors.append(f"{command}: summary does not describe this run")
    elif command == "evolve":
        values["substeps"] = int(summary["substeps"])
        rho01 = data[:, 2] + 1j * data[:, 3]
        err = max(float(np.max(np.abs(data[:, 1] - closed["rho00"]))),
                  float(np.max(np.abs(rho01 - closed["rho01"]))))
        values["me_vs_closed_err"] = err
        if not err <= ME_VS_CLOSED_TOL:
            errors.append(f"evolve: differs from the closed forms by {err:.3g} "
                          f"> {ME_VS_CLOSED_TOL:g}")
    return errors, values


def check_compare(path, grid):
    errors = []
    values = {}
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    sections = {}
    name = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            sections[name] = []
        elif name is not None:
            sections[name].append(line)
    if set(sections) != {"distances", "scaling", "ratios", "checks"}:
        return [f"compare: sections {sorted(sections)}"], values
    distances = sections["distances"][1:]
    if len(distances) != len(grid):
        errors.append(f"compare: {len(distances)} distance rows, expected {len(grid)}")
    scaling = dict(row.split(",") for row in sections["scaling"][1:])
    if sorted(scaling) != ["0.25", "0.5", "1"]:
        return errors + [f"compare: scaling rows {sorted(scaling)}"], values
    err = float(scaling["1"])
    values["me_vs_exact_err"] = err
    if not (math.isfinite(err) and 0.0 < err <= ME_VS_EXACT_TOL):
        errors.append(f"compare: final distance {err:.3g} outside (0, {ME_VS_EXACT_TOL:g}]")
    if sections["checks"][-1:] != ["overall = fail"]:
        errors.append("compare: the report does not state the failed ratio window")
    return errors, values


def check_limits(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    statuses = [line.split(" = ")[1] for line in lines if line.startswith("status = ")]
    errors = []
    if len(statuses) != 4 or any(s not in ("pass", "skipped") for s in statuses):
        errors.append(f"limits: check statuses {statuses}")
    if lines[-1:] != ["overall = pass"]:
        errors.append("limits: overall verdict is not pass")
    return errors, {"limits_passed": statuses.count("pass")}


def check_output(verb, path, grid, closed):
    """Problems with the output of one ``verb`` invocation, and its values."""
    if not os.path.isfile(path):
        return [f"{verb}: no output written"], {}
    try:
        if verb == "rates":
            return check_rates(path, grid)
        if verb in ("evolve", "exact"):
            return check_trajectory(path, grid, closed, verb)
        if verb == "compare":
            return check_compare(path, grid)
        return check_limits(path)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        return [f"{verb}: unparsable output ({exc})"], {}
