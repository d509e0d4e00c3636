"""Command-line front end.

Verbs
-----
rates    rate-function table over the time grid (CSV)
evolve   master-equation trajectory (CSV) plus a text summary sidecar
exact    reference trajectory from the truncated-Fock solver (same format)
compare  master equation vs reference: per-time distances and the
         coupling-scaling table (structured text report)
limits   vacuum / high-temperature / zero-temperature / constant-rate
         checks applicable to the config (structured text report)

Usage: ``spinboson <verb> --config <path> [--out <path>]``; ``--help``
lists the verbs with one line each.  One flat parser reads the verb as a
positional argument, so the options may come before or after it
(``spinboson --config run.cfg rates`` works too).  ``--out`` falls back to
``output_path`` from the config.  Numbers are serialized with 17
significant digits, so emitted CSV re-parses bit-exactly; nothing in any
code path depends on wall clock or randomness, so identical configs yield
byte-identical outputs.

Exit codes: 0 success / all checks pass; 1 configuration or usage error,
or an output file that cannot be written (``output error``, naming the
path); 2 runtime abort (trace drift, a non-finite step-doubling estimate,
Hilbert-space cap, Fock truncation not converged under
``check_truncation``, a NaN or infinity bound for a CSV); 3 failed check in
compare/limits.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .master_eq import (StepDoublingError, TraceDriftError, Trajectory, generator_matrix,
                        propagate, propagate_scaled)
from .oracle import (BathDimensionError, TruncatedBath, TruncationError,
                     exact_reduced_dynamics, exact_scaled_dynamics)
from .spin_boson import (bath_statistics, interaction_decomposition,
                         markov_rates, rate_functions, vacuum_rhs)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3

RATES_HEADER = ["t", "D_R", "D_I", "D_Rp", "D_Ip",
                "int_D_R", "int_D_I", "int_D_Rp", "int_D_Ip"]
TRAJECTORY_HEADER = ["t", "rho00", "re_rho01", "im_rho01",
                     "re_rho10", "im_rho10", "rho11", "trace_err", "herm_err"]

# coupling multipliers for the order-scaling table and the accepted window
# for consecutive error ratios
SCALING_FACTORS = (1.0, 0.5, 0.25)
RATIO_WINDOW = (6.0, 10.0)
RATIO_NOISE_FLOOR = 1e-12


class NonFiniteOutputError(RuntimeError):
    """A value bound for a CSV is NaN or infinite."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write ``columns``, the times first, under ``header``; a NaN or an
    infinity raises :class:`NonFiniteOutputError`, and no file is opened."""
    table = np.array(columns, dtype=float).T
    finite = np.isfinite(table)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        raise NonFiniteOutputError(f"{header[column]} is {table[row, column]} "
                                   f"at t = {_fmt(table[row, 0])}; no CSV written")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for values in table.tolist():
            fh.write(",".join(map(_fmt, values)) + "\n")


def _write_keyvals(fh, pairs) -> None:
    for key, value in pairs:
        if isinstance(value, float):
            value = _fmt(value)
        fh.write(f"{key} = {value}\n")


# -- commands ----------------------------------------------------------------

def run_rates(cfg: RunConfig, out: str) -> int:
    grid = cfg.time_grid()
    # the four parts of both channels from one evaluation, in the header's
    # order: each channel's decay and shift, then each channel's integrals
    absorption, emission = rate_functions(cfg.model()).sums(
        grid, ("decay", "shift", "decay_integral", "shift_integral"))
    write_csv(out, RATES_HEADER,
              [grid, *absorption[:2], *emission[:2], *absorption[2:], *emission[2:]])
    print(f"wrote {out}")
    return EXIT_OK


# the run's own metadata a summary ends with, in this order, when present
_SUMMARY_METADATA = ("integrator", "substeps", "error_estimate", "n_max")


def _write_trajectory(cfg: RunConfig, traj: Trajectory, out: str) -> None:
    s = traj.states
    write_csv(out, TRAJECTORY_HEADER,
              [traj.times, s[:, 0, 0].real, s[:, 0, 1].real, s[:, 0, 1].imag, s[:, 1, 0].real,
               s[:, 1, 0].imag, s[:, 1, 1].real, traj.trace_errors(), traj.hermiticity_errors()])
    rho00 = s[:, 0, 0].real
    coherence = np.abs(s[:, 0, 1])
    quartile = rho00[3 * (len(rho00) - 1) // 4:]
    pairs: list[tuple[str, object]] = [
        ("command", "evolve" if traj.metadata.get("integrator") == "rk4" else "exact"),
        ("model", cfg.model_tag()),
        ("samples", cfg.samples),
        ("t_max", cfg.t_max),
        ("final_rho00", float(rho00[-1])),
        ("final_rho11", float(s[-1, 1, 1].real)),
        ("steady_state_estimate", float(np.mean(quartile))),
        ("initial_coherence_abs", float(coherence[0])),
        ("final_coherence_abs", float(coherence[-1])),
    ]
    if coherence[0] > 0:
        pairs.append(("coherence_decay_factor", float(coherence[-1] / coherence[0])))
    pairs += [
        ("min_eigenvalue", float(np.min(traj.metadata["min_eigenvalue"]))),
        ("max_trace_err", float(np.max(traj.trace_errors()))),
        ("max_herm_err", float(np.max(traj.hermiticity_errors()))),
    ]
    pairs += [(key, traj.metadata[key]) for key in _SUMMARY_METADATA if key in traj.metadata]
    summary_path = out + ".summary"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        _write_keyvals(fh, pairs)
    print(f"wrote {out}")
    print(f"wrote {summary_path}")


def run_evolve(cfg: RunConfig, out: str) -> int:
    model = cfg.model()
    traj = propagate(interaction_decomposition(model), bath_statistics(model),
                     cfg.initial_state(), cfg.time_grid(), substeps=cfg.rk4_substeps)
    _write_trajectory(cfg, traj, out)
    return EXIT_OK


def run_exact(cfg: RunConfig, out: str) -> int:
    traj = exact_reduced_dynamics(TruncatedBath(cfg.model(), n_max=cfg.n_max),
                                  cfg.initial_state(), cfg.time_grid(),
                                  check_truncation=cfg.check_truncation)
    _write_trajectory(cfg, traj, out)
    return EXIT_OK


def run_compare(cfg: RunConfig, out: str) -> int:
    if not cfg.oracle_enabled:
        raise ConfigError("compare needs oracle_enabled = true")
    base = cfg.model()
    grid = cfg.time_grid()
    rho0 = cfg.initial_state()
    # one sector pass gives the reference at every coupling scale
    references = exact_scaled_dynamics(TruncatedBath(base, n_max=cfg.n_max), rho0, grid,
                                       SCALING_FACTORS, check_truncation=cfg.check_truncation)

    # and one master-equation pass, from one bath
    trajectories = propagate_scaled(interaction_decomposition(base), bath_statistics(base),
                                    rho0, grid, SCALING_FACTORS, substeps=cfg.rk4_substeps)
    distances = None
    errors = []
    for factor, me, exact in zip(SCALING_FACTORS, trajectories, references):
        dist = np.linalg.norm(me.states - exact.states, axis=(1, 2))
        if factor == 1.0:
            distances = dist
        errors.append(float(dist[-1]))

    ratios: list[tuple[str, float | None]] = []
    for (fa, ea), (fb, eb) in zip(zip(SCALING_FACTORS, errors),
                                  zip(SCALING_FACTORS[1:], errors[1:])):
        name = f"ratio_{fa:g}_to_{fb:g}"
        ratios.append((name, ea / eb if eb > RATIO_NOISE_FLOOR else None))

    lo, hi = RATIO_WINDOW
    reported = [(n, r) for n, r in ratios if r is not None]
    all_pass = all(lo <= r <= hi for _, r in reported)

    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        _write_keyvals(fh, [
            ("command", "compare"),
            ("model", cfg.model_tag()),
            ("samples", cfg.samples),
            ("t_max", cfg.t_max),
            ("n_max", cfg.n_max),
            ("accepted_window", f"[{lo:g}, {hi:g}]"),
        ])
        fh.write("[distances]\n")
        fh.write("t,distance\n")
        for t, d in zip(grid, distances):
            fh.write(f"{_fmt(t)},{_fmt(d)}\n")
        fh.write("[scaling]\n")
        fh.write("coupling_scale,error_final\n")
        for factor, err in zip(SCALING_FACTORS, errors):
            fh.write(f"{_fmt(factor)},{_fmt(err)}\n")
        fh.write("[ratios]\n")
        for name, ratio in ratios:
            value = _fmt(ratio) if ratio is not None else "below-noise-floor"
            fh.write(f"{name} = {value}\n")
        fh.write("[checks]\n")
        for name, ratio in reported:
            verdict = "pass" if lo <= ratio <= hi else "fail"
            fh.write(f"{name} = {verdict}\n")
        fh.write(f"overall = {'pass' if all_pass else 'fail'}\n")
    print(f"wrote {out}")
    return EXIT_OK if all_pass else EXIT_CHECK


def _limit_checks(cfg: RunConfig) -> list[tuple[str, str, list[tuple[str, object]]]]:
    model = cfg.model()
    grid = cfg.time_grid()
    decomp = interaction_decomposition(model)
    bath = bath_statistics(model)
    occupations = model.occupations()
    min_occ = float(np.min(occupations)) if len(occupations) else 0.0
    hot = not model.vacuum and min_occ >= 100.0
    disc = cfg.discretization()
    in_band = disc is not None and disc.omega_min <= model.omega0 <= disc.omega_max
    if model.vacuum or hot or in_band:
        # every rate part a check reads, from the call the rates verb makes
        # less the shift integrals, so that the checks read its CSV's numbers
        (a_decay, a_shift, a_integral), (e_decay, _, e_integral) = rate_functions(model).sums(grid)
    checks = []

    # vacuum: absorption rates vanish identically and the generic generator
    # collapses to the single-dissipator form
    if model.vacuum:
        max_absorption = max(float(np.max(np.abs(r))) for r in (a_decay, a_shift))
        # the generator applied to the unit matrix |i><j| is column 2 i + j
        # of its matrix
        generic = generator_matrix(decomp, bath, grid).swapaxes(1, 2).reshape(-1, 4, 2, 2)
        units = np.eye(4, dtype=complex).reshape(4, 2, 2)
        mismatch = float(np.max(np.abs(vacuum_rhs(model, units, grid) - generic)))
        ok = max_absorption <= 1e-15 and mismatch <= 1e-8
        checks.append(("vacuum", "pass" if ok else "fail", [
            ("max_abs_absorption_rate", max_absorption),
            ("max_generator_mismatch", mismatch),
        ]))
    else:
        checks.append(("vacuum", "skipped", [("reason", "beta is finite")]))

    # high temperature: equal populations are the steady state
    if hot:
        traj = propagate(decomp, bath, cfg.initial_state(), grid,
                         substeps=cfg.rk4_substeps)
        decay_factor = math.exp(-16.0 * a_integral[-1])  # at t_max
        final = float(traj.states[-1, 0, 0].real)
        ok = decay_factor < 1e-4 and abs(final - 0.5) <= 1e-3
        checks.append(("high_temperature", "pass" if ok else "fail", [
            ("min_mode_occupation", min_occ),
            ("transient_factor", decay_factor),
            ("final_rho00", final),
            ("target", 0.5),
        ]))
    else:
        reason = ("beta is infinite" if model.vacuum else
                  f"min mode occupation {_fmt(min_occ)} below 100")
        checks.append(("high_temperature", "skipped", [("reason", reason)]))

    # zero temperature: population decays with the emission envelope and
    # everything ends in the lower level
    if model.vacuum:
        traj = propagate(decomp, bath, cfg.initial_state(), grid,
                         substeps=cfg.rk4_substeps)
        envelope = np.exp(-8.0 * e_integral)
        closed = cfg.rho00 * envelope
        deviation = float(np.max(np.abs(traj.states[:, 0, 0].real - closed)))
        final_rho11 = float(traj.states[-1, 1, 1].real)
        ok = deviation <= 1e-6 and abs(final_rho11 - 1.0) <= 1e-3
        checks.append(("zero_temperature", "pass" if ok else "fail", [
            ("max_population_deviation", deviation),
            ("final_rho11", final_rho11),
            ("decay_envelope_at_t_max", float(envelope[-1])),
        ]))
    else:
        checks.append(("zero_temperature", "skipped", [("reason", "beta is finite")]))

    # constant-rate plateau: the time-resolved emission rate settles on the
    # resonance value over the final quartile of the grid
    if in_band:
        _, emission_const = markov_rates(disc, model)
        resolved = e_decay[3 * (len(grid) - 1) // 4:]
        deviation = float(np.max(np.abs(resolved - emission_const))) / emission_const
        checks.append(("markov_plateau", "pass" if deviation <= 0.10 else "fail", [
            ("expected_plateau", emission_const),
            ("max_relative_deviation", deviation),
        ]))
    else:
        reason = ("no discretization block" if disc is None
                  else "omega0 outside the sampled band")
        checks.append(("markov_plateau", "skipped", [("reason", reason)]))

    return checks


def run_limits(cfg: RunConfig, out: str) -> int:
    checks = _limit_checks(cfg)
    failed = [name for name, status, _ in checks if status == "fail"]
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        _write_keyvals(fh, [("command", "limits"), ("model", cfg.model_tag())])
        for name, status, measurements in checks:
            fh.write(f"[{name}]\n")
            _write_keyvals(fh, [("status", status)] + measurements)
        fh.write(f"overall = {'pass' if not failed else 'fail'}\n")
    print(f"wrote {out}")
    return EXIT_OK if not failed else EXIT_CHECK


# verb -> (runner, one-line description for --help)
_COMMANDS = {
    "rates": (run_rates, "tabulate the four rate functions and their integrals"),
    "evolve": (run_evolve, "propagate the master equation and write the trajectory"),
    "exact": (run_exact, "propagate the truncated-Fock reference and write the trajectory"),
    "compare": (run_compare, "master equation vs reference with coupling-order scaling"),
    "limits": (run_limits, "run the limit checks applicable to the config"),
}


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors as far as exit codes go
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    # one parser with the verb as a choice: every add_argument builds a help
    # formatter, so a sub-parser per verb costs several times as much
    verbs = "\n".join(f"  {name:<9}{help_line}" for name, (_, help_line) in _COMMANDS.items())
    parser = _Parser(prog="spinboson",
                     description="Non-Markovian spin-boson dynamics toolkit",
                     epilog=f"commands:\n{verbs}",
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=_COMMANDS, help="the verb to run (see below)")
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", help="output path (default: output_path from the config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = args.out or cfg.output_path
        if not out:
            raise ConfigError("no output path: pass --out or set output_path")
        return _COMMANDS[args.command][0](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceDriftError, StepDoublingError, BathDimensionError, TruncationError,
            NonFiniteOutputError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        # an output path that names a directory or lies in a missing one
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
