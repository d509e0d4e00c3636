import dataclasses
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinboson
import spinboson.cli as cli
from spinboson.cli import (EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME,
                           RATES_HEADER, TRAJECTORY_HEADER, main)

from helpers import read_csv

VACUUM_CFG = """\
omega0 = 1.0
beta = vacuum
modes = 1.0:0.1
t_max = 14.0
samples = 57
rk4_substeps = 60
rho00 = 1.0
rho01 = 0
"""

THERMAL_CFG = """\
omega0 = 1.0
beta = 1.0
modes = 0.8:0.1, 1.2:0.07
t_max = 4.0
samples = 33
rk4_substeps = 40
rho00 = 0.6
rho01 = 0.25+0.1j
"""

COMPARE_CFG = """\
omega0 = 1.0
beta = vacuum
modes = 1.0:0.05
t_max = 2.0
samples = 9
rk4_substeps = 40
rho00 = 1.0
rho01 = 0
oracle_enabled = true
n_max = 4
"""

HIGH_T_CFG = """\
omega0 = 1.0
beta = 0.001
modes = 0.9:0.008, 1.0:0.008, 1.1:0.008
t_max = 5.0
samples = 41
rk4_substeps = 100
rho00 = 1.0
rho01 = 0
"""

MARKOV_CFG = """\
omega0 = 1.0
beta = 1.0
density = ohmic
eta = 0.01
omega_c = 5.0
omega_min = 0.01
omega_max = 10.0
mode_count = 400
t_max = 50.0
samples = 101
rho00 = 0.5
rho01 = 0.5
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_summary(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


# -- rates ---------------------------------------------------------------------

def test_rates_csv_columns_and_vacuum_zeros(tmp_path):
    cfg = write_cfg(tmp_path, VACUUM_CFG)
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, data = read_csv(str(out))
    assert header == RATES_HEADER
    assert data.shape == (57, 9)
    # first row is t = 0: every rate column vanishes
    assert np.all(data[0] == 0.0)
    # vacuum: absorption columns identically zero
    assert np.all(data[:, 1] == 0.0) and np.all(data[:, 2] == 0.0)
    assert np.all(data[:, 5] == 0.0) and np.all(data[:, 6] == 0.0)


def test_rates_markov_plateau_column(tmp_path):
    from spinboson.config import load_config
    from spinboson.spin_boson import markov_rates

    cfg_path = write_cfg(tmp_path, MARKOV_CFG)
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    _, data = read_csv(str(out))
    cfg = load_config(cfg_path)
    _, plateau = markov_rates(cfg.discretization(), cfg.model())
    final_quartile = data[75:, 3]  # D_Rp column
    assert np.max(np.abs(final_quartile - plateau)) <= 0.10 * plateau


# -- evolve / exact -------------------------------------------------------------

def test_evolve_zero_coupling_constant_columns(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL_CFG.replace("0.8:0.1, 1.2:0.07",
                                                  "0.8:0, 1.2:0"))
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, data = read_csv(str(out))
    assert header == TRAJECTORY_HEADER
    assert np.all(data[:, 1] == 0.6)
    assert np.all(data[:, 2] == 0.25) and np.all(data[:, 3] == 0.1)
    assert np.all(data[:, 6] == 0.4)


def test_evolve_summary_sidecar(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL_CFG)
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = read_summary(str(out) + ".summary")
    assert summary["command"] == "evolve"
    assert summary["integrator"] == "rk4"
    assert float(summary["max_trace_err"]) <= 1e-9
    assert float(summary["max_herm_err"]) <= 1e-9
    assert 0.0 < float(summary["coherence_decay_factor"]) < 1.0
    assert abs(float(summary["final_rho00"]) + float(summary["final_rho11"]) - 1.0) <= 1e-9


def test_evolve_summary_adds_the_estimate_only_for_automatic_substeps(tmp_path):
    auto_cfg = write_cfg(tmp_path, THERMAL_CFG.replace("rk4_substeps = 40\n", ""), "auto.cfg")
    auto = tmp_path / "auto.csv"
    assert main(["evolve", "--config", auto_cfg, "--out", str(auto)]) == EXIT_OK
    auto_lines = Path(str(auto) + ".summary").read_text().splitlines()
    assert [line.split(" = ")[0] for line in auto_lines[-3:]] == \
        ["integrator", "substeps", "error_estimate"]
    assert 0.0 <= float(auto_lines[-1].split(" = ")[1]) <= 1e-12
    # the same count, fixed: the same trajectory bytes, and the sidecar
    # without the estimate line
    substeps = auto_lines[-2].split(" = ")[1]
    fixed_cfg = write_cfg(tmp_path, THERMAL_CFG.replace("rk4_substeps = 40",
                                                        f"rk4_substeps = {substeps}"),
                          "fixed.cfg")
    fixed = tmp_path / "fixed.csv"
    assert main(["evolve", "--config", fixed_cfg, "--out", str(fixed)]) == EXIT_OK
    assert fixed.read_bytes() == auto.read_bytes()
    assert Path(str(fixed) + ".summary").read_text().splitlines() == auto_lines[:-1]


def test_evolve_single_sample_writes_one_row_and_the_summary(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL_CFG.replace("samples = 33", "samples = 1"))
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header, data = read_csv(str(out))
    assert header == TRAJECTORY_HEADER
    assert data.shape == (1, len(TRAJECTORY_HEADER))
    summary = read_summary(str(out) + ".summary")
    assert summary["samples"] == "1"
    assert summary["substeps"] == "0"
    assert float(summary["min_eigenvalue"]) > 0.0


def test_evolve_vacuum_population_decay(tmp_path):
    from spinboson.config import load_config
    from spinboson.spin_boson import rate_functions

    cfg_path = write_cfg(tmp_path, VACUUM_CFG)
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    _, data = read_csv(str(out))
    rho00 = data[:, 1]
    assert np.all(np.diff(rho00) < 0)  # monotone decay toward the ground state
    cfg = load_config(cfg_path)
    rates = rate_functions(cfg.model())
    _, (integral,) = rates.sums(cfg.time_grid(), ("decay_integral",))
    closed = np.exp(-8.0 * integral)
    assert np.max(np.abs(rho00 - closed)) <= 1e-6


def test_exact_runs_and_matches_evolve_at_weak_coupling(tmp_path):
    cfg = write_cfg(tmp_path, COMPARE_CFG)
    me_out, ex_out = tmp_path / "me.csv", tmp_path / "ex.csv"
    assert main(["evolve", "--config", cfg, "--out", str(me_out)]) == EXIT_OK
    assert main(["exact", "--config", cfg, "--out", str(ex_out)]) == EXIT_OK
    _, me = read_csv(str(me_out))
    _, ex = read_csv(str(ex_out))
    assert np.max(np.abs(me[:, 1] - ex[:, 1])) <= 1e-3  # weak coupling, short time
    summary = read_summary(str(ex_out) + ".summary")
    assert summary["integrator"] == "exact-eig"
    # the run's own metadata closes the summary
    lines = Path(str(ex_out) + ".summary").read_text().splitlines()
    assert lines[-2:] == ["integrator = exact-eig", "n_max = 4"]


def test_exact_dimension_cap_exit(tmp_path):
    cfg = write_cfg(tmp_path, COMPARE_CFG.replace("modes = 1.0:0.05",
                                                  "modes = 1.0:0.05, 1.1:0.05, "
                                                  "1.2:0.05, 1.3:0.05, 1.4:0.05")
                    .replace("n_max = 4", "n_max = 9"))
    out = tmp_path / "ex.csv"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME


# -- compare ----------------------------------------------------------------------

def test_compare_zero_coupling_all_distances_vanish(tmp_path):
    cfg = write_cfg(tmp_path, COMPARE_CFG.replace("modes = 1.0:0.05", "modes = 1.0:0"))
    out = tmp_path / "report.txt"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert "overall = pass" in text
    assert "below-noise-floor" in text
    for line in text.splitlines():
        if line and line[0].isdigit() and "," in line:
            # distances vanish up to eigendecomposition rounding
            assert float(line.split(",")[1]) <= 1e-12


def test_compare_physical_model_reports_fourth_order_ratios(tmp_path):
    # the bath's odd moments vanish, so the measured ratios sit near 16 and
    # the [6, 10] window check fails by design of the window
    cfg = write_cfg(tmp_path, COMPARE_CFG)
    out = tmp_path / "report.txt"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_CHECK
    text = out.read_text(encoding="utf-8")
    assert "overall = fail" in text
    ratios = [float(line.split(" = ")[1]) for line in text.splitlines()
              if line.startswith("ratio_") and "pass" not in line and "fail" not in line
              and "below" not in line]
    assert len(ratios) == 2
    for ratio in ratios:
        assert 12.0 <= ratio <= 20.0


def test_compare_report_row_count_matches_grid(tmp_path):
    cfg = write_cfg(tmp_path, COMPARE_CFG)
    out = tmp_path / "report.txt"
    main(["compare", "--config", cfg, "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    start = lines.index("[distances]") + 2
    end = lines.index("[scaling]")
    assert end - start == 9  # one row per grid point


def test_compare_requires_oracle_enabled(tmp_path):
    cfg = write_cfg(tmp_path, COMPARE_CFG.replace("oracle_enabled = true",
                                                  "oracle_enabled = false"))
    out = tmp_path / "report.txt"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG


# -- limits -----------------------------------------------------------------------

def test_limits_vacuum_config(tmp_path):
    cfg = write_cfg(tmp_path, VACUUM_CFG)
    out = tmp_path / "limits.txt"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert "[vacuum]\nstatus = pass" in text
    assert "max_abs_absorption_rate = 0" in text
    assert "[zero_temperature]\nstatus = pass" in text
    assert "[high_temperature]\nstatus = skipped" in text


def test_limits_vacuum_check_fails_on_perturbed_bath(tmp_path, monkeypatch):
    # a bath whose integrated correlations are off by 1e-6 relative no longer
    # matches the vacuum single-dissipator form within the 1e-8 threshold
    import spinboson.cli as cli
    from spinboson.spin_boson import bath_statistics

    def perturbed(model):
        bath = bath_statistics(model)
        integrals = lambda steps, offsets: lambda origins: tuple(
            (1 + 1e-6) * f for f in bath.integrals(steps, offsets)(origins))
        return dataclasses.replace(bath, integrals=integrals)

    monkeypatch.setattr(cli, "bath_statistics", perturbed)
    cfg = write_cfg(tmp_path, VACUUM_CFG)
    out = tmp_path / "limits.txt"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == EXIT_CHECK
    text = out.read_text(encoding="utf-8")
    assert "[vacuum]\nstatus = fail" in text


def test_limits_high_temperature_config(tmp_path):
    cfg = write_cfg(tmp_path, HIGH_T_CFG)
    out = tmp_path / "limits.txt"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert "[high_temperature]\nstatus = pass" in text
    summary = dict(line.split(" = ") for line in text.splitlines()
                   if " = " in line and not line.startswith("["))
    assert abs(float(summary["final_rho00"]) - 0.5) <= 1e-3


def test_limits_markov_config(tmp_path):
    cfg = write_cfg(tmp_path, MARKOV_CFG)
    out = tmp_path / "limits.txt"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert "[markov_plateau]\nstatus = pass" in text


def test_limits_markov_plateau_reads_the_rate_functions_sums(tmp_path):
    # the plateau check slices the emission decay from RateFunctions.sums on
    # the whole grid, the call the rates verb writes its CSV from
    from spinboson.config import load_config
    from spinboson.spin_boson import markov_rates

    cfg_path = write_cfg(tmp_path, MARKOV_CFG.replace("beta = 1.0", "beta = 2.0"))
    out = tmp_path / "limits.txt"
    assert main(["limits", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    report = dict(line.split(" = ") for line in out.read_text(encoding="utf-8").splitlines()
                  if " = " in line)
    assert main(["rates", "--config", cfg_path, "--out", str(tmp_path / "rates.csv")]) == EXIT_OK
    header, data = read_csv(str(tmp_path / "rates.csv"))
    resolved = data[3 * (len(data) - 1) // 4:, header.index("D_Rp")]
    cfg = load_config(cfg_path)
    _, plateau = markov_rates(cfg.discretization(), cfg.model())
    deviation = float(np.max(np.abs(resolved - plateau))) / plateau
    assert float(report["max_relative_deviation"]) == deviation


OHMIC_VACUUM_CFG = MARKOV_CFG.replace("beta = 1.0", "beta = vacuum").replace(
    "samples = 101", "samples = 11\nrk4_substeps = 128")


@pytest.mark.parametrize("text, calls", [(OHMIC_VACUUM_CFG, 1), (THERMAL_CFG, 0)],
                         ids=["ohmic_vacuum", "explicit_thermal"])
def test_limit_checks_evaluate_the_rates_at_most_once(tmp_path, monkeypatch, text, calls):
    # every check that reads rates slices one RateFunctions.sums(grid); the
    # vacuum check's independent assembly (vacuum_rhs) makes its own call
    # from spin_boson, which is not counted.  With every such check skipped
    # (beta = 1, explicit modes) there is no call at all.
    from spinboson.spin_boson import RateFunctions

    made = []
    sums = RateFunctions.sums

    def counted(self, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == cli.__name__:
            made.append(args)
        return sums(self, *args, **kwargs)

    monkeypatch.setattr(RateFunctions, "sums", counted)
    cfg = write_cfg(tmp_path, text)
    assert main(["limits", "--config", cfg, "--out", str(tmp_path / "limits.txt")]) == EXIT_OK
    assert len(made) == calls


def test_limits_failing_check_exits_nonzero(tmp_path):
    # a vacuum grid far too short for relaxation: zero_temperature fails
    cfg = write_cfg(tmp_path, VACUUM_CFG.replace("t_max = 14.0", "t_max = 1.0"))
    out = tmp_path / "limits.txt"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == EXIT_CHECK
    text = out.read_text(encoding="utf-8")
    assert "[zero_temperature]\nstatus = fail" in text


# -- plumbing ----------------------------------------------------------------------

def test_csv_round_trip_bit_exact(tmp_path):
    from spinboson.config import load_config
    from spinboson.master_eq import propagate
    from spinboson.spin_boson import bath_statistics, interaction_decomposition

    cfg_path = write_cfg(tmp_path, THERMAL_CFG)
    out = tmp_path / "traj.csv"
    main(["evolve", "--config", cfg_path, "--out", str(out)])
    cfg = load_config(cfg_path)
    model = cfg.model()
    traj = propagate(interaction_decomposition(model), bath_statistics(model),
                     cfg.initial_state(), cfg.time_grid(),
                     substeps=cfg.rk4_substeps)
    _, data = read_csv(str(out))
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1], traj.states[:, 0, 0].real)
    assert np.array_equal(data[:, 2], traj.states[:, 0, 1].real)
    assert np.array_equal(data[:, 3], traj.states[:, 0, 1].imag)
    assert np.array_equal(data[:, 6], traj.states[:, 1, 1].real)


def test_outputs_are_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL_CFG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["evolve", "--config", cfg, "--out", str(out1)])
    main(["evolve", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.summary").read_bytes() == \
        (tmp_path / "b.csv.summary").read_bytes()


def test_config_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL_CFG + "typo_key = 1\n")
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_missing_output_path_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL_CFG)
    assert main(["rates", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("target", ["", "missing/rates.csv"], ids=["directory", "missing_dir"])
@pytest.mark.parametrize("verb", ["rates", "evolve"])
def test_unwritable_output_is_an_output_error(tmp_path, capsys, target, verb):
    cfg = write_cfg(tmp_path, THERMAL_CFG)
    out = str(tmp_path / target)
    assert main([verb, "--config", cfg, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and out.rstrip("/") in err
    assert "Traceback" not in err


def test_output_path_from_config(tmp_path):
    target = tmp_path / "from_config.csv"
    cfg = write_cfg(tmp_path, THERMAL_CFG + f"output_path = {target}\n")
    assert main(["rates", "--config", cfg]) == EXIT_OK
    assert target.exists()


def test_version_and_usage_exits():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_CONFIG


def test_help_lists_all_verbs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for verb in ("rates", "evolve", "exact", "compare", "limits"):
        assert verb in out


def test_help_pairs_every_verb_with_its_description(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for verb, (_, description) in cli._COMMANDS.items():
        assert any(line.split() == [verb] + description.split() for line in lines), verb


def test_usage_errors_exit_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, THERMAL_CFG)
    for argv in ([], ["rates"], ["frobnicate", "--config", cfg],
                 ["rates", "--config", cfg, "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG, argv
        assert "error:" in capsys.readouterr().err


def test_options_may_precede_the_verb(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL_CFG)
    first, last = tmp_path / "first.csv", tmp_path / "last.csv"
    assert main(["--config", cfg, "rates", "--out", str(first)]) == EXIT_OK
    assert main(["rates", "--config", cfg, "--out", str(last)]) == EXIT_OK
    assert first.read_bytes() == last.read_bytes()


@pytest.mark.parametrize("verb", ["rates", "limits"])
def test_each_main_call_builds_one_parser_and_one_model(tmp_path, monkeypatch, verb):
    # the discretized model is sampled once per call (not again in the verb),
    # and nothing is reused between calls
    from spinboson.spin_boson import SpectralDiscretization

    calls = {"parser": 0, "modes": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "_build_parser", counted("parser", cli._build_parser))
    monkeypatch.setattr(SpectralDiscretization, "modes",
                        counted("modes", SpectralDiscretization.modes))
    cfg = write_cfg(tmp_path, MARKOV_CFG)
    for n in (1, 2):
        assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls == {"parser": n, "modes": n}


HOT_CFG = """\
omega0 = 1.0
beta = 0.01
modes = 0.8:0.1, 1.2:0.07
t_max = 10.0
samples = 101
rk4_substeps = 60
rho00 = 0.7
rho01 = 0.25+0.1j
oracle_enabled = true
n_max = 4
"""


@pytest.mark.parametrize("verb", ["exact", "compare"])
def test_truncation_check_aborts_on_a_hot_bath(tmp_path, capsys, verb):
    # at beta = 0.01 the default cutoff is far from converged: doubling n_max
    # moves the trajectory by about 8e-2, which only the opt-in check reports
    # unchecked, compare fails its [6, 10] window as on every physical config
    unchecked = {"exact": EXIT_OK, "compare": EXIT_CHECK}[verb]
    out = str(tmp_path / "out")
    off = write_cfg(tmp_path, HOT_CFG, "off.cfg")
    assert main([verb, "--config", off, "--out", out]) == unchecked
    on = write_cfg(tmp_path, HOT_CFG + "check_truncation = true\n", "on.cfg")
    assert main([verb, "--config", on, "--out", out]) == EXIT_RUNTIME
    assert "runtime abort: truncation not converged" in capsys.readouterr().err


def test_non_finite_step_doubling_estimate_exits_runtime(tmp_path, capsys, monkeypatch):
    from spinboson.master_eq import StepDoublingError

    def failing(*args, **kwargs):
        raise StepDoublingError(4, math.nan)

    monkeypatch.setattr(cli, "propagate", failing)
    cfg = write_cfg(tmp_path, THERMAL_CFG.replace("rk4_substeps = 40\n", ""))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert "runtime abort: step-doubling error estimate is nan" in capsys.readouterr().err


def test_truncation_check_names_itself_when_the_doubled_cutoff_is_too_large(tmp_path, capsys):
    # 4 modes at n_max = 4 fit the cap (dimension 1250); the rerun at n_max = 8
    # (dimension 13122) does not, which is reported before the first run
    text = HOT_CFG.replace("beta = 0.01", "beta = 1.0").replace(
        "modes = 0.8:0.1, 1.2:0.07", "modes = 0.9:0.05, 1.0:0.05, 1.1:0.05, 1.2:0.05")
    cfg = write_cfg(tmp_path, text + "check_truncation = true\n")
    assert main(["exact", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime abort: check_truncation reruns at twice n_max" in err
    assert "2*(8+1)^4 = 13122" in err


@pytest.mark.parametrize("check, passes", [("false", 1), ("true", 2)])
def test_compare_builds_the_sectors_once_per_pass(tmp_path, monkeypatch, check, passes):
    # all three coupling scales come from one sector pass; check_truncation
    # adds the pass at twice n_max
    import spinboson.oracle as oracle

    built = []
    sectors = oracle._sector_hamiltonians

    def counted(model, bath):
        built.append(bath.n_max)
        return sectors(model, bath)

    monkeypatch.setattr(oracle, "_sector_hamiltonians", counted)
    cfg = write_cfg(tmp_path, COMPARE_CFG + f"check_truncation = {check}\n")
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CHECK
    assert built == [4, 8][:passes]


def test_compare_evaluates_the_bath_once_per_batch(tmp_path, monkeypatch):
    # all three coupling scales share one bath and each batch's coefficients:
    # 8 intervals at 40 substeps are batches of 6 and 2 intervals
    from spinboson.spin_boson import bath_statistics

    baths, batches = [], []

    def counted(model):
        bath = bath_statistics(model)
        baths.append(model)

        def integrals(steps, offsets):
            evaluate = bath.integrals(steps, offsets)

            def at(origins):
                batches.append(len(origins))
                return evaluate(origins)

            return at

        return dataclasses.replace(bath, integrals=integrals)

    monkeypatch.setattr(cli, "bath_statistics", counted)
    cfg = write_cfg(tmp_path, COMPARE_CFG)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CHECK
    assert len(baths) == 1
    assert batches == [6, 2]


def test_vacuum_limits_build_the_rate_functions_once(tmp_path, monkeypatch):
    from spinboson.spin_boson import RateFunctions

    built = []
    post_init = RateFunctions.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RateFunctions, "__post_init__", counted)
    cfg = write_cfg(tmp_path, VACUUM_CFG)
    for n in (1, 2):
        assert main(["limits", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(built) == n


# Run in a fresh interpreter: the CLI path loads no scipy module, and
# dyson_terms, the one function that needs scipy, loads it when called.
IMPORT_PATH_SCRIPT = """\
import math, sys
import numpy as np
import spinboson, spinboson.cli
assert spinboson.cli.main(["rates", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
from spinboson import SpinBosonModel, TruncatedBath, dyson_terms
model = SpinBosonModel(1.0, [(1.1, 0.05)], math.inf)
_, u1, u2 = dyson_terms(model, TruncatedBath(model, n_max=1), 0.7)
assert np.max(np.abs(u1)) > 1e-3
assert np.max(np.abs(u2 + u2.conj().T + u1 @ u1.conj().T)) <= 1e-13
"""


def test_cli_import_path_loads_no_scipy(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL_CFG)
    src = str(Path(spinboson.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PATH_SCRIPT, cfg,
                           str(tmp_path / "rates.csv")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", ["spinboson"] + sorted(
    "spinboson." + info.name for info in pkgutil.iter_modules(spinboson.__path__)))
def test_every_exported_name_resolves(module):
    # a stale re-export left behind by a deletion fails here, not at the
    # first `from spinboson import *` of a user
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
