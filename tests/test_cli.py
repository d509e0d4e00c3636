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
from spinboson.linalg import MAX_PHASE
from spinboson.oracle import phase_rate
from spinboson.spin_boson import SpinBosonModel, rate_functions

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


def _subprocess_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(spinboson.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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


@pytest.mark.parametrize("samples", [11, 29])
def test_rates_csv_columns_equal_the_one_part_calls(tmp_path, samples):
    # every column of the CSV, bit for bit, is its part asked for alone, as
    # the closed forms ask for it; on a vacuum bath too, where one channel
    # carries weight and a part's product over the modes is one column wide
    from spinboson.config import load_config
    from spinboson.spin_boson import rate_functions

    cfg_path = write_cfg(tmp_path, VACUUM_CFG.replace(
        "modes = 1.0:0.1", "modes = 0.8:0.1, 1.0:0.05, 1.4:0.06").replace(
        "samples = 57", f"samples = {samples}"))
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    header, data = read_csv(str(out))
    cfg = load_config(cfg_path)
    grid = cfg.time_grid()
    assert np.array_equal(data[:, 0], grid)
    rates = rate_functions(cfg.model())
    # a trailing p marks the emission channel
    parts = {"D_R": "decay", "D_I": "shift", "int_D_R": "decay_integral",
             "int_D_I": "shift_integral"}
    for column, name in zip(data.T[1:], header[1:]):
        (absorption,), (emission,) = rates.sums(grid, (parts[name.rstrip("p")],))
        assert np.array_equal(column, emission if name.endswith("p") else absorption), name


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


@pytest.mark.parametrize("verb", ["exact", "compare"])
def test_the_exact_reference_needs_the_config_to_state_its_cutoff(tmp_path, capsys, verb):
    # the Fock cutoff has no default: the verbs that run the exact reference
    # refuse a config without n_max, before any file is opened
    cfg = write_cfg(tmp_path, COMPARE_CFG.replace("n_max = 4\n", ""))
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {verb} needs n_max, the exact reference's Fock cutoff\n")
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_exact_on_the_ohmic_400_config_needs_a_cutoff_and_then_meets_the_cap(tmp_path, capsys):
    text = (Path(__file__).parent / "golden" / "ohmic_400.cfg").read_text()
    out = tmp_path / "out"
    assert main(["exact", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    assert "exact needs n_max" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, text + "n_max = 4\n")
    assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    assert "exceeds the cap of 8192" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["rates", "evolve", "limits"])
def test_the_ohmic_400_config_runs_in_a_cold_bath(tmp_path, capsys, verb):
    # at beta = 100 the band's top modes have beta omega up to 1000, past
    # where 1 / expm1 overflows
    text = (Path(__file__).parent / "golden" / "ohmic_400.cfg").read_text()
    cfg = write_cfg(tmp_path, text.replace("beta = vacuum", "beta = 100"))
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    if verb == "limits":
        assert "[markov_plateau]\nstatus = pass" in out.read_text(encoding="utf-8")


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
        integrals = lambda steps, offsets: lambda origins: (
            (1 + 1e-6) * bath.integrals(steps, offsets)(origins))
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


def test_flat_density_runs_rates_and_limits(tmp_path):
    # a vacuum flat band, J = eta: the plateau is pi eta (n(omega0) + 1), n = 0
    cfg = write_cfg(tmp_path, OHMIC_VACUUM_CFG.replace("density = ohmic", "density = flat")
                    .replace("omega_c = 5.0\n", ""))
    assert main(["rates", "--config", cfg, "--out", str(tmp_path / "rates.csv")]) == EXIT_OK
    out = tmp_path / "limits.txt"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = dict(line.split(" = ") for line in out.read_text(encoding="utf-8").splitlines()
                  if " = " in line)
    assert float(report["expected_plateau"]) == math.pi * 0.01 == 0.031415926535897934


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


@pytest.mark.parametrize("verb", ["rates", "evolve", "exact", "compare", "limits"])
def test_a_beta_whose_occupation_overflows_is_a_config_error(tmp_path, capsys, verb):
    # 1 / expm1(beta omega) overflows though expm1 is finite: rates stopped
    # on a nan D_R, evolve and limits on a nan trace, and exact exited 0
    cfg = write_cfg(tmp_path, THERMAL_CFG.replace("beta = 1.0", "beta = 1e-320") + "n_max = 4\n")
    out = tmp_path / "out.csv"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: beta = 1e-320 is too small") and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink", "hardlink"])
def test_an_output_over_the_config_is_refused(tmp_path, capsys, spelling):
    # the files are compared, not the names: "..", "." and links all lead to the config
    cfg = write_cfg(tmp_path, THERMAL_CFG)
    (tmp_path / "sub").mkdir()
    out = {"same": cfg, "dotted": str(tmp_path / "sub" / ".." / "." / "run.cfg"),
           "symlink": str(tmp_path / "link.cfg"), "hardlink": str(tmp_path / "hard.cfg")}[spelling]
    if spelling in ("symlink", "hardlink"):
        (os.symlink if spelling == "symlink" else os.link)(cfg, out)
    assert main(["rates", "--config", cfg, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"output error: {out} is the config file {cfg}; nothing written\n"
    assert Path(cfg).read_text() == THERMAL_CFG


@pytest.mark.parametrize("verb", ["evolve", "exact"])
def test_a_summary_sidecar_over_the_config_is_refused(tmp_path, capsys, verb):
    cfg = write_cfg(tmp_path, THERMAL_CFG, name="traj.csv.summary")
    out = tmp_path / "traj.csv"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"output error: {out}.summary is the config file")
    assert Path(cfg).read_text() == THERMAL_CFG
    assert not out.exists()  # refused before any file is opened


@pytest.mark.parametrize("verb", list(cli._COMMANDS))
def test_each_verb_opens_the_files_the_refusal_checks(tmp_path, monkeypatch, verb):
    # the refusal checks _outputs(verb, out) before the run, and each writer
    # opens its own path: they must name the same files, each opened once,
    # as UTF-8 with "\n" line ends
    import builtins

    opened, real_open = [], builtins.open

    def spy(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            opened.append((file, mode, kwargs.get("encoding"), kwargs.get("newline")))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    cfg = write_cfg(tmp_path, COMPARE_CFG)
    out = str(tmp_path / "out")
    assert main([verb, "--config", cfg, "--out", out]) in (EXIT_OK, EXIT_CHECK)
    assert opened == [(path, "w", "utf-8", "\n") for path in cli._outputs(verb, out)]


@pytest.mark.parametrize("verb", ["compare", "limits"])
def test_an_output_path_key_naming_the_config_is_refused(tmp_path, capsys, monkeypatch, verb):
    text = COMPARE_CFG + "output_path = run.cfg\n"
    cfg = write_cfg(tmp_path, text)
    monkeypatch.chdir(tmp_path)
    assert main([verb, "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("output error: run.cfg is the config file")
    assert Path(cfg).read_text() == text


@pytest.mark.parametrize("verb", ["rates", "evolve", "exact", "compare", "limits"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, verb):
    # a 0xff byte in the value of beta: the message names the file and the
    # byte, where it used to end in a UnicodeDecodeError traceback
    cfg = tmp_path / "run.cfg"
    data = COMPARE_CFG.replace("beta = vacuum", "beta = \xff").encode("latin-1")
    cfg.write_bytes(data)
    out = tmp_path / "out"
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: cannot read config {str(cfg)!r}: not "
                                       f"UTF-8 at byte offset {data.index(0xff)} "
                                       f"(invalid start byte)\n")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["rates", "evolve", "exact", "compare", "limits"])
def test_a_grid_that_repeats_a_time_is_a_config_error(tmp_path, capsys, verb):
    # at t_max = 5e-324, the smallest subnormal, the middle of three samples
    # rounds onto an end: evolve and exact used to abort with a traceback,
    # and rates and limits wrote a grid with a repeated time
    cfg = write_cfg(tmp_path, COMPARE_CFG.replace("t_max = 2.0", "t_max = 5e-324")
                    .replace("samples = 9", "samples = 3"))
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: lines 4 and 5: fields 't_max' and "
                                       "'samples': times must be strictly increasing\n")
    assert not out.exists()


@pytest.mark.parametrize("mode_count, code", [(40, EXIT_CONFIG), (100, EXIT_OK), (400, EXIT_OK)])
def test_a_run_past_the_recurrence_time_is_a_config_error(tmp_path, capsys, mode_count, code):
    # 40 modes on [0.01, 10] repeat every 2 pi / delta_omega = 25.16, and
    # evolve used to write rho00(50) = 0.3855 with exit 0 where the
    # continuum gives 1.8e-5; 100 and 400 modes recur at 62.9 and 251.6
    cfg = write_cfg(tmp_path, OHMIC_VACUUM_CFG.replace("mode_count = 400",
                                                       f"mode_count = {mode_count}"))
    out = tmp_path / "out.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == code
    if code == EXIT_CONFIG:
        assert capsys.readouterr().err == (
            "config error: lines 8 and 9: fields 'mode_count' and 't_max': t_max = 50 reaches "
            "the recurrence time 2 pi / delta_omega = 25.1579 of 40 modes, past which the "
            "discretized bath revives; raise mode_count or lower t_max\n")
        assert not out.exists()


def _phase_error(t_max: float, rate: float) -> str:
    """The config error of a t_max on line 4 past the phase rule at ``rate``."""
    return (f"config error: line 4: field 't_max': time {t_max:g} at rate {rate:g} makes a "
            f"phase of {t_max * rate:g} rad, past MAX_PHASE = {MAX_PHASE:g}\n")


@pytest.mark.parametrize("verb", ["rates", "evolve", "exact"])
def test_phase_beyond_the_bound_is_a_config_error(tmp_path, capsys, verb):
    # at t_max = 1e308 the phases carry no digits: the rates overflow to
    # infinities and the trajectories to NaN, so the parse refuses it at
    # the master equation's rate, max |d_k| = 0.2
    cfg = write_cfg(tmp_path, THERMAL_CFG.replace("t_max = 4.0", "t_max = 1e308"))
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    rate = rate_functions(SpinBosonModel(1.0, [(0.8, 0.1), (1.2, 0.07)], 1.0)).phase_rate
    assert capsys.readouterr().err == _phase_error(1e308, rate)
    assert not out.exists()


@pytest.mark.parametrize("verb", ["rates", "exact"])
@pytest.mark.parametrize("g", ["1e200", "1e9"])
def test_coupling_beyond_the_phase_bound_is_a_config_error(tmp_path, capsys, verb, g):
    # the energies of the exact reference grow with the coupling: at g =
    # 1e200 its phases carry no digits and the rates are NaN, and at g = 1e9
    # the reference's rate, oracle.phase_rate at n_max = 4, is about 4e9
    text = (COMPARE_CFG.replace("modes = 1.0:0.05", f"modes = 1.2:{g}")
            .replace("beta = vacuum", "beta = 1.0")
            .replace("t_max = 2.0", "t_max = 1.0").replace("samples = 9", "samples = 3"))
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    model = SpinBosonModel(1.0, [(1.2, float(g))], 1.0)
    assert capsys.readouterr().err == _phase_error(1.0, phase_rate(model, 4))
    assert not out.exists()


def test_a_stage_lattice_past_the_grid_is_within_the_phase_rule(tmp_path, capsys):
    # 4.9e8 at the kernel rate 0.2 parses; one RK4 substep per interval then
    # ends in trace drift, where the bath used to check origin + step +
    # offset, 7.35e8, a time no phase is formed of, and end in a traceback
    cfg = write_cfg(tmp_path, THERMAL_CFG.replace("t_max = 4.0", "t_max = 4.9e8")
                    .replace("samples = 33", "samples = 2")
                    .replace("rk4_substeps = 40", "rk4_substeps = 1"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("runtime abort: trace drifted") and "Traceback" not in err


def test_non_finite_rate_is_a_runtime_abort(tmp_path, capsys, monkeypatch):
    # a NaN bound for the CSV is named with its column and time, and no
    # file is written
    from spinboson.spin_boson import RateFunctions

    sums = RateFunctions.sums

    def poisoned(self, t, parts):
        absorption, emission = sums(self, t, parts)
        shift_integral = absorption[3].copy()
        shift_integral[2] = math.nan
        return absorption[:3] + (shift_integral,), emission

    monkeypatch.setattr(RateFunctions, "sums", poisoned)
    cfg = write_cfg(tmp_path, THERMAL_CFG)
    out = tmp_path / "rates.csv"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "runtime abort: int_D_I is nan at t = 0.25; no CSV written\n")
    assert not out.exists()


def test_overflowing_coupling_is_a_runtime_abort(tmp_path):
    # g = 1e200 squares to infinity, which makes the rates NaN; t_max =
    # 1e-200 keeps the coupling's phase under the config's bound.  Run in a
    # fresh interpreter: the suite turns the overflow's RuntimeWarning into
    # an error
    cfg = write_cfg(tmp_path, THERMAL_CFG.replace("0.8:0.1, 1.2:0.07", "0.8:1e200")
                    .replace("t_max = 4.0", "t_max = 1e-200"))
    out = tmp_path / "rates.csv"
    done = subprocess.run([sys.executable, "-m", "spinboson", "rates", "--config", cfg,
                           "--out", str(out)],
                          capture_output=True, text=True, env=_subprocess_env(), cwd=tmp_path)
    assert done.returncode == EXIT_RUNTIME
    assert done.stderr.endswith("runtime abort: D_R is nan at t = 0; no CSV written\n")
    assert not out.exists()


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


@pytest.mark.parametrize("check", ["false", "true"])
def test_the_summary_reports_the_truncation_shift_it_measured(tmp_path, check):
    # at beta = 6 the README modes converge at n_max = 4, and check_truncation
    # reports how far doubling the cutoff moved the sampled elements
    from spinboson.config import load_config
    from spinboson.oracle import TruncatedBath, exact_reduced_dynamics

    text = (THERMAL_CFG.replace("beta = 1.0", "beta = 6.0")
            + f"n_max = 4\ncheck_truncation = {check}\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_OK
    run = load_config(cfg)
    metadata = exact_reduced_dynamics(TruncatedBath(run.model(), n_max=4), run.initial_state(),
                                      run.time_grid(), check_truncation=check == "true").metadata
    expected = ["n_max = 4"]
    if check == "true":
        assert 0 < metadata["truncation_shift"] <= 1e-6
        expected.append(f"truncation_shift = {metadata['truncation_shift']:.17g}")
    assert (tmp_path / "exact.csv.summary").read_text().splitlines()[-len(expected):] == expected


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

    def counted(bath):
        built.append(bath.n_max)
        return sectors(bath)

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
# Nor does it load a thread-pool module or start a thread: the exact
# solver starts a worker thread only for a pass of more than one bucket,
# and this config's pass has one.  The verbs load no module beyond
# the import's, but for the locale that opening a text file may load.
IMPORT_PATH_SCRIPT = """\
import math, sys, threading
import numpy as np
import spinboson, spinboson.cli
imported = set(sys.modules)
assert spinboson.cli.main(["rates", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
assert threading.active_count() == 1, threading.enumerate()
assert spinboson.cli.main(["exact", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert threading.active_count() == 1, threading.enumerate()
loaded = sorted(set(sys.modules) - imported - {"locale", "_locale"})
assert not loaded, loaded
pools = ("concurrent", "queue", "multiprocessing", "asyncio")
loaded = sorted(name for name in sys.modules if name.split(".")[0] in pools)
assert not loaded, loaded
from spinboson import SpinBosonModel, TruncatedBath, dyson_terms
model = SpinBosonModel(1.0, [(1.1, 0.05)], math.inf)
_, u1, u2 = dyson_terms(TruncatedBath(model, n_max=1), 0.7)
assert np.max(np.abs(u1)) > 1e-3
assert np.max(np.abs(u2 + u2.conj().T + u1 @ u1.conj().T)) <= 1e-13
"""


def test_cli_import_path_loads_no_scipy(tmp_path):
    cfg = write_cfg(tmp_path, THERMAL_CFG + "n_max = 4\n")
    done = subprocess.run([sys.executable, "-c", IMPORT_PATH_SCRIPT, cfg,
                           str(tmp_path / "rates.csv")],
                          capture_output=True, text=True, env=_subprocess_env(), cwd=tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", ["spinboson"] + sorted(
    "spinboson." + info.name for info in pkgutil.iter_modules(spinboson.__path__)))
def test_every_exported_name_resolves(module):
    # a stale re-export left behind by a deletion fails here, not at the
    # first `from spinboson import *` of a user
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
