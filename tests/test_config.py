import math
import re
from pathlib import Path

import numpy as np
import pytest

from spinboson.config import ConfigError, load_config, parse_config_text
from spinboson.linalg import MAX_PHASE
from spinboson.oracle import phase_rate
from spinboson.spin_boson import rate_functions

GOOD = """\
# explicit three-mode thermal model
omega0 = 1.0
beta = 1.0
modes = 0.8:0.1, 1.0:0.08, 1.3:0.06
t_max = 5.0
samples = 51
rho00 = 0.7
rho01 = 0.2+0.1j
output_path = out.csv
"""

GOOD_DISC = """\
omega0 = 1.0
beta = vacuum
density = ohmic
eta = 0.01
omega_c = 5.0
omega_min = 0.01
omega_max = 10.0
mode_count = 50
t_max = 2.0
samples = 21
rho00 = 1.0
rho01 = 0
"""


def test_parse_explicit_modes():
    cfg = parse_config_text(GOOD)
    assert cfg.modes == ((0.8, 0.1), (1.0, 0.08), (1.3, 0.06))
    assert cfg.beta == 1.0
    assert cfg.rho01 == 0.2 + 0.1j
    assert cfg.oracle_enabled is False and cfg.n_max is None
    # the defaults of the other optional keys
    assert cfg.check_truncation is False and cfg.rk4_substeps is None
    assert (cfg.density, cfg.eta, cfg.omega_c, cfg.omega_min, cfg.omega_max,
            cfg.mode_count) == (None,) * 6
    assert cfg.output_path == "out.csv"
    assert parse_config_text(GOOD.replace("output_path = out.csv\n", "")).output_path is None
    model = cfg.model()
    assert len(model.modes) == 3
    grid = cfg.time_grid()
    assert grid[0] == 0.0 and grid[-1] == 5.0 and len(grid) == 51
    rho = cfg.initial_state()
    assert rho[0, 0] == 0.7 and rho[1, 0] == np.conj(rho[0, 1])


def test_parse_discretization_and_vacuum_literal():
    cfg = parse_config_text(GOOD_DISC)
    assert cfg.beta == math.inf
    model = cfg.model()
    assert len(model.modes) == 50
    assert model.vacuum


def test_unknown_key_reports_line():
    bad = GOOD.replace("rho00 = 0.7", "rho_00 = 0.7")
    with pytest.raises(ConfigError, match=r"line 7: unknown key 'rho_00'"):
        parse_config_text(bad)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'omega0'"):
        parse_config_text(GOOD + "omega0 = 2.0\n")


def test_field_error_reports_line_and_field():
    bad = GOOD.replace("beta = 1.0", "beta = chilly")
    with pytest.raises(ConfigError, match=r"line 3: field 'beta'"):
        parse_config_text(bad)


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError, match="missing required keys"):
        parse_config_text("omega0 = 1.0\n")


def test_modes_and_discretization_are_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text(GOOD + "density = flat\neta = 0.1\n")


def test_incomplete_discretization_block():
    bad = GOOD_DISC.replace("mode_count = 50\n", "")
    with pytest.raises(ConfigError, match="missing mode_count"):
        parse_config_text(bad)


def test_ohmic_requires_cutoff():
    bad = GOOD_DISC.replace("omega_c = 5.0\n", "")
    with pytest.raises(ConfigError, match="omega_c"):
        parse_config_text(bad)


def test_flat_density_rejects_a_cutoff():
    # a flat band would ignore omega_c; a physics key must not fall back silently
    flat = GOOD_DISC.replace("density = ohmic", "density = flat")
    with pytest.raises(ConfigError, match=r"^line 5: field 'omega_c': only density = ohmic"):
        parse_config_text(flat)
    assert parse_config_text(flat.replace("omega_c = 5.0\n", "")).omega_c is None


def test_initial_state_positivity():
    bad = GOOD.replace("rho01 = 0.2+0.1j", "rho01 = 0.9")
    with pytest.raises(ConfigError, match="positive semidefinite"):
        parse_config_text(bad)
    with pytest.raises(ConfigError, match="rho00"):
        parse_config_text(GOOD.replace("rho00 = 0.7", "rho00 = 1.4"))
    # complex() reads "nan"; a NaN entry fails the Hermitian check
    with pytest.raises(ConfigError, match="rho01"):
        parse_config_text(GOOD.replace("rho01 = 0.2+0.1j", "rho01 = nan"))


@pytest.mark.parametrize("rho00, rho01", [("0.5", "0.5"), ("0.2", "0.24+0.32j"),
                                          ("0.3", repr(math.sqrt(0.21))), ("1.0", "0"),
                                          ("0.0", "0")])
def test_pure_initial_state_is_accepted(rho00, rho01):
    # |rho01|^2 = rho00 (1 - rho00): one eigenvalue is zero, up to rounding
    text = GOOD.replace("rho00 = 0.7", f"rho00 = {rho00}").replace("rho01 = 0.2+0.1j",
                                                                 f"rho01 = {rho01}")
    cfg = parse_config_text(text)
    assert cfg.rho00 == float(rho00) and cfg.rho01 == complex(rho01)


def test_bad_mode_syntax():
    with pytest.raises(ConfigError, match="omega:g"):
        parse_config_text(GOOD.replace("modes = 0.8:0.1, 1.0:0.08, 1.3:0.06",
                                       "modes = 0.8"))


def test_value_range_checks():
    with pytest.raises(ConfigError, match="samples"):
        parse_config_text(GOOD.replace("samples = 51", "samples = 0"))
    with pytest.raises(ConfigError, match="output_format"):
        parse_config_text(GOOD + "output_format = json\n")
    with pytest.raises(ConfigError, match="rk4_substeps"):
        parse_config_text(GOOD + "rk4_substeps = 0\n")
    with pytest.raises(ConfigError, match="t_max"):
        parse_config_text(GOOD.replace("t_max = 5.0", "t_max = -1.0"))


@pytest.mark.parametrize("text, match", [
    (GOOD.replace("omega0 = 1.0", "omega0 = inf"),
     r"^line 2: field 'omega0': expected a finite number, got 'inf'$"),
    (GOOD.replace("rho01 = 0.2+0.1j", "rho01 = 0.2+"),
     r"^line 8: field 'rho01': expected a complex literal like 0.3\+0.1j, got '0.2\+'$"),
    (GOOD_DISC.replace("density = ohmic", "density = gaussian"),
     r"^line 3: field 'density': expected ohmic or flat, got 'gaussian'$"),
    (GOOD.replace("samples = 51", "samples 51"),
     r"^line 6: expected 'key = value', got 'samples 51'$"),
    (GOOD.replace("samples = 51", "samples ="), r"^line 6: empty value for 'samples'$"),
    (GOOD.replace("modes = 0.8:0.1, 1.0:0.08, 1.3:0.06", "modes = , ,"),
     r"^line 4: field 'modes': mode list is empty$"),
    (GOOD.replace("samples = 51", "samples = 5.1"),
     r"^line 6: field 'samples': expected an integer, got '5.1'$"),
    (GOOD_DISC.replace("mode_count = 50", "mode_count = 0"),
     r"^line 8: field 'mode_count': the value must be a positive integer, got 0$"),
    (None, r"^cannot read config '.*': "),
    (Path, r"^cannot read config '[^']*': "),
], ids=["inf", "complex", "density", "no_equals", "empty_value", "empty_modes", "float_count",
        "zero_count", "unreadable_path", "unreadable_pathlib_path"])
def test_config_errors_name_what_is_wrong(tmp_path, text, match):
    # through load_config; None reads a directory, which no config can be,
    # and Path reads it as a pathlib.Path, which the message names as a str
    path = tmp_path
    if isinstance(text, str):
        path = tmp_path / "run.cfg"
        path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        load_config(path if text is Path else str(path))


def test_truncation_check_key():
    assert parse_config_text(GOOD).check_truncation is False
    assert parse_config_text(GOOD + "check_truncation = true\n").check_truncation is True
    with pytest.raises(ConfigError, match="field 'check_truncation'"):
        parse_config_text(GOOD + "check_truncation = maybe\n")
    with pytest.raises(ConfigError, match="unknown"):
        parse_config_text(GOOD + "truncation_bound = 1e-4\n")


def test_model_is_built_once_per_config():
    cfg = parse_config_text(GOOD_DISC)
    assert cfg.model() is cfg.model()


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\n\n" + GOOD + "\n   # trailing\n"
    cfg = parse_config_text(text)
    assert cfg.omega0 == 1.0


def _boundary(rate: float) -> float:
    """The largest t_max whose phase t_max x rate is within MAX_PHASE."""
    t_max = MAX_PHASE / rate
    while t_max * rate > MAX_PHASE:
        t_max = math.nextafter(t_max, 0.0)
    return t_max


def _phase_error(line: int, t_max: float, rate: float) -> str:
    return re.escape(f"line {line}: field 't_max': time {t_max:g} at rate {rate:g} makes a "
                     f"phase of {t_max * rate:g} rad, past MAX_PHASE = {MAX_PHASE:g}")


# A discretization's detunings cannot reach the bound before its recurrence
# time 2 pi M / (omega_max - omega_min), which the parser rejects first,
# unless it has about MAX_PHASE / 2 pi = 1.6e7 modes: the explicit modes
# alone can.
@pytest.mark.parametrize("text", [GOOD], ids=["explicit"])
def test_phase_bound_reads_the_largest_detuning(text):
    # without n_max, t_max times the master equation's rate,
    # RateFunctions.phase_rate = max |omega_k - omega0| (0.3 here): at the
    # bound the config parses, one ulp of t_max past it does not, and the
    # error names t_max and its line
    model = parse_config_text(text).model()
    rate = rate_functions(model).phase_rate
    assert rate == max(abs(w - model.omega0) for w in model.frequencies)
    line = [key.split()[0] for key in text.splitlines()].index("t_max") + 1
    t_max = _boundary(rate)
    under = re.sub(r"t_max = \S+", f"t_max = {t_max!r}", text)
    assert parse_config_text(under).t_max == t_max
    over = math.nextafter(t_max, math.inf)
    with pytest.raises(ConfigError, match=f"^{_phase_error(line, over, rate)}$"):
        parse_config_text(re.sub(r"t_max = \S+", f"t_max = {over!r}", text))
    # omega0 counts through the detunings: at 20 the largest is 19.2, at 21
    # it is 20.2
    slow = re.sub(r"t_max = \S+", "t_max = 5e6", text)
    assert parse_config_text(slow.replace("omega0 = 1.0", "omega0 = 20.0")).t_max == 5e6
    with pytest.raises(ConfigError, match="'t_max': time 5e\\+06 at rate 20.2 makes"):
        parse_config_text(slow.replace("omega0 = 1.0", "omega0 = 21.0"))


@pytest.mark.parametrize("n_max", [1, 4, 9])
def test_phase_bound_reads_the_couplings(n_max):
    # with n_max, also t_max times the exact reference's rate,
    # oracle.phase_rate = omega0 / 2 + n_max sum omega_k + 2 sqrt(n_max)
    # sum |g_k|, a bound of its energies: at the bound the config parses,
    # one ulp of t_max past it does not, and the error names t_max and its
    # line; a negative coupling counts by its size
    text = GOOD.replace("0.8:0.1, 1.0:0.08, 1.3:0.06", "0.8:1.0, 1.0:-0.8, 1.3:0.6")
    text += f"n_max = {n_max}\n"
    model = parse_config_text(text).model()
    rate = phase_rate(model, n_max)
    assert rate == pytest.approx(0.5 + 3.1 * n_max + 2.0 * math.sqrt(n_max) * 2.4, rel=1e-15)
    assert rate == phase_rate(model.scaled(-1.0), n_max)
    t_max = _boundary(rate)
    under = text.replace("t_max = 5.0", f"t_max = {t_max!r}")
    assert parse_config_text(under).t_max == t_max
    over = math.nextafter(t_max, math.inf)
    with pytest.raises(ConfigError, match=f"^{_phase_error(5, over, rate)}$"):
        parse_config_text(text.replace("t_max = 5.0", f"t_max = {over!r}"))
    # check_truncation reruns the reference at twice n_max, at that rate
    fine = phase_rate(model, 2 * n_max)
    with pytest.raises(ConfigError, match=f"^{_phase_error(5, t_max, fine)}$"):
        parse_config_text(under + "check_truncation = true\n")
    # a coupling whose phases carry no digits, of either sign
    for g in ("1e200", "-1e9"):
        with pytest.raises(ConfigError, match="^line 5: field 't_max': time 5 at rate "):
            parse_config_text(text.replace("1.3:0.6", f"1.3:{g}"))


def test_phase_bound_reads_the_couplings_only_with_a_cutoff():
    # the exact reference's rate bounds its energies at the config's n_max:
    # without one there is no reference to bound
    text = GOOD.replace("0.8:0.1, 1.0:0.08, 1.3:0.06", "0.8:1e9")
    assert parse_config_text(text).n_max is None
    with pytest.raises(ConfigError, match="makes a phase"):
        parse_config_text(text + "n_max = 1\n")
