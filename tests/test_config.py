import math
import re
from pathlib import Path

import numpy as np
import pytest

from spinboson.config import MAX_PHASE, ConfigError, load_config, parse_config_text

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
    assert cfg.oracle_enabled is False and cfg.n_max == 4
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


@pytest.mark.parametrize("text", [GOOD, GOOD_DISC], ids=["explicit", "discretized"])
def test_phase_bound_reads_the_largest_frequency(text):
    # t_max times the largest of omega0 and the mode frequencies (a mode's
    # here, the top midpoint for a discretization): at the bound the config
    # parses, one ulp of t_max past it does not, and the error names t_max
    # and its line.  n_max = 1 keeps the couplings' phase, which reads
    # 2 sqrt(n_max) sum |g_k| (10.7 for the discretization at the default
    # n_max = 4), below the frequencies' one
    text += "n_max = 1\n"
    frequency = float(parse_config_text(text).model().frequencies.max())
    line = [key.split()[0] for key in text.splitlines()].index("t_max") + 1
    t_max = MAX_PHASE / frequency
    while t_max * frequency > MAX_PHASE:
        t_max = math.nextafter(t_max, 0.0)
    under = re.sub(r"t_max = \S+", f"t_max = {t_max!r}", text)
    assert parse_config_text(under).t_max == t_max
    over = re.sub(r"t_max = \S+", f"t_max = {math.nextafter(t_max, math.inf)!r}", text)
    with pytest.raises(ConfigError, match=rf"^line {line}: field 't_max': t_max x max"):
        parse_config_text(over)
    # omega0 counts when it is the largest frequency
    slow = re.sub(r"t_max = \S+", f"t_max = {MAX_PHASE / 20.0!r}", text)
    assert parse_config_text(slow.replace("omega0 = 1.0", "omega0 = 20.0")).t_max == MAX_PHASE / 20
    with pytest.raises(ConfigError, match="'t_max'"):
        parse_config_text(slow.replace("omega0 = 1.0", "omega0 = 20.5"))


@pytest.mark.parametrize("n_max", [1, 4, 9])
def test_phase_bound_reads_the_couplings(n_max):
    # t_max times 2 sqrt(n_max) sum |g_k|, a bound of the couplings' share
    # of the exact reference's sector energies: at the bound the config
    # parses, one ulp of t_max past it does not, and the error names t_max
    # and its line; a negative coupling counts by its size
    coupling = 2.0 * math.sqrt(n_max) * (1.0 + 0.8 + 0.6)
    t_max = MAX_PHASE / coupling
    while t_max * coupling > MAX_PHASE:
        t_max = math.nextafter(t_max, 0.0)
    text = GOOD.replace("0.8:0.1, 1.0:0.08, 1.3:0.06", "0.8:1.0, 1.0:-0.8, 1.3:0.6")
    text += f"n_max = {n_max}\n"
    under = text.replace("t_max = 5.0", f"t_max = {t_max!r}")
    assert parse_config_text(under).t_max == t_max
    over = text.replace("t_max = 5.0", f"t_max = {math.nextafter(t_max, math.inf)!r}")
    with pytest.raises(ConfigError, match=r"^line 5: field 't_max': t_max x 2 sqrt\(n_max\)"):
        parse_config_text(over)
    # a coupling whose phases carry no digits, of either sign
    for g in ("1e200", "-1e9"):
        with pytest.raises(ConfigError, match="t_max x 2 sqrt"):
            parse_config_text(text.replace("1.3:0.6", f"1.3:{g}"))
