import math

import numpy as np
import pytest

from spinboson.config import ConfigError, parse_config_text

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


def test_initial_state_positivity():
    bad = GOOD.replace("rho01 = 0.2+0.1j", "rho01 = 0.9")
    with pytest.raises(ConfigError, match="positive semidefinite"):
        parse_config_text(bad)
    with pytest.raises(ConfigError, match="rho00"):
        parse_config_text(GOOD.replace("rho00 = 0.7", "rho00 = 1.4"))


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


def test_truncation_check_key():
    assert parse_config_text(GOOD).check_truncation is False
    assert parse_config_text(GOOD + "check_truncation = true\n").check_truncation is True
    with pytest.raises(ConfigError, match="field 'check_truncation'"):
        parse_config_text(GOOD + "check_truncation = maybe\n")
    with pytest.raises(ConfigError, match="unknown"):
        parse_config_text(GOOD + "truncation_tol = 1e-4\n")


def test_model_is_built_once_per_config():
    cfg = parse_config_text(GOOD_DISC)
    assert cfg.model() is cfg.model()


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\n\n" + GOOD + "\n   # trailing\n"
    cfg = parse_config_text(text)
    assert cfg.omega0 == 1.0
