import numpy as np
import pytest

from spinboson.config import ConfigError, parse_config_text
from spinboson.linalg import require_count
from spinboson.master_eq import propagate
from spinboson.oracle import TruncatedBath
from spinboson.spin_boson import (SpectralDiscretization, SpinBosonModel, bath_statistics,
                                  flat_density, interaction_decomposition)

from helpers import make_rng, partial_trace, random_complex, random_density_matrix


# -- partial trace (the full-space reference in tests/helpers.py) -------------

def partial_trace_sum_oracle(rho, d_keep, d_env):
    """Explicit index summation over the environment, keep the first factor."""
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for s in range(d_keep):
        for sp in range(d_keep):
            for e in range(d_env):
                out[s, sp] += rho[s * d_env + e, sp * d_env + e]
    return out


def test_partial_trace_product_state():
    rng = make_rng(21)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 3)
    got = partial_trace(np.kron(rho_a, rho_b), (2, 3))
    assert np.allclose(got, rho_a, atol=1e-14)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    got = partial_trace(rho, (2, 2))
    assert np.allclose(got, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_matches_sum_oracle():
    rng = make_rng(22)
    rho = random_density_matrix(rng, 6)
    got = partial_trace(rho, (2, 3))
    assert np.allclose(got, partial_trace_sum_oracle(rho, 2, 3), atol=1e-14)


def test_partial_trace_preserves_trace_and_is_linear():
    rng = make_rng(23)
    dims = (2, 4)
    r1 = random_complex(rng, (8, 8))
    r2 = random_complex(rng, (8, 8))
    a, b = 0.7 - 0.2j, 1.1 + 0.4j
    lhs = partial_trace(a * r1 + b * r2, dims)
    rhs = a * partial_trace(r1, dims) + b * partial_trace(r2, dims)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    assert abs(np.trace(partial_trace(r1, dims)) - np.trace(r1)) <= 1e-12


def test_partial_trace_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3))


# -- counts (linalg.require_count, at every site that uses it) ----------------

_MODEL = SpinBosonModel(1.0, [(0.9, 0.05)], 1.0)
_CONFIG = """\
omega0 = 1.0
beta = 1.0
modes = 0.9:0.05
t_max = 1.0
rho00 = 0.7
rho01 = 0
"""
_SAMPLES = "samples = 3\n"


def _propagate(substeps):
    return propagate(interaction_decomposition(_MODEL), bath_statistics(_MODEL),
                     np.diag([1.0, 0.0]), [0.0, 0.1], substeps=substeps)


# (site, name, minimum, call with the value); the config sites read text
_COUNT_SITES = [
    ("TruncatedBath", "n_max", 0, lambda v: TruncatedBath(_MODEL, n_max=v)),
    ("TruncatedBath", "dim_cap", 0, lambda v: TruncatedBath(_MODEL, n_max=0, dim_cap=v)),
    ("SpectralDiscretization", "mode_count", 1,
     lambda v: SpectralDiscretization(flat_density(0.01), 0.5, 1.5, v)),
    ("propagate", "substeps", 1, _propagate),
    ("config", "samples", 1, lambda v: parse_config_text(_CONFIG + f"samples = {v}\n")),
    ("config", "rk4_substeps", 1,
     lambda v: parse_config_text(_CONFIG + _SAMPLES + f"rk4_substeps = {v}\n")),
    ("config", "n_max", 1, lambda v: parse_config_text(_CONFIG + _SAMPLES + f"n_max = {v}\n")),
]


@pytest.mark.parametrize("site, name, minimum, call", _COUNT_SITES,
                         ids=[f"{site}.{name}" for site, name, _, _ in _COUNT_SITES])
def test_counts_reject_bools_floats_and_values_below_the_minimum(site, name, minimum, call):
    error = ConfigError if site == "config" else ValueError
    for value in (True, float(minimum + 2), minimum - 1):
        with pytest.raises(error, match=name):
            call(value)
    call(np.int64(minimum + 2))


def test_require_count_returns_a_plain_int():
    count = require_count(np.int32(3), "count", 1)
    assert count == 3 and type(count) is int
    with pytest.raises(ValueError, match="count must be a non-negative integer, got -1"):
        require_count(-1, "count")
