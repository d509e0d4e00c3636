import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson.config import ConfigError, parse_config_text
from spinboson.linalg import MAX_PHASE, require_count, require_density_matrix, require_factors
from spinboson.master_eq import generator_matrix, propagate, propagate_scaled, rhs
from spinboson.oracle import (TruncatedBath, dyson_terms, exact_reduced_dynamics,
                              exact_scaled_dynamics, interaction_unitary,
                              map_inversion_residual, reduced_map_deviation)
from spinboson.spin_boson import (SpectralDiscretization, SpinBosonModel, bath_statistics,
                                  coherence_solution, element_ode_matrix, flat_density,
                                  interaction_decomposition, population_solution,
                                  rate_functions, vacuum_rates)

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
_FLAT_BAND = """\
omega0 = 1.0
beta = vacuum
density = flat
eta = 0.01
omega_min = 0.5
omega_max = 1.5
t_max = 1.0
rho00 = 1.0
rho01 = 0
""" + _SAMPLES
_RHO = np.diag([0.7, 0.3])


def _propagate(substeps):
    return propagate(interaction_decomposition(_MODEL), bath_statistics(_MODEL),
                     np.diag([1.0, 0.0]), [0.0, 0.1], substeps=substeps)


# (site, name, minimum, call with the value); the config sites read text
_COUNT_SITES = [
    ("TruncatedBath", "n_max", 0, lambda v: TruncatedBath(_MODEL, n_max=v)),
    ("SpectralDiscretization", "mode_count", 1,
     lambda v: SpectralDiscretization(flat_density(0.01), 0.5, 1.5, v)),
    ("propagate", "substeps", 1, _propagate),
    ("config", "samples", 1, lambda v: parse_config_text(_CONFIG + f"samples = {v}\n")),
    ("config", "rk4_substeps", 1,
     lambda v: parse_config_text(_CONFIG + _SAMPLES + f"rk4_substeps = {v}\n")),
    ("config", "n_max", 1, lambda v: parse_config_text(_CONFIG + _SAMPLES + f"n_max = {v}\n")),
    ("config", "mode_count", 1, lambda v: parse_config_text(_FLAT_BAND + f"mode_count = {v}\n")),
    ("map_inversion_residual", "order", 0,
     lambda v: map_inversion_residual(TruncatedBath(_MODEL, n_max=1), _RHO, 0.5, v)),
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


# -- times of the oracle and the engine (linalg.require_time_grid, at each
# site of the oracle that takes a time, and the bath's evaluator) ------------

def _past_the_phase_rule(time: str = r"\S+") -> str:
    """The error of a finite time whose phase at the site's rate exceeds
    MAX_PHASE, where it has too few correct digits to give an answer: the
    largest time checked, ``time``: the grid's end, or a lattice's step
    or offset."""
    return (rf"^time {time} at rate \S+ makes a phase of \S+ rad, "
            rf"past MAX_PHASE = {re.escape(f'{MAX_PHASE:g}')}$")


_BATH = TruncatedBath(_MODEL, n_max=2)
_ENGINE = interaction_decomposition(_MODEL), bath_statistics(_MODEL)
# a scalar time, or a grid that ends at it
_TIME_SITES = {
    "interaction_unitary": lambda t: interaction_unitary(_BATH, t),
    "dyson_terms": lambda t: dyson_terms(_BATH, t),
    "reduced_map_deviation": lambda t: reduced_map_deviation(_BATH, _RHO, t),
    "map_inversion_residual": lambda t: map_inversion_residual(_BATH, _RHO, t, 1),
    "exact_reduced_dynamics": lambda t: exact_reduced_dynamics(_BATH, _RHO, [0.0, t]),
    "exact_scaled_dynamics": lambda t: exact_scaled_dynamics(_BATH, _RHO, [0.0, t], (1.0, 0.5)),
    "propagate": lambda t: propagate(*_ENGINE, _RHO, [0.0, t], substeps=1),
    "propagate_scaled": lambda t: propagate_scaled(*_ENGINE, _RHO, [0.0, t], (1.0, 0.5),
                                                   substeps=1),
    "generator_matrix": lambda t: generator_matrix(*_ENGINE, t),
    "rhs": lambda t: rhs(*_ENGINE, _RHO, t),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, 1e17, 1e308],
                         ids=["nan", "inf", "1e17", "1e308"])
@pytest.mark.parametrize("site", _TIME_SITES)
def test_scalar_times_must_be_finite(site, t):
    # and within the phase rule: at 1e17 the oracle's states and the
    # engine's generators had no correct digit, propagate blamed its step
    # size (TraceDriftError), and at 1e308 the oracle returned NaN.  There
    # the oracle's phase, at its rate 2.44, overflows to inf, with no warning
    message = _past_the_phase_rule() if math.isfinite(t) else f"times must be finite, got {t}"
    with pytest.raises(ValueError, match=message):
        _TIME_SITES[site](t)


# -- times of the closed forms (linalg.require_finite_times) ------------------

_VACUUM = SpinBosonModel(1.0, [(0.9, 0.05)], math.inf)
_CLOSED_FORM_SITES = {
    "sums": lambda t: rate_functions(_MODEL).sums(t),
    "coherence_solution": lambda t: coherence_solution(0.3, rate_functions(_MODEL), t),
    "population_solution": lambda t: population_solution(0.7, rate_functions(_MODEL), t),
    "population_solution-vacuum": lambda t: population_solution(0.7, rate_functions(_VACUUM), t),
    "element_ode_matrix": lambda t: element_ode_matrix(rate_functions(_MODEL), t),
    "vacuum_rates": lambda t: vacuum_rates(_VACUUM, t),
}


@pytest.mark.parametrize("t, message", [
    (math.nan, "^times must be finite, got nan$"),
    (-math.inf, "^times must be finite, got -inf$"),
    (np.array([[0.0, 1.0], [math.inf, math.nan]]), "^times must be finite, got inf$"),
    (1e17, _past_the_phase_rule(r"1e\+17")),
    (np.array([1.0, -1e308]), _past_the_phase_rule(r"1e\+308")),
], ids=["nan", "-inf", "array", "1e17", "1e308"])
@pytest.mark.parametrize("site", _CLOSED_FORM_SITES)
def test_closed_form_times_must_be_finite(site, t, message):
    # each used to return NaN, with at most a RuntimeWarning; the error
    # names the first time that is not finite, in row-major order.  A
    # finite time past the phase rule gave numbers without a correct digit
    # (on the README model, population_solution 3.03e19 at 1e17), or
    # infinities and NaN at 1e308; its error names the largest time, of
    # either sign
    with pytest.raises(ValueError, match=message):
        _CLOSED_FORM_SITES[site](t)


# -- coupling factors (linalg.require_factors, at every site that uses it) ----

_FACTOR_SITES = {
    "propagate_scaled": lambda f: propagate_scaled(
        interaction_decomposition(_MODEL), bath_statistics(_MODEL),
        np.diag([1.0, 0.0]), [0.0, 0.1], f, substeps=1),
    "exact_scaled_dynamics": lambda f: exact_scaled_dynamics(
        TruncatedBath(_MODEL, n_max=1), np.diag([1.0, 0.0]), [0.0, 0.1], f),
}


@pytest.mark.parametrize("site", _FACTOR_SITES)
def test_factors_reject_non_finite_and_non_1d_input(site):
    call = _FACTOR_SITES[site]
    for bad in ([1.0, np.nan], [np.inf], [[1.0, 0.5]], 1.0):
        with pytest.raises(ValueError,
                           match="coupling factors must be a 1-d sequence of finite numbers"):
            call(bad)
    # no factor, no trajectory
    assert call([]) == []
    assert len(call((1, 0.5))) == 2


def test_require_factors_returns_a_float_array():
    factors = require_factors((1, 0.5))
    assert factors.dtype == float and factors.tolist() == [1.0, 0.5]
    assert require_factors([]).shape == (0,)


# -- density matrices (linalg.require_density_matrix's 2 x 2 closed form) -----

_BAND = 1e-12  # no verdict is compared this close to a bound


def _accepts(rho, tol) -> bool:
    try:
        require_density_matrix(rho, tol)
    except ValueError:
        return False
    return True


def _eigvalsh_rule(rho, tol) -> tuple[bool, bool]:
    """(accepts, near a bound) by the rule for other sizes: the Hermitian
    defect, the trace, then the smallest eigenvalue from eigvalsh."""
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    if not defect <= tol:
        return False, abs(defect - tol) < _BAND
    trace_error = abs(np.trace(rho) - 1.0)
    if not trace_error <= tol:
        return False, abs(trace_error - tol) < _BAND
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    near = min(abs(defect - tol), abs(trace_error - tol), abs(min_eig + tol)) < _BAND
    return min_eig >= -tol, near


_unit = st.floats(-1.0, 1.0)
# multiples of tol, mostly none
_tols = st.sampled_from([0.0] * 4 + [0.25, 0.75, 2.0, 1e3])


@settings(max_examples=500, deadline=None)
@given(theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi),
       mixing=st.sampled_from([0.0, 0.0, 0.3, 1.0, 2.5]),
       deficit=st.sampled_from([0.0] * 3 + [0.5, 2.0, 4.0]),
       trace_offset=st.sampled_from([0.0] * 4 + [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
       diagonal_skew=st.tuples(_unit, _tols), off_skew=st.tuples(_unit, _unit, _tols),
       tol=st.sampled_from([1e-15, 1e-10, 1e-6]),
       nan_at=st.sampled_from([None] * 24 + [(i, j, nan) for i in (0, 1) for j in (0, 1)
                                            for nan in (complex(math.nan, 0.0),
                                                        complex(0.0, math.nan))]))
def test_two_by_two_closed_form_decides_as_eigvalsh(theta, phi, mixing, deficit, trace_offset,
                                                    diagonal_skew, off_skew, tol, nan_at):
    # a pure state |psi><psi| at rounding, mixed toward the identity (at
    # 2.5 past it, one eigenvalue -0.25), its smaller eigenvalue lowered by
    # deficit * tol, its trace moved by multiples of tol, and non-Hermitian
    # parts on the diagonal (trace kept) and off it.  Both rules must agree
    # wherever no quantity lies within the band of its bound, and a NaN in
    # any entry fails both.
    psi = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
    mixing -= 2.0 * deficit * tol
    rho = (1.0 - mixing) * np.outer(psi, psi.conj()) + 0.5 * mixing * np.eye(2)
    rho[0, 0] += trace_offset * tol
    x, scale = diagonal_skew
    rho += 1j * x * scale * tol * np.diag([1.0, -1.0])
    x, y, scale = off_skew
    rho[0, 1] += complex(x, y) * scale * tol
    if nan_at is not None:
        i, j, nan = nan_at
        rho[i, j] += nan
    accepts, near = _eigvalsh_rule(rho, tol)
    if nan_at is not None:
        assert not accepts and not _accepts(rho, tol)
    elif not near:
        assert _accepts(rho, tol) == accepts


def test_two_by_two_closed_form_names_what_fails():
    with pytest.raises(ValueError, match="not Hermitian"):
        require_density_matrix(np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="not Hermitian: max .* = nan"):
        require_density_matrix(np.array([[0.5, math.nan], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        require_density_matrix(np.diag([0.9, 0.9]))
    with pytest.raises(ValueError, match=r"positive semidefinite: eigenvalue -5\.000e-01"):
        require_density_matrix(np.diag([1.5, -0.5]))
    assert require_density_matrix([[1, 0], [0, 0]]).dtype == complex
