"""Differential properties across the independent solvers, on models drawn by
hypothesis: RK4 ``propagate`` against the closed-form coherence, the
one-mode sector pass against the Jaynes-Cummings sum, the sector pass
against full-space propagation, the exact reduced map's trace and
complete positivity, and the Dyson series against the propagator.  The
populations are not compared: the closed-form population solution is known
to fail on hot, strongly coupled baths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson import oracle
from spinboson.master_eq import propagate
from spinboson.oracle import (TruncatedBath, dyson_terms, exact_reduced_dynamics,
                              exact_scaled_dynamics, interaction_unitary, thermal_bath_state)
from spinboson.spin_boson import (SpinBosonModel, bath_statistics, coherence_solution,
                                  interaction_decomposition, rate_functions)

from helpers import jaynes_cummings_dynamics, partial_trace

RHO_MIXED = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)

# a detuning from 1e-9 to 0.5 in size, of either sign: every mode frequency
# 1 + detuning stays positive, and a one-mode sector pass at beta >= 0.05
# within the oracle's cap
detunings = st.builds(lambda size, sign: sign * 10.0 ** size,
                      st.floats(-9.0, math.log10(0.5)), st.sampled_from([1.0, -1.0]))
modes = st.tuples(detunings.map(lambda d: 1.0 + d), st.floats(1e-3, 0.3))


@settings(max_examples=40, deadline=None)
@given(st.lists(modes, min_size=1, max_size=3),
       st.one_of(st.floats(0.01, 10.0), st.just(math.inf)), st.floats(0.5, 5.0))
def test_automatic_propagate_matches_the_closed_form_coherence(bath_modes, beta, t_max):
    model = SpinBosonModel(1.0, bath_modes, beta)
    times = np.linspace(0.0, t_max, 6)
    traj = propagate(interaction_decomposition(model), bath_statistics(model), RHO_MIXED, times)
    coherence = coherence_solution(RHO_MIXED[0, 1], rate_functions(model), times)
    assert np.max(np.abs(traj.states[:, 0, 1] - coherence)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(modes, st.floats(0.05, 5.0))
def test_one_mode_pass_is_the_jaynes_cummings_sum_at_any_beta(mode, beta):
    # the cutoff keeps the thermal weight past it, q^(n_max + 1), below 1e-16
    model = SpinBosonModel(1.0, [mode], beta)
    n_max = math.ceil(math.log(1e-16) / -(beta * mode[0]))
    times = np.linspace(0.0, 5.0, 11)
    traj, = exact_scaled_dynamics(TruncatedBath(model, n_max), RHO_MIXED, times, (1.0,))
    rho00, rho01 = jaynes_cummings_dynamics(model, RHO_MIXED, times)
    assert np.max(np.abs(traj.states[:, 0, 0] - rho00)) <= 1e-13
    assert np.max(np.abs(traj.states[:, 0, 1] - rho01)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.lists(modes, min_size=1, max_size=3), st.integers(1, 3),
       st.one_of(st.floats(0.3, 5.0), st.just(math.inf)), st.floats(0.1, 4.0))
def test_sector_pass_matches_full_space_propagation(bath_modes, n_max, beta, t_max):
    # full dimension 2 (n_max + 1)^modes <= 128: the co-rotating propagator
    # on rho0 (x) the thermal bath state, traced over the bath
    bath = TruncatedBath(SpinBosonModel(1.0, bath_modes, beta), n_max)
    times = np.linspace(0.0, t_max, 3)
    full0 = np.kron(RHO_MIXED, thermal_bath_state(bath))
    reference = [partial_trace(u @ full0 @ u.conj().T, (2, bath.bath_dim))
                 for u in (interaction_unitary(bath, t) for t in times)]
    traj = exact_reduced_dynamics(bath, RHO_MIXED, times)
    assert np.max(np.abs(traj.states - reference)) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.lists(modes, min_size=1, max_size=2), st.floats(0.3, 5.0), st.floats(0.0, 5.0))
def test_reduced_map_is_trace_preserving_and_completely_positive(bath_modes, beta, t):
    phi = oracle._reduced_map(TruncatedBath(SpinBosonModel(1.0, bath_modes, beta), 4), t)
    # the trace of each image, rows 0 and 3 of the row-major map, is that of
    # its basis operator |i><j|
    assert np.max(np.abs(phi[0] + phi[3] - [1, 0, 0, 1])) <= 1e-12
    # Choi matrix: entry ((i, k), (j, l)) is <k| Phi(|i><j|) |l>
    choi = phi.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
    assert np.min(np.linalg.eigvalsh(choi)) >= -1e-12


def _dyson_residual_ratio(model, n_max, t) -> float:
    """Criterion 7's ratio: the residual of I + U1 + U2 against
    ``interaction_unitary`` at the model's couplings over that at half of
    them, 8 +/- 2 where the third order leads."""
    def residual(factor):
        bath = TruncatedBath(model.scaled(factor), n_max)
        u0, u1, u2 = dyson_terms(bath, t)
        return np.linalg.norm(u0 + u1 + u2 - interaction_unitary(bath, t))

    return residual(1.0) / residual(0.5)


# g_k t from 1e-4 to 0.3, log-uniform: small enough that the third order
# leads the partial sum's residual
small_couplings = st.floats(-4.0, math.log10(0.3)).map(lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(detunings, small_couplings), min_size=1, max_size=2),
       st.integers(1, 3), st.floats(0.1, 4.0))
def test_dyson_partial_sum_error_is_third_order_on_drawn_models(bath_modes, n_max, t):
    model = SpinBosonModel(1.0, [(1.0 + d, gt / t) for d, gt in bath_modes], 1.0)
    assert 6.0 <= _dyson_residual_ratio(model, n_max, t) <= 10.0


@pytest.mark.xfail(strict=True, reason="dyson_terms' first-order term errs by 8.6e-9 relative "
                                       "at a detuning of 1e-9")
def test_dyson_partial_sum_error_is_third_order_near_resonance():
    # a draw of the property above (600 random examples): the residual at
    # g t = 1e-4 is 2.90e-12 against 1.89e-12 at 40 digits (mpmath), as the
    # scipy expm of the block matrix puts 2.4e-12 into U1, and the ratio
    # f : f/2 is 2.39.  Far from resonance (detuning 0.3) U1 errs by 5e-20
    model = SpinBosonModel(1.0, [(1.0 + 1e-9, 1e-4 / 3.0)], 1.0)
    assert 6.0 <= _dyson_residual_ratio(model, 1, 3.0) <= 10.0
