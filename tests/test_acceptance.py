"""Acceptance gate: each criterion at its stated tolerance.

Every test prints one ``[criterion N] name: PASS/FAIL`` line with the
measured numbers (visible with ``pytest -s`` or on failure), then asserts.

Criterion 5 checks that the error of the second-order equation against the
exact reference vanishes at the order of the first omitted generator.  The
bath is a Gaussian state of harmonic modes with zero mean, so every
odd-order time-convolutionless generator vanishes identically: the first
omitted term is fourth order in the coupling and halving the coupling
divides the error by about 16, not 8.  The measured ratios are checked
against an analytic cross-check that does not use the package: for one
resonant vacuum mode started in the excited state, the exact excited
population is the Rabi law ``cos^2(2gt)`` and the second-order closed form
is ``exp(-4 g^2 t^2)``; they differ by ``(8/3) g^4 t^4 + O(g^6)``.
"""

import math
import time

import numpy as np
import pytest

from spinboson.master_eq import propagate, rhs
from spinboson.oracle import (TruncatedBath, dyson_terms,
                              exact_reduced_dynamics, interaction_unitary,
                              map_inversion_residual)
from spinboson.spin_boson import (SpectralDiscretization, SpinBosonModel,
                                  bath_statistics, coherence_solution,
                                  element_ode_matrix,
                                  interaction_decomposition, markov_rates,
                                  ohmic_density, population_solution,
                                  rate_functions, vacuum_rhs)

from helpers import make_rng, matrix_units, random_density_matrix

UNITS = matrix_units(2)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def state(rho00: float, rho01: complex = 0j) -> np.ndarray:
    return np.array([[rho00, rho01], [np.conj(rho01), 1.0 - rho00]], dtype=complex)


def test_criterion_1_vacuum_reduction():
    grid = np.linspace(0.0, 5.0, 100)
    worst_rate, worst_mismatch = 0.0, 0.0
    for modes in ([(1.0, 0.1)], [(0.7, 0.12), (1.1, 0.05), (1.9, 0.08)]):
        model = SpinBosonModel(1.0, modes, math.inf)
        rates = rate_functions(model)
        (decay, shift), _ = rates.sums(grid, ("decay", "shift"))
        worst_rate = max(worst_rate,
                         float(np.max(np.abs(decay))),
                         float(np.max(np.abs(shift))))
        decomp, bath = interaction_decomposition(model), bath_statistics(model)
        for t in grid:
            for unit in UNITS:
                diff = vacuum_rhs(model, unit, t) - rhs(decomp, bath, unit, t)
                worst_mismatch = max(worst_mismatch, float(np.max(np.abs(diff))))
    ok = worst_rate == 0.0 and worst_mismatch <= 1e-8
    report(1, "vacuum reduction", ok,
           f"max absorption rate {worst_rate:.1e}, generator mismatch "
           f"{worst_mismatch:.2e} <= 1e-8")
    assert ok


def test_criterion_2_closed_form_agreement():
    start = time.perf_counter()
    disc = SpectralDiscretization(ohmic_density(0.02, 5.0), 0.5, 1.5, 5)
    model = disc.build_model(1.0, 1.0)
    assert len(model.modes) == 5
    rates = rate_functions(model)
    rho0 = state(0.7, 0.25 + 0.1j)
    grid = np.linspace(0.0, 10.0, 101)
    traj = propagate(interaction_decomposition(model), bath_statistics(model),
                     rho0, grid)
    coh_err = float(np.max(np.abs(traj.states[:, 0, 1]
                                  - coherence_solution(rho0[0, 1], rates, grid))))
    pop_err = float(np.max(np.abs(traj.states[:, 0, 0].real
                                  - population_solution(rho0[0, 0].real, rates, grid))))
    elapsed = time.perf_counter() - start
    min_eig = float(np.min(traj.metadata["min_eigenvalue"]))
    ok = coh_err <= 1e-6 and pop_err <= 1e-6 and elapsed < 10.0 and min_eig >= -1e-6
    report(2, "closed-form agreement", ok,
           f"coherence err {coh_err:.2e}, population err {pop_err:.2e} <= 1e-6, "
           f"min eigenvalue {min_eig:.2e}, runtime {elapsed:.1f}s < 10s")
    assert ok


def test_criterion_3_high_temperature_steady_state():
    beta = 0.001
    model = SpinBosonModel(1.0, [(0.9, 0.008), (1.0, 0.008), (1.1, 0.008)], beta)
    rates = rate_functions(model)
    assert float(model.occupations().min()) >= 100.0
    t_max = 5.0
    (integral,), _ = rates.sums(t_max, ("decay_integral",))
    transient = math.exp(-16.0 * integral)
    assert transient < 1e-4
    grid = np.linspace(0.0, t_max, 51)
    decomp, bath = interaction_decomposition(model), bath_statistics(model)
    finals = []
    for rho0 in (state(1.0), state(0.2, 0.35), state(0.0)):
        traj = propagate(decomp, bath, rho0, grid, substeps=100)
        finals.append(float(traj.states[-1, 0, 0].real))
    worst = max(abs(f - 0.5) for f in finals)
    ok = worst <= 1e-3
    report(3, "high-temperature steady state", ok,
           f"final populations {[f'{f:.5f}' for f in finals]}, "
           f"max |rho00 - 0.5| = {worst:.2e} <= 1e-3, transient {transient:.1e}")
    assert ok


def test_criterion_4_zero_temperature_relaxation():
    model = SpinBosonModel(1.0, [(1.0, 0.1)], math.inf)
    rates = rate_functions(model)
    grid = np.linspace(0.0, 14.0, 115)
    traj = propagate(interaction_decomposition(model), bath_statistics(model),
                     state(1.0), grid, substeps=60)
    _, (integral,) = rates.sums(grid, ("decay_integral",))
    closed = np.exp(-8.0 * integral)
    decay_err = float(np.max(np.abs(traj.states[:, 0, 0].real - closed)))
    final_rho11 = float(traj.states[-1, 1, 1].real)
    ok = decay_err <= 1e-6 and abs(final_rho11 - 1.0) <= 1e-3
    report(4, "zero-temperature relaxation", ok,
           f"decay-law err {decay_err:.2e} <= 1e-6, final rho11 {final_rho11:.6f} "
           f"within 1e-3 of 1")
    assert ok


def rabi_error_ratios(g: float, t: float, factors) -> tuple:
    """Analytic err(g)/err(g/2) for one resonant vacuum mode, from `math` alone.

    Both states are diagonal, so the Frobenius error of the closed form
    ``exp(-4 g^2 t^2)`` against the exact Rabi population ``cos^2(2gt)`` is
    ``sqrt(2) |cos^2(2gt) - exp(-4 g^2 t^2)|``.
    """
    def error(f):
        gf = g * f
        return math.sqrt(2.0) * abs(math.cos(2.0 * gf * t) ** 2
                                    - math.exp(-4.0 * gf * gf * t * t))
    errors = [error(f) for f in factors]
    return tuple(a / b for a, b in zip(errors, errors[1:]))


def test_criterion_5_second_order_error_scaling():
    start = time.perf_counter()
    g, t_end = 0.05, 2.0
    factors = (1.0, 0.5, 0.25)
    base = SpinBosonModel(1.0, [(1.0, g)], math.inf)
    grid = np.linspace(0.0, t_end, 9)
    rho0 = state(1.0)

    errors = {}
    min_eig = 0.0
    for factor in factors:
        model = base.scaled(factor)
        me = propagate(interaction_decomposition(model), bath_statistics(model),
                       rho0, grid)
        exact = exact_reduced_dynamics(model, TruncatedBath(model, n_max=4), rho0, grid)
        errors[factor] = float(np.linalg.norm(me.states[-1] - exact.states[-1]))
        min_eig = min(min_eig, float(np.min(me.metadata["min_eigenvalue"])))

    ratios = (errors[1.0] / errors[0.5], errors[0.5] / errors[0.25])
    analytic = rabi_error_ratios(g, t_end, factors)
    elapsed = time.perf_counter() - start
    # The first omitted generator is fourth order (odd orders vanish for this
    # Gaussian zero-mean bath), so each halving divides the error by ~16:
    # the window [12, 20] is 16 +/- 25%.  A ratio near 8 (a spurious
    # third-order term) or near 4 (a broken second-order generator) fails.
    # The measured ratios must also reproduce the analytic Rabi cross-check.
    in_window = all(12.0 <= r <= 20.0 for r in ratios)
    matches = all(math.isclose(r, a, rel_tol=1e-6) for r, a in zip(ratios, analytic))
    ok = in_window and matches and elapsed < 30.0 and min_eig >= -1e-6
    report(5, "second-order error scaling", ok,
           f"err(g)/err(g/2) = {ratios[0]:.9f}, {ratios[1]:.9f}, analytic "
           f"{analytic[0]:.9f}, {analytic[1]:.9f} (rel tol 1e-6), window [12, 20], "
           f"min eigenvalue {min_eig:.2e}, runtime {elapsed:.1f}s < 30s")
    assert ok


def test_criterion_6_inversion_identity():
    model = SpinBosonModel(1.0, [(0.8, 0.05), (1.5, 0.03)], math.inf)
    bath = TruncatedBath(model, n_max=3)
    rho0 = state(0.6, 0.2 + 0.1j)
    residuals = [map_inversion_residual(model, bath, rho0, 2.0, depth)
                 for depth in (0, 1, 2)]
    worst = max(residuals)
    ok = worst <= 1e-9
    report(6, "inversion identity", ok,
           "residuals " + ", ".join(f"{r:.1e}" for r in residuals) + " <= 1e-9")
    assert ok


def test_criterion_7_series_consistency():
    base = SpinBosonModel(1.0, [(0.8, 0.05), (1.5, 0.03)], math.inf)
    t = 2.0

    def residual(factor):
        model = base.scaled(factor)
        bath = TruncatedBath(model, n_max=3)
        u0, u1, u2 = dyson_terms(model, bath, t)
        return float(np.linalg.norm(u0 + u1 + u2 - interaction_unitary(model, bath, t)))

    r1, r2, r3 = residual(1.0), residual(0.5), residual(0.25)
    ratios = (r1 / r2, r2 / r3)
    ok = all(6.0 <= r <= 10.0 for r in ratios)
    report(7, "series partial-sum order", ok,
           f"residual ratios {ratios[0]:.2f}, {ratios[1]:.2f} in 8 +/- 2")
    assert ok


def test_criterion_8_markov_plateau():
    start = time.perf_counter()
    disc = SpectralDiscretization(ohmic_density(0.01, 5.0), 0.01, 10.0, 400)
    model = disc.build_model(1.0, 1.0)
    rates = rate_functions(model)
    _, plateau = markov_rates(disc, model)
    grid = np.linspace(0.0, 50.0, 201)
    quartile = grid[3 * (len(grid) - 1) // 4:]
    _, (resolved,) = rates.sums(quartile, ("decay",))
    deviation = float(np.max(np.abs(resolved - plateau)) / plateau)
    elapsed = time.perf_counter() - start
    ok = deviation <= 0.10 and elapsed < 60.0
    report(8, "constant-rate plateau", ok,
           f"plateau {plateau:.6f}, max relative deviation {deviation:.3f} <= 0.10, "
           f"runtime {elapsed:.1f}s < 60s")
    assert ok


def test_criterion_9_generator_sanity_suite():
    rng = make_rng(909)
    worst_trace = worst_herm = worst_linear = worst_ode = 0.0
    for _ in range(100):
        n_modes = int(rng.integers(1, 5))
        modes = [(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-0.3, 0.3)))
                 for _ in range(n_modes)]
        beta = math.inf if rng.uniform() < 0.25 else float(rng.uniform(0.5, 5.0))
        model = SpinBosonModel(1.0, modes, beta)
        rates = rate_functions(model)
        decomp, bath = interaction_decomposition(model), bath_statistics(model)
        t = float(rng.uniform(0.0, 3.0))

        rho = random_density_matrix(rng, 2)
        out = rhs(decomp, bath, rho, t)
        worst_trace = max(worst_trace, abs(complex(np.trace(out))))
        worst_herm = max(worst_herm, float(np.max(np.abs(out - out.conj().T))))

        r1, r2 = random_density_matrix(rng, 2), random_density_matrix(rng, 2)
        a, b = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        lin = rhs(decomp, bath, a * r1 + b * r2, t) - (
            a * rhs(decomp, bath, r1, t) + b * rhs(decomp, bath, r2, t))
        worst_linear = max(worst_linear, float(np.max(np.abs(lin))))

        ode = element_ode_matrix(rates, t)
        generic = np.column_stack([rhs(decomp, bath, u, t).ravel() for u in UNITS])
        worst_ode = max(worst_ode, float(np.max(np.abs(ode - generic))))

    ok = (worst_trace <= 1e-10 and worst_herm <= 1e-9
          and worst_linear <= 1e-12 and worst_ode <= 1e-10)
    report(9, "generator sanity suite", ok,
           f"trace {worst_trace:.1e} <= 1e-10, hermiticity {worst_herm:.1e} <= 1e-9, "
           f"linearity {worst_linear:.1e} <= 1e-12, element-ODE {worst_ode:.1e} <= 1e-10")
    assert ok
