import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from spinboson.master_eq import BathStatistics, lattice_times, propagate, rhs
from spinboson.spin_boson import (PROJ_DOWN, PROJ_UP, RateFunctions,
                                  SpectralDiscretization,
                                  SpinBosonModel, _channel_sums,
                                  bath_statistics, coherence_solution,
                                  element_ode_matrix, flat_density,
                                  interaction_decomposition, markov_rates,
                                  ohmic_density,
                                  population_solution, rate_functions,
                                  second_order_hamiltonian,
                                  thermal_occupation, vacuum_rates,
                                  vacuum_rhs)

from helpers import (half_angle_rates, make_rng, matrix_units,
                     random_density_matrix)


ALL_PARTS = ("decay", "shift", "decay_integral", "shift_integral")


def one_channel(detunings, weights) -> RateFunctions:
    """Rate functions whose emission is the channel of ``detunings`` and
    ``weights`` and whose absorption carries no weight, so that their
    emission sums are those of that channel alone."""
    detunings = np.asarray(detunings, dtype=float)
    return RateFunctions(detunings, np.zeros_like(detunings), weights)


def random_model(rng, vacuum_chance=0.25):
    n_modes = int(rng.integers(1, 6))
    modes = [(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-0.3, 0.3)))
             for _ in range(n_modes)]
    beta = math.inf if rng.uniform() < vacuum_chance else float(rng.uniform(0.5, 5.0))
    return SpinBosonModel(1.0, modes, beta)


# -- occupation numbers ---------------------------------------------------------

def occupation_sum_oracle(x, n_terms=10 ** 4):
    """Definitional thermal trace as a truncated geometric sum."""
    m = np.arange(n_terms + 1, dtype=float)
    w = np.exp(-m * x)
    return float((m * w).sum() / w.sum())


def test_occupation_vacuum():
    assert thermal_occupation(1.3, math.inf) == 0.0


def test_occupation_at_log_two():
    got = thermal_occupation(1.0, math.log(2.0))
    assert got == pytest.approx(1.0, abs=1e-14)
    assert got == pytest.approx(occupation_sum_oracle(math.log(2.0)), abs=1e-12)


def test_occupation_high_temperature():
    got = thermal_occupation(1.0, 0.01)
    assert got == pytest.approx(99.50083333194443, rel=1e-12)  # frozen closed form
    assert got == pytest.approx(occupation_sum_oracle(0.01), rel=1e-12)
    assert got > 99.0  # deep in the classical regime


def test_occupation_rejects_nonpositive_frequency():
    # and one that is not finite: NaN used to give NaN, as NaN <= 0 is False
    for omega in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^mode frequency must be positive and finite, got "):
            thermal_occupation(omega, 1.0)


@pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, -math.inf])
def test_occupation_takes_the_models_beta_rule(beta):
    # a negative beta gave a negative occupation, zero a ZeroDivisionError
    # and NaN a NaN
    with pytest.raises(ValueError, match="^beta must be positive or math.inf, got "):
        thermal_occupation(1.0, beta)
    with pytest.raises(ValueError, match="^beta must be positive or math.inf, got "):
        SpinBosonModel(1.0, [(1.0, 0.1)], beta)


# -- model type -----------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValueError):
        SpinBosonModel(1.0, [(-0.5, 0.1)], 1.0)
    with pytest.raises(ValueError):
        SpinBosonModel(1.0, [(1.0, 0.1)], 0.0)
    with pytest.raises(ValueError):
        SpinBosonModel(1.0, [(1.0, 0.1)], -2.0)
    for omega0, mode in ((math.nan, (1.0, 0.1)), (math.inf, (1.0, 0.1)),
                         (1.0, (math.nan, 0.1)), (1.0, (math.inf, 0.1)),
                         (1.0, (1.0, math.nan)), (1.0, (1.0, -math.inf))):
        with pytest.raises(ValueError, match="finite"):
            SpinBosonModel(omega0, [mode], 1.0)
    nan_eta = SpectralDiscretization(ohmic_density(math.nan, 5.0), 0.5, 1.5, 4)
    with pytest.raises(ValueError, match="finite"):
        nan_eta.build_model(1.0, 1.0)


def test_model_rejects_non_positive_splitting():
    # omega0 <= 0 is rejected at construction, as the config parser does
    for omega0 in (0.0, -0.0, -1.0):
        with pytest.raises(ValueError, match="omega0 must be positive"):
            SpinBosonModel(omega0, [(1.0, 0.1)], 1.0)


def test_model_arrays_are_read_only_and_match_the_modes():
    model = SpinBosonModel(1.0, [(0.8, 0.1), (1.2, -0.07)], 1.3)
    assert model.frequencies.tolist() == [0.8, 1.2]
    assert model.couplings.tolist() == [0.1, -0.07]
    assert model.occupations().tolist() == [thermal_occupation(0.8, 1.3),
                                            thermal_occupation(1.2, 1.3)]
    for values in (model.frequencies, model.couplings, model.occupations()):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 5.0
    # computed once: every read returns the same array
    assert model.frequencies is model.frequencies
    assert model.occupations() is model.occupations()


def test_rate_functions_are_built_once_per_model_on_read_only_arrays():
    model = SpinBosonModel(1.0, [(0.8, 0.1), (1.2, -0.07)], 1.3)
    rates = rate_functions(model)
    assert rate_functions(model) is rates
    assert rate_functions(model.scaled(1.0)) is not rates
    for values in (rates.detunings, rates.absorption, rates.emission):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 5.0


def test_model_scaling():
    m = SpinBosonModel(1.0, [(1.0, 0.1), (2.0, 0.2)], 1.0)
    half = m.scaled(0.5)
    assert np.allclose(half.couplings, [0.05, 0.1])
    assert np.array_equal(half.frequencies, m.frequencies)


# -- rate functions ---------------------------------------------------------------

def rate_quadrature_oracle(model, t, kernel, occupation_offset, panels=2000):
    """Composite Simpson on the defining memory integral."""
    if t == 0:
        return 0.0
    s = np.linspace(0.0, t, panels + 1)
    occ = model.occupations() + occupation_offset
    total = np.zeros_like(s)
    for (omega, g), n in zip(model.modes, occ):
        total += g * g * n * kernel((omega - model.omega0) * (t - s))
    return float(simpson(total, x=s))


def test_rates_zero_at_zero_time():
    rng = make_rng(101)
    for _ in range(5):
        r = rate_functions(random_model(rng))
        for decay, shift, decay_integral, shift_integral in r.sums(0.0, ALL_PARTS):
            assert decay == 0.0
            assert shift == 0.0
            assert decay_integral == 0.0
            assert shift_integral == 0.0


def test_vacuum_absorption_vanishes_identically():
    model = SpinBosonModel(1.0, [(0.6, 0.2), (1.4, 0.1)], math.inf)
    r = rate_functions(model)
    t = np.linspace(0.0, 20.0, 50)
    (decay, shift), _ = r.sums(t, ("decay", "shift"))
    assert np.max(np.abs(decay)) == 0.0
    assert np.max(np.abs(shift)) == 0.0


def test_single_resonant_mode_rates():
    # resonant integrand cos(0) = 1 makes the memory integral equal to t
    model = SpinBosonModel(1.0, [(1.0, 0.1)], math.log(1.5))  # occupation 2
    r = rate_functions(model)
    assert model.occupations()[0] == pytest.approx(2.0, abs=1e-13)
    (decay, shift, decay_integral), _ = r.sums(3.0)
    assert decay == pytest.approx(0.06, abs=1e-14)
    assert shift == 0.0
    assert decay == pytest.approx(
        rate_quadrature_oracle(model, 3.0, np.cos, 0.0), abs=1e-10)
    # running integral of g^2*n*t is g^2*n*t^2/2
    assert decay_integral == pytest.approx(0.09, abs=1e-13)


def test_closed_rates_match_quadrature_oracle():
    rng = make_rng(102)
    for _ in range(4):
        model = random_model(rng, vacuum_chance=0.0)
        r = rate_functions(model)
        for t in (0.7, 2.5):
            (a_decay, a_shift), (e_decay, e_shift) = r.sums(t, ("decay", "shift"))
            assert a_decay == pytest.approx(
                rate_quadrature_oracle(model, t, np.cos, 0.0), abs=1e-8)
            assert a_shift == pytest.approx(
                rate_quadrature_oracle(model, t, np.sin, 0.0), abs=1e-8)
            assert e_decay == pytest.approx(
                rate_quadrature_oracle(model, t, np.cos, 1.0), abs=1e-8)
            assert e_shift == pytest.approx(
                rate_quadrature_oracle(model, t, np.sin, 1.0), abs=1e-8)


def test_rate_integrals_match_quadrature_of_rates():
    model = SpinBosonModel(1.0, [(0.7, 0.12), (1.6, 0.08)], 0.9)
    r = rate_functions(model)
    t = 4.0
    s = np.linspace(0.0, t, 2001)
    _, (decay, shift) = r.sums(s, ("decay", "shift"))
    assert r.sums(t, ("decay_integral",))[1][0] == pytest.approx(
        float(simpson(decay, x=s)), abs=1e-8)
    assert r.sums(t, ("shift_integral",))[1][0] == pytest.approx(
        float(simpson(shift, x=s)), abs=1e-8)


def test_emission_minus_absorption_is_the_vacuum_part():
    # the "+1" separation is occupation-independent
    rng = make_rng(103)
    for _ in range(5):
        model = random_model(rng, vacuum_chance=0.0)
        r = rate_functions(model)
        vac = one_channel(model.frequencies - model.omega0, model.couplings ** 2)
        for t in (0.5, 1.8, 7.0):
            (a_decay, a_shift), (e_decay, e_shift) = r.sums(t, ("decay", "shift"))
            _, (vac_decay, vac_shift) = vac.sums(t, ("decay", "shift"))
            assert e_decay - a_decay == pytest.approx(vac_decay, abs=1e-12)
            assert e_shift - a_shift == pytest.approx(vac_shift, abs=1e-12)


def test_near_resonance_branch_is_continuous():
    # both sides of the |detuning*t| = 1e-3 series cutover agree with the
    # small-detuning forms to ~1e-9 relative; reference values carry the
    # next series order so they are exact at this scale
    t = 1.0
    for detuning in (0.99e-3, 1.01e-3):
        x = detuning * t
        rates = one_channel([detuning], [1.0])
        _, (decay, shift, decay_integral, shift_integral) = rates.sums(t, ALL_PARTS)
        assert decay == pytest.approx(t * (1 - x * x / 6), rel=1e-9)
        assert shift == pytest.approx(0.5 * x * t * (1 - x * x / 12), rel=1e-9)
        assert decay_integral == pytest.approx(0.5 * t * t * (1 - x * x / 12), rel=1e-9)
        assert shift_integral == pytest.approx(x * t * t / 6 * (1 - x * x / 20), rel=1e-9)


def _taylor(x, first_power, denominator_offset):
    """sum_{n < 25} (-1)^n x^(2n + first_power) / (2n + denominator_offset)!"""
    return math.fsum((-1) ** n * x ** (2 * n + first_power)
                     / math.factorial(2 * n + denominator_offset) for n in range(25))


@pytest.mark.parametrize("detuning", [1e-9, 1e-6, 5e-4, 0.99e-3, 1.01e-3, 3e-3,
                                      1e-2, 0.1, 0.7])
def test_rate_forms_match_taylor_reference(detuning):
    # at t = 1, x = detuning; 25 terms of each series are exact for |x| <= 1
    # in double precision, on both sides of the old 1e-3 series cutover
    x = detuning
    rates = one_channel([detuning], [1.0])
    reference = {
        "decay": _taylor(x, 0, 1),           # sin(x) / x
        "shift": _taylor(x, 1, 2),           # (1 - cos x) / x
        "decay_integral": _taylor(x, 0, 2),  # (1 - cos x) / x^2
    }
    # t = 1 both as a plain time and as the lattice time 0.6 + 0.4
    start, offset = np.array([0.6]), np.array([0.4])
    parts = ("decay", "shift", "decay_integral")
    on_lattice = dict(zip(parts, _channel_sums(rates, parts, start, offset)()[1]))
    for name, value in reference.items():
        assert rates.sums(1.0, (name,))[1][0] == pytest.approx(value, rel=1e-14, abs=0.0), name
        assert on_lattice[name].shape == (1, 1)
        assert on_lattice[name][0, 0] == pytest.approx(value, rel=1e-14, abs=0.0), name


def test_exact_resonance_closed_values():
    rates = one_channel([0.0], [1.0])
    t = 2.5
    _, (decay, shift, decay_integral, shift_integral) = rates.sums(t, ALL_PARTS)
    assert decay == t
    assert shift == 0.0
    assert decay_integral == 0.5 * t * t
    assert shift_integral == 0.0


_detuning = st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-10.0, 10.0))


@settings(max_examples=150, deadline=None)
@given(modes=st.lists(st.tuples(_detuning, st.floats(0.0, 1.0)), min_size=1, max_size=5),
       starts=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4),
       offsets=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
def test_lattice_kernel_matches_per_time_reference(modes, starts, offsets):
    d, w = (np.array(v) for v in zip(*modes))
    starts, offsets = np.array(starts), np.array(offsets)
    t = lattice_times(starts, offsets)
    expected = half_angle_rates(d, w, t)
    got = _channel_sums(one_channel(d, w), ("decay", "shift", "decay_integral"),
                        starts, offsets)()[1]
    # the per-mode factors c (2 w / d, 2 w / d^2; w t and w t^2 / 2 on
    # resonance) set the scale.  Both sides round the phase a = d t / 2 in
    # their own way, by an ulp of a, so the scale grows with |a|.
    resonant = np.abs(d) < 1e-100
    safe = np.where(resonant, 1.0, d)
    growth = 1.0 + np.abs(0.5 * d) * t.max()
    rate = np.sum(np.where(resonant, w * t.max(), np.abs(2 * w / safe)) * growth)
    integral = np.sum(np.where(resonant, 0.5 * w * t.max() ** 2,
                               np.abs(2 * w / safe / safe)) * growth)
    # below the normal range (subnormal weights) only absolute rounding is left
    floor = np.finfo(float).tiny
    for g, e, scale in zip(got, expected, (rate, rate, integral)):
        assert g.shape == t.shape
        assert np.max(np.abs(g - e)) <= 1e-14 * scale + floor


def test_thermal_channels_share_one_lattice_pass():
    model = SpinBosonModel(1.0, [(0.8, 0.1), (1.0, 0.05), (1.4, 0.06)], 1.3)
    rates = rate_functions(model)
    starts, offsets = np.array([[0.0, 0.9], [2.0, 3.1]]), np.array([[0.0, 0.1, 0.2]])
    forward, reverse = np.moveaxis(
        bath_statistics(model).integrals(starts, offsets)(np.zeros(2)), -3, 0)
    assert forward.shape == (2, 2, 3, 2, 2)
    t = lattice_times(starts, offsets)
    for weights, (j, k), sign in ((rates.emission, (0, 1), -1), (rates.absorption, (1, 0), 1)):
        decay, shift, _ = half_angle_rates(rates.detunings, weights, t)
        assert np.max(np.abs(forward[..., j, k] - (decay + sign * 1j * shift))) <= 1e-15
    assert np.array_equal(reverse, forward.conj())
    # both channels weight the one set of modes, one weight per detuning each
    with pytest.raises(ValueError, match="one absorption and one emission weight per detuning"):
        RateFunctions(rates.detunings, rates.absorption, rates.emission[:-1])


def test_rate_functions_compare_by_identity():
    a = RateFunctions(np.array([0.1, -0.2]), np.array([1.0, 2.0]), np.array([2.0, 3.0]))
    b = RateFunctions(np.array([0.1, -0.2]), np.array([1.0, 2.0]), np.array([2.0, 3.0]))
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_sums_name_the_parts_on_an_unknown_one():
    rates = rate_functions(SpinBosonModel(1.0, [(0.8, 0.1)], 1.3))
    with pytest.raises(ValueError, match="^unknown rate part 'decays'; the parts are decay, "
                                         "shift, decay_integral, shift_integral$"):
        rates.sums(1.0, ("decay", "decays"))


def test_channel_sums_take_parts_positionally():
    # RateFunctions.sums takes the parts positionally or by keyword; one
    # channel's operand is half of the pair's, so the sums agree to rounding
    rates = rate_functions(SpinBosonModel(1.0, [(0.8, 0.1), (1.0, 0.05), (1.4, 0.06)], 1.3))
    parts = ("decay", "shift")
    for t in (1.7, np.array([0.0, 0.5, 2.0])):
        both = rates.sums(t, parts)
        for weights, expected in zip((rates.absorption, rates.emission), both):
            alone = one_channel(rates.detunings, weights)
            positional = alone.sums(t, parts)[1]
            for got, keyword, value in zip(positional, alone.sums(t, parts=parts)[1], expected):
                assert np.shape(got) == np.shape(t)
                assert np.array_equal(got, keyword)
                assert got == pytest.approx(value, rel=1e-14, abs=1e-17)


def test_rate_channel_scalar_and_array_agree():
    rates = one_channel([0.3, -0.8], [0.01, 0.02])
    grid = np.array([0.0, 0.5, 2.0])
    for name in ALL_PARTS:
        f = lambda t: rates.sums(t, (name,))[1][0]
        vec = f(grid)
        assert vec.shape == grid.shape
        for i, t in enumerate(grid):
            assert vec[i] == pytest.approx(f(float(t)), abs=1e-15)


THERMAL_3MODE = SpinBosonModel(1.0, [(0.8, 0.1), (1.0, 0.05), (1.4, 0.06)], 1.3)
VACUUM_3MODE = SpinBosonModel(1.0, [(0.8, 0.1), (1.0, 0.05), (1.4, 0.06)], math.inf)


@pytest.mark.parametrize("model", [THERMAL_3MODE, VACUUM_3MODE], ids=["thermal", "vacuum"])
def test_one_shift_integral_kernel_evaluation_serves_both_channels(monkeypatch, model):
    # both channels share their detunings, so a sums call evaluates the
    # near-resonance kernel once, at times x modes points; the vacuum's
    # absorption carries no weight and is zero without it
    import spinboson.spin_boson as spin_boson

    rates = rate_functions(model)
    t = np.linspace(0.0, 3.0, 7)
    points = []
    kernel = spin_boson._shift_integral_kernel

    def counted(x):
        points.append(x.size)
        return kernel(x)

    monkeypatch.setattr(spin_boson, "_shift_integral_kernel", counted)
    absorption, emission = rates.sums(t, ALL_PARTS)
    assert points == [t.size * len(model.modes)]
    assert np.any(emission[3] != 0.0)
    assert np.any(absorption[3] != 0.0) == (not model.vacuum)
    # coherence_solution reads it from one sums call, and a call without the
    # shift integral evaluates no kernel
    points.clear()
    coherence_solution(0.3, rates, t)
    rates.sums(t, ("decay", "shift", "decay_integral"))
    assert points == [t.size * len(model.modes)]


# A lattice of starts and offsets, and the origins of its evaluator.
_STARTS, _OFFSETS = np.array([[0.0, 0.9], [2.0, 3.1]]), np.array([[0.0, 0.1, 0.2]])
_ORIGINS = np.array([0.0, 1.25])


@pytest.mark.parametrize("model, t", [
    (THERMAL_3MODE, 1.7),
    (THERMAL_3MODE, np.linspace(0.0, 7.0, 15).reshape(3, 5)),
    (THERMAL_3MODE, ()),
    (THERMAL_3MODE, (_ORIGINS,)),
    (VACUUM_3MODE, 1.7),
    (VACUUM_3MODE, np.linspace(0.0, 7.0, 15).reshape(3, 5)),
    (VACUUM_3MODE, ()),
    (VACUUM_3MODE, (_ORIGINS,)),
], ids=["thermal-scalar", "thermal-array", "thermal-lattice", "thermal-origins",
        "vacuum-scalar", "vacuum-array", "vacuum-lattice", "vacuum-origins"])
def test_any_order_or_subset_of_parts_equals_the_one_part_calls(model, t):
    # each part takes a product over the modes of its own, of one shape
    # whatever comes with it, so its bits do not depend on the other parts:
    # at plain times (RateFunctions.sums) and on a lattice (_channel_sums),
    # without origins (a tuple t of none) or with them, also with one live
    # channel (the vacuum), where a plain time's product is one column wide
    rates = rate_functions(model)
    if isinstance(t, tuple):
        shape = (2, 2, 3)
        sums = lambda parts: _channel_sums(rates, parts, _STARTS, _OFFSETS)(*t)
    else:
        shape = np.shape(t)
        sums = lambda parts: rates.sums(t, parts)
    alone = {part: [value for (value,) in sums((part,))] for part in ALL_PARTS}
    for size in range(1, len(ALL_PARTS) + 1):
        for parts in itertools.permutations(ALL_PARTS, size):
            for channel, values in enumerate(sums(parts)):
                for part, value in zip(parts, values):
                    assert np.shape(value) == shape
                    assert np.array_equal(value, alone[part][channel]), (parts, part)


def test_shift_integral_on_a_lattice_equals_sums_at_the_lattice_times():
    rates = rate_functions(THERMAL_3MODE)
    starts, offsets = np.array([[0.0, 0.9], [2.0, 3.1]]), np.array([[0.0, 0.1, 0.2]])
    origins = np.array([0.0, 1.25])
    for evaluate, t in ((lambda f: f(), lattice_times(starts, offsets)),
                        (lambda f: f(origins), lattice_times(origins[:, None] + starts, offsets))):
        lattice = evaluate(_channel_sums(rates, ("shift_integral", "decay"), starts, offsets))
        plain = rates.sums(t, ("shift_integral",))
        for on_lattice, (at_times,) in zip(lattice, plain):
            assert on_lattice[0].shape == t.shape
            assert np.array_equal(on_lattice[0], at_times)


# -- effective hamiltonian and element ODEs ---------------------------------------

def test_effective_hamiltonian_zero_time_and_resonant():
    model = SpinBosonModel(1.0, [(1.0, 0.1)], 0.7)
    r = rate_functions(model)
    assert np.max(np.abs(second_order_hamiltonian(r, 0.0))) == 0.0
    # resonant mode: both shifts vanish for all times
    assert np.max(np.abs(second_order_hamiltonian(r, 2.9))) == 0.0


def test_effective_hamiltonian_vacuum_structure():
    model = SpinBosonModel(1.0, [(1.5, 0.2)], math.inf)
    r = rate_functions(model)
    t = 1.3
    h = second_order_hamiltonian(r, t)
    _, (shift,) = r.sums(t, ("shift",))
    assert np.allclose(h, -shift * PROJ_UP, atol=1e-15)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_element_ode_zero_rates():
    model = SpinBosonModel(1.0, [(1.3, 0.1)], 1.0)
    assert np.max(np.abs(element_ode_matrix(rate_functions(model), 0.0))) == 0.0


def test_element_ode_population_columns_balance():
    rng = make_rng(104)
    for _ in range(5):
        mat = element_ode_matrix(rate_functions(random_model(rng)), 1.7)
        assert np.max(np.abs(mat[0] + mat[3])) == 0.0


def test_l2_closed_form_assembly_matches_generic_generator():
    # independent assembly of the dissipative part: commutator with the
    # shift hamiltonian plus the absorption and emission dissipators
    from spinboson.spin_boson import SIGMA_MINUS, SIGMA_PLUS

    rng = make_rng(110)
    for _ in range(4):
        model = random_model(rng)
        rates = rate_functions(model)
        decomp, bath = interaction_decomposition(model), bath_statistics(model)
        rho = random_density_matrix(rng, 2)
        for t in (0.6, 2.3):
            (a,), (e,) = rates.sums(t, ("decay",))
            h2 = second_order_hamiltonian(rates, t)
            assembled = (-1j * (h2 @ rho - rho @ h2)
                         - a * (PROJ_DOWN @ rho + rho @ PROJ_DOWN
                                - 2.0 * SIGMA_PLUS @ rho @ SIGMA_MINUS)
                         - e * (PROJ_UP @ rho + rho @ PROJ_UP
                                - 2.0 * SIGMA_MINUS @ rho @ SIGMA_PLUS))
            generic = rhs(decomp, bath, rho, t)
            assert np.max(np.abs(assembled - generic)) <= 1e-8


def test_element_ode_matches_generic_generator():
    rng = make_rng(105)
    units = matrix_units(2)
    for _ in range(5):
        model = random_model(rng)
        rates = rate_functions(model)
        decomp, bath = interaction_decomposition(model), bath_statistics(model)
        for t in (0.0, 0.9, 3.1):
            ode = element_ode_matrix(rates, t)
            generic = np.zeros((4, 4), dtype=complex)
            for col, unit in enumerate(units):
                generic[:, col] = rhs(decomp, bath, unit, t).ravel()
            assert np.max(np.abs(ode - generic)) <= 1e-10


# -- closed-form solutions ---------------------------------------------------------

def test_coherence_solution_trivials():
    model = SpinBosonModel(1.0, [(1.2, 0.1)], 1.0)
    r = rate_functions(model)
    z0 = 0.3 - 0.2j
    assert coherence_solution(z0, r, 0.0) == pytest.approx(z0)
    silent = rate_functions(SpinBosonModel(1.0, [(1.2, 0.0)], 1.0))
    assert coherence_solution(z0, silent, 5.0) == pytest.approx(z0)


def test_coherence_amplitude_envelope():
    model = SpinBosonModel(1.0, [(0.8, 0.1), (1.5, 0.07)], 1.4)
    r = rate_functions(model)
    z0 = 0.4 + 0.1j
    t = np.linspace(0.0, 6.0, 25)
    (absorption,), (emission,) = r.sums(t, ("decay_integral",))
    envelope = abs(z0) * np.exp(-4.0 * (absorption + emission))
    assert np.max(np.abs(np.abs(coherence_solution(z0, r, t)) - envelope)) <= 1e-14


def test_population_solution_trivials():
    silent = rate_functions(SpinBosonModel(1.0, [(1.2, 0.0)], 1.0))
    assert population_solution(0.77, silent, 0.0) == 0.77
    assert population_solution(0.77, silent, 4.0) == pytest.approx(0.77, abs=1e-14)
    # any array shape comes back in the same shape, element by element
    rates = rate_functions(SpinBosonModel(1.0, [(0.8, 0.1), (1.2, 0.07)], 1.0))
    t = np.array([[0.0, 1.0, 2.5], [4.0, 6.0, 9.0]])
    out = population_solution(0.6, rates, t)
    assert out.shape == t.shape
    assert out[0, 0] == 0.6
    assert [population_solution(0.6, rates, tv) for tv in t.ravel()] == out.ravel().tolist()


@pytest.mark.parametrize("mode_count, calls", [(2, 1), (400, 10)])
def test_population_solution_batches_samples_within_the_budget(monkeypatch, mode_count,
                                                               calls):
    # a few-mode bath takes all samples' Simpson lattices in one kernel call,
    # a many-mode bath one sample a call, so that the phase tables stay
    # bounded; a sample's value does not depend on its batch
    import spinboson.spin_boson as spin_boson
    disc = SpectralDiscretization(ohmic_density(0.01, 5.0), 0.01, 10.0, mode_count)
    rates = rate_functions(disc.build_model(1.0, 1.0))
    grid = np.linspace(0.0, 5.0, 11)
    alone = [population_solution(0.7, rates, tv) for tv in grid]
    batches = []

    def recording(rates, parts, steps, offsets):
        batches.append(len(offsets))
        return channel_sums(rates, parts, steps, offsets)

    channel_sums = spin_boson._channel_sums
    monkeypatch.setattr(spin_boson, "_channel_sums", recording)
    out = population_solution(0.7, rates, grid)
    assert len(batches) == calls and sum(batches) == 10
    for samples in batches:
        assert (samples * 420 * mode_count <= spin_boson._POPULATION_BUDGET
                or samples == 1)
    assert out.tolist() == alone


def population_by_scipy_simpson(rho00_0, rates, tv, panels=400):
    """The variation-of-parameters population with scipy's Simpson rule."""
    if tv == 0.0:
        return rho00_0
    nodes = np.linspace(0.0, tv, panels + 1)
    (decay, absorption), (_, emission) = rates.sums(nodes, ("decay", "decay_integral"))
    running = 8.0 * (absorption + emission)
    integrand = 8.0 * decay * np.exp(running - running[-1])
    return rho00_0 * math.exp(-running[-1]) + float(simpson(integrand, x=nodes))


@pytest.mark.parametrize("model", [
    SpinBosonModel(1.0, [(0.8, 0.1), (1.2, 0.07)], 1.0),
    SpectralDiscretization(ohmic_density(0.01, 5.0), 0.01, 10.0, 400).build_model(1.0, math.inf),
], ids=["thermal_2mode", "ohmic_400_vacuum"])
def test_population_solution_matches_scipy_simpson(model):
    rates = rate_functions(model)
    grid = np.linspace(0.0, 20.0, 41)
    expected = [population_by_scipy_simpson(0.7, rates, tv) for tv in grid]
    assert np.max(np.abs(population_solution(0.7, rates, grid) - expected)) <= 1e-14


def test_population_high_temperature_closed_form():
    # with emission set equal to absorption, the population relaxes to 1/2
    # with the doubled exponent
    model = SpinBosonModel(1.0, [(0.9, 0.2), (1.1, 0.15)], 0.8)
    base = rate_functions(model)
    equal = RateFunctions(base.detunings, absorption=base.absorption, emission=base.absorption)
    for rho0 in (0.5, 0.9, 0.1):
        for t in (0.7, 2.0):
            expected = 0.5 + (rho0 - 0.5) * math.exp(
                -16.0 * base.sums(t, ("decay_integral",))[0][0])
            assert population_solution(rho0, equal, t) == pytest.approx(expected, abs=1e-8)
    # starting at 1/2 stays at 1/2 (up to the inner Simpson error)
    assert population_solution(0.5, equal, 3.0) == pytest.approx(0.5, abs=1e-8)


def test_population_zero_temperature_closed_form():
    model = SpinBosonModel(1.0, [(1.0, 0.1), (1.6, 0.05)], math.inf)
    r = rate_functions(model)
    for t in (0.0, 1.0, 5.0):
        expected = 0.8 * math.exp(-8.0 * r.sums(t, ("decay_integral",))[1][0])
        assert population_solution(0.8, r, t) == pytest.approx(expected, abs=1e-12)
    # the lower level is a fixed point
    assert population_solution(0.0, r, 5.0) == 0.0


def test_rk4_matches_closed_forms():
    model = SpinBosonModel(1.0, [(0.8, 0.1), (1.0, 0.08), (1.3, 0.06)], 1.1)
    rates = rate_functions(model)
    decomp, bath = interaction_decomposition(model), bath_statistics(model)
    rho0 = np.array([[0.6, 0.3 + 0.1j], [0.3 - 0.1j, 0.4]], dtype=complex)
    grid = np.linspace(0.0, 5.0, 26)
    traj = propagate(decomp, bath, rho0, grid)
    coh = coherence_solution(rho0[0, 1], rates, grid)
    pop = population_solution(rho0[0, 0].real, rates, grid)
    assert np.max(np.abs(traj.states[:, 0, 1] - coh)) <= 1e-6
    assert np.max(np.abs(traj.states[:, 0, 0].real - pop)) <= 1e-6
    assert np.max(np.abs(traj.states[:, 1, 0] - np.conj(coh))) <= 1e-6
    assert np.max(np.abs(traj.states[:, 1, 1].real - (1.0 - pop))) <= 1e-6


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: population_solution's fixed 400 "
                   "Simpson panels miss the layer of width t / I(t) next to s = t on a hot, "
                   "strongly coupled bath; here they are off by 1.72e-3 at t = 4")
def test_population_solution_resolves_a_hot_strongly_coupled_bath():
    # ROADMAP item 1's counterexample: I(4) = 214, and automatic RK4 takes
    # 4870 substeps at an error estimate of 6.3e-15
    model = SpinBosonModel(1.0, [(0.674, 0.148), (1.321, 0.251), (2.419, 0.097)], 0.0416)
    traj = propagate(interaction_decomposition(model), bath_statistics(model),
                     np.diag([0.5, 0.5]), [0.0, 4.0])
    assert traj.metadata["error_estimate"] <= 1e-13
    expected = traj.states[-1, 0, 0].real
    assert population_solution(0.5, rate_functions(model), 4.0) == pytest.approx(expected,
                                                                                 abs=1e-9)


def test_element_system_rk4_matches_closed_forms():
    # integrate the four-component element system directly with RK4 and
    # compare against the closed-form coherence and population
    model = SpinBosonModel(1.0, [(0.8, 0.1), (1.1, 0.07)], 1.2)
    rates = rate_functions(model)
    v = np.array([0.6, 0.3 + 0.1j, 0.3 - 0.1j, 0.4], dtype=complex)
    rho00_0, rho01_0 = v[0].real, v[1]
    grid = np.linspace(0.0, 5.0, 21)
    substeps = 200
    samples = [v.copy()]
    for t0, t1 in zip(grid, grid[1:]):
        h = (t1 - t0) / substeps
        t = t0
        for _ in range(substeps):
            k1 = element_ode_matrix(rates, t) @ v
            k2 = element_ode_matrix(rates, t + h / 2) @ (v + h / 2 * k1)
            k3 = element_ode_matrix(rates, t + h / 2) @ (v + h / 2 * k2)
            k4 = element_ode_matrix(rates, t + h) @ (v + h * k3)
            v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        samples.append(v.copy())
    samples = np.array(samples)
    assert np.max(np.abs(samples[:, 1] - coherence_solution(rho01_0, rates, grid))) <= 1e-6
    assert np.max(np.abs(samples[:, 0].real - population_solution(rho00_0, rates, grid))) <= 1e-6
    assert np.max(np.abs(samples[:, 0] + samples[:, 3] - 1.0)) <= 1e-9  # unit trace


def test_high_temperature_occupation_shift_is_small():
    # occupations >= 100 make the +1 in the emission weights a <= 2% effect
    # on every element of the trajectory
    beta = 0.002
    model = SpinBosonModel(1.0, [(0.9, 0.01), (1.0, 0.01), (1.1, 0.01)], beta)
    assert model.occupations().min() >= 100.0
    base = rate_functions(model)
    modified = RateFunctions(base.detunings, absorption=base.absorption,
                             emission=base.absorption)
    grid = np.linspace(0.0, 4.0, 41)
    z0 = 0.25 + 0.15j
    for r0 in (1.0, 0.3):
        pop_a = population_solution(r0, base, grid)
        pop_b = population_solution(r0, modified, grid)
        assert np.max(np.abs(pop_a - pop_b)) <= 0.02
        coh_a = coherence_solution(z0, base, grid)
        coh_b = coherence_solution(z0, modified, grid)
        assert np.max(np.abs(coh_a - coh_b)) <= 0.02


# -- vacuum limit -------------------------------------------------------------------

def test_vacuum_rates_trivials_and_resonant():
    model = SpinBosonModel(1.0, [(1.0, 0.1)], math.inf)
    decay, shift = vacuum_rates(model, 0.0)
    assert decay == 0.0 and shift == 0.0
    decay, shift = vacuum_rates(model, 3.0)
    assert decay == pytest.approx(2.0 * 0.01 * 3.0, abs=1e-14)  # 2 g^2 t on resonance
    assert shift == 0.0


def test_vacuum_rates_reject_finite_beta():
    with pytest.raises(ValueError):
        vacuum_rates(SpinBosonModel(1.0, [(1.0, 0.1)], 1.0), 1.0)


def test_vacuum_rhs_matches_generic_generator():
    model = SpinBosonModel(1.0, [(0.7, 0.12), (1.1, 0.05), (1.9, 0.08)], math.inf)
    decomp, bath = interaction_decomposition(model), bath_statistics(model)
    rng = make_rng(106)
    for t in (0.3, 1.1, 4.2):
        for rho in (random_density_matrix(rng, 2), *matrix_units(2)):
            diff = vacuum_rhs(model, rho, t) - rhs(decomp, bath, rho, t)
            assert np.max(np.abs(diff)) <= 1e-8
    # a stack of states at an array of times, from one rate evaluation,
    # equals the states one at a time
    t = np.array([0.3, 1.1, 4.2])
    states = np.array([random_density_matrix(rng, 2), *matrix_units(2)])
    stacked = vacuum_rhs(model, states, t)
    assert stacked.shape == (3, 5, 2, 2)
    for k, rho in enumerate(states):
        assert np.array_equal(stacked[:, k], vacuum_rhs(model, rho, t))


# -- constant-rate limit --------------------------------------------------------------

def test_markov_rates_vacuum_and_difference():
    disc = SpectralDiscretization(ohmic_density(0.01, 5.0), 0.01, 10.0, 100)
    vac = disc.build_model(1.0, math.inf)
    absorption, emission = markov_rates(disc, vac)
    assert absorption == 0.0
    assert emission == pytest.approx(math.pi * disc.spectral_density(1.0), rel=1e-14)
    thermal = disc.build_model(1.0, 1.0)
    a_t, e_t = markov_rates(disc, thermal)
    assert e_t - a_t == pytest.approx(math.pi * disc.spectral_density(1.0), rel=1e-14)


def test_markov_rates_ohmic_value():
    # eta=0.01, omega0=1, omega_c=5, beta=1:
    # pi * 0.01 * exp(-1/5) * 1/(e - 1), frozen from the direct formula
    disc = SpectralDiscretization(ohmic_density(0.01, 5.0), 0.01, 10.0, 400)
    model = disc.build_model(1.0, 1.0)
    absorption, _ = markov_rates(disc, model)
    assert absorption == pytest.approx(0.014969130654454411, rel=1e-13)


def test_markov_rates_reject_omega0_outside_band():
    disc = SpectralDiscretization(flat_density(0.01), 2.0, 3.0, 10)
    with pytest.raises(ValueError):
        markov_rates(disc, SpinBosonModel(1.0, [(2.5, 0.1)], 1.0))


def test_markov_plateau_of_time_resolved_rate():
    # dense discretization: the time-resolved emission decay settles on the
    # resonance value within 10% once t * omega_c >> 1
    disc = SpectralDiscretization(ohmic_density(0.01, 5.0), 0.01, 10.0, 400)
    model = disc.build_model(1.0, 1.0)
    _, plateau = markov_rates(disc, model)
    rates = rate_functions(model)
    window = np.linspace(37.5, 50.0, 26)
    _, (resolved,) = rates.sums(window, ("decay",))
    assert np.max(np.abs(resolved - plateau)) <= 0.10 * plateau


# -- discretization -------------------------------------------------------------------

def test_discretization_couplings():
    disc = SpectralDiscretization(ohmic_density(0.05, 3.0), 0.5, 2.5, 8)
    assert disc.delta_omega == pytest.approx(0.25)
    modes = disc.modes()
    assert len(modes) == 8
    for omega, g in modes:
        assert g * g == pytest.approx(disc.spectral_density(omega) * disc.delta_omega,
                                      rel=1e-12)
    # midpoint grid stays inside the band
    assert modes[0][0] > 0.5 and modes[-1][0] < 2.5


def test_bath_correlation_repeats_at_the_recurrence_time():
    # sum_k g_k^2 exp(-i omega_k t) of the ohmic_400 band at 40 modes: back
    # to its size at t = 0 after 2 pi / delta_omega, a hundredth of it half
    # way there
    disc = SpectralDiscretization(ohmic_density(0.01, 5.0), 0.01, 10.0, 40)
    omega, g = np.array(disc.modes()).T
    correlation = lambda t: abs(np.sum(g ** 2 * np.exp(-1j * omega * t)))
    assert disc.recurrence_time == pytest.approx(2 * math.pi * 40 / 9.99, rel=1e-15)
    assert correlation(disc.recurrence_time) == pytest.approx(correlation(0.0), rel=1e-12)
    assert correlation(disc.recurrence_time / 2) < 0.02 * correlation(0.0)


def test_discretization_validation():
    with pytest.raises(ValueError):
        SpectralDiscretization(flat_density(0.1), 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        SpectralDiscretization(flat_density(0.1), 0.0, 1.0, 0)
    bad = SpectralDiscretization(lambda w: -1.0, 0.5, 1.5, 4)
    with pytest.raises(ValueError):
        bad.modes()


@pytest.mark.parametrize("count", [2.5, 3.0, True, 0, -2])
def test_discretization_rejects_non_integral_mode_counts(count):
    # 2.5 on [0, 1] would give 3 modes with delta_omega = 0.4, the last one
    # on the band edge, and True one mode
    with pytest.raises(ValueError, match="mode_count must be a positive integer"):
        SpectralDiscretization(flat_density(0.1), 0.0, 1.0, count)


def test_discretization_accepts_numpy_integers():
    disc = SpectralDiscretization(flat_density(0.1), 0.0, 1.0, np.int64(4))
    assert disc.delta_omega == 0.25
    assert len(disc.modes()) == 4


# -- bath statistics invariants ----------------------------------------------------------

def test_correlations_satisfy_hermitian_pairing():
    # adjoint-partner pairing 0 <-> 1: conj(C_jk(t,s)) = C_(kbar,jbar)(s,t)
    rng = make_rng(107)
    model = random_model(rng, vacuum_chance=0.0)
    bath = bath_statistics(model)
    partner = {0: 1, 1: 0}
    for _ in range(6):
        t, s = rng.uniform(0, 4, size=2)
        for j in range(2):
            for k in range(2):
                lhs = np.conj(bath.correlation(j, k, t, s))
                rhs_val = bath.correlation(partner[k], partner[j], s, t)
                assert lhs == pytest.approx(rhs_val, abs=1e-12)


def test_integrated_correlations_match_quadrature():
    model = SpinBosonModel(1.0, [(0.8, 0.1), (1.4, 0.06)], 1.3)
    bath = bath_statistics(model)
    t = 2.2
    forward, reverse = np.moveaxis(
        bath.integrals(np.zeros(1), np.zeros(1))(np.array([t]))[:, 0, 0], -3, 0)
    s = np.linspace(0.0, t, 2001)
    for j, k in ((0, 1), (1, 0)):
        fwd = complex(simpson(np.array([bath.correlation(j, k, t, sv) for sv in s]), x=s))
        rev = complex(simpson(np.array([bath.correlation(j, k, sv, t) for sv in s]), x=s))
        assert forward[0, j, k] == pytest.approx(fwd, abs=1e-8)
        assert reverse[0, j, k] == pytest.approx(rev, abs=1e-8)
    assert forward[0, 0, 0] == forward[0, 1, 1] == 0j
    assert reverse[0, 0, 0] == reverse[0, 1, 1] == 0j
