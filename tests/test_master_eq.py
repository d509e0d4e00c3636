import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinboson.master_eq as master_eq
from spinboson.master_eq import (BathStatistics, InteractionDecomposition,
                                 TraceDriftError, Trajectory, generator_matrix,
                                 propagate, propagate_scaled, rhs, stage_generators)
from spinboson.spin_boson import (SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, SpectralDiscretization,
                                  SpinBosonModel, bath_statistics, coherence_solution,
                                  interaction_decomposition, ohmic_density,
                                  rate_functions)

from helpers import (make_rng, quadrature_bath, random_complex,
                     random_density_matrix, random_hermitian)

def silent_bath(n_terms=2):
    """All correlations zero."""
    return quadrature_bath(n_terms, correlation=lambda j, k, t, s: 0j)


def thermal_pair(beta=1.2):
    model = SpinBosonModel(1.0, [(0.8, 0.07), (1.3, 0.05)], beta)
    return model, interaction_decomposition(model), bath_statistics(model)


def ohmic_vacuum():
    """The 400-mode ohmic vacuum discretization of the ohmic_400 benchmark,
    with its grid of 10 intervals of 5 at 128 substeps: phases up to about
    225 rad."""
    disc = SpectralDiscretization(ohmic_density(0.01, 5.0), 0.01, 10.0, 400)
    model = disc.build_model(1.0, math.inf)
    return model, interaction_decomposition(model), bath_statistics(model)


OHMIC_GRID, OHMIC_SUBSTEPS = np.linspace(0.0, 50.0, 11), 128


def ulp_grid(times, i=7):
    """``times`` with grid point ``i`` moved up by one ulp: the steps are no
    longer bit-equal."""
    times = np.array(times)
    times[i] = np.nextafter(times[i], math.inf)
    return times


def complex_form(real):
    """The complex matrices whose real forms are ``real``, shape
    ``(..., 2 D, 2 D)``, after checking that every entry is a block
    ``[[x, -y], [y, x]]``."""
    x, y = real[..., ::2, ::2], real[..., 1::2, ::2]
    assert np.array_equal(real[..., 1::2, 1::2], x)
    assert np.array_equal(real[..., ::2, 1::2], -y)
    return x + 1j * y


def patched_generator(generator):
    """A stand-in for ``stage_generators`` giving the real form of the
    constant complex ``generator`` at every stage time."""
    real = master_eq._real_form(np.asarray(generator, dtype=complex))

    def stage_generators(decomp, bath, times, substeps, factors):
        return lambda first, stop: np.broadcast_to(
            real, np.shape(factors) + (stop - first, 2 * substeps + 1) + real.shape)

    return stage_generators


# -- generator basis -------------------------------------------------------------

def test_superoperators_match_kron_construction():
    rng = make_rng(11)
    for d, n in ((2, 2), (3, 3)):
        terms = tuple(random_complex(rng, (d, d)) for _ in range(n))
        eye = np.eye(d)
        forward = [np.kron(b, a.T) - np.kron(a @ b, eye) for a in terms for b in terms]
        reverse = [np.kron(b, a.T) - np.kron(eye, (a @ b).T) for a in terms for b in terms]
        expected = np.array(forward + reverse)
        assert np.array_equal(InteractionDecomposition(terms).superoperators, expected)


# -- second-order generator -----------------------------------------------------

def test_l2_zero_correlations_and_zero_time():
    model, decomp, bath = thermal_pair()
    rho = np.diag([0.6, 0.4]).astype(complex)
    assert np.max(np.abs(rhs(decomp, silent_bath(), rho, 1.0))) == 0.0
    assert np.max(np.abs(rhs(decomp, bath, rho, 0.0))) == 0.0


def test_l2_trace_free():
    _, decomp, bath = thermal_pair()
    rng = make_rng(5)
    for _ in range(5):
        rho = random_density_matrix(rng, 2)
        out = rhs(decomp, bath, rho, 1.3)
        assert abs(np.trace(out)) <= 1e-10


def test_exact_hook_matches_simpson_quadrature():
    # same physics through the closed-form hooks and through the generic
    # Simpson path; agreement is limited only by quadrature error
    model, decomp, bath = thermal_pair()
    quad_bath = quadrature_bath(2, correlation=bath.correlation)
    rng = make_rng(6)
    rho = random_density_matrix(rng, 2)
    for t in (0.2, 1.0, 2.5):
        a = rhs(decomp, bath, rho, t)
        b = rhs(decomp, quad_bath, rho, t)
        assert np.max(np.abs(a - b)) <= 1e-8


# -- full right-hand side -------------------------------------------------------

def test_rhs_zero_bath():
    decomp = InteractionDecomposition(terms=(SIGMA_Z, SIGMA_Z))
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.max(np.abs(rhs(decomp, silent_bath(), rho, 2.0))) == 0.0


def test_rhs_preserves_hermiticity_and_trace():
    _, decomp, bath = thermal_pair()
    rng = make_rng(8)
    for _ in range(10):
        rho = random_hermitian(rng, 2)
        out = rhs(decomp, bath, rho, 0.8)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-10
        assert abs(np.trace(out)) <= 1e-10


def test_rhs_linearity():
    _, decomp, bath = thermal_pair()
    rng = make_rng(9)
    r1 = random_density_matrix(rng, 2)
    r2 = random_density_matrix(rng, 2)
    a, b = 0.4 - 1.1j, 0.8 + 0.3j
    lhs = rhs(decomp, bath, a * r1 + b * r2, 1.7)
    rhs_combo = a * rhs(decomp, bath, r1, 1.7) + b * rhs(decomp, bath, r2, 1.7)
    assert np.max(np.abs(lhs - rhs_combo)) <= 1e-12


def test_generator_matrix_reproduces_action():
    _, decomp, bath = thermal_pair()
    rng = make_rng(10)
    rho = random_density_matrix(rng, 2)
    mat = generator_matrix(decomp, bath, 1.2)
    assert np.allclose(mat @ rho.ravel(), rhs(decomp, bath, rho, 1.2).ravel(), atol=1e-13)


# -- propagation ---------------------------------------------------------------

def test_propagate_zero_generator_is_constant():
    decomp = InteractionDecomposition(terms=(SIGMA_Z,))
    bath = silent_bath(1)
    rho0 = np.array([[0.8, 0.1j], [-0.1j, 0.2]], dtype=complex)
    traj = propagate(decomp, bath, rho0, np.linspace(0, 3, 7))
    assert traj.metadata["substeps"] == master_eq._PILOT_SUBSTEPS
    assert traj.metadata["error_estimate"] == 0.0
    assert np.max(np.abs(traj.states - rho0)) == 0.0


def test_propagate_single_point_grid():
    _, decomp, bath = thermal_pair()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = propagate(decomp, bath, rho0, [0.0])
    assert traj.states.shape == (1, 2, 2)
    assert np.array_equal(traj.states[0], rho0)
    # the same validation and metadata as any other grid
    assert traj.metadata["substeps"] == 0
    assert traj.metadata["error_estimate"] == 0.0
    assert np.array_equal(traj.metadata["min_eigenvalue"], [0.0])
    fixed = propagate(decomp, bath, rho0, [0.0], substeps=4)
    assert fixed.metadata["substeps"] == 0
    assert "error_estimate" not in fixed.metadata
    assert np.array_equal(fixed.metadata["min_eigenvalue"], [0.0])


def test_propagate_validates_initial_state():
    _, decomp, bath = thermal_pair()
    grid = np.linspace(0, 1, 3)
    with pytest.raises(ValueError):
        propagate(decomp, bath, np.array([[0.5, 1.0], [0.0, 0.5]]), grid)  # not Hermitian
    with pytest.raises(ValueError):
        propagate(decomp, bath, np.diag([0.9, 0.9]).astype(complex), grid)  # trace 1.8
    with pytest.raises(ValueError):
        propagate(decomp, bath, np.diag([1.5, -0.5]).astype(complex), grid)  # not PSD


def test_propagate_rejects_bad_grid():
    _, decomp, bath = thermal_pair()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        propagate(decomp, bath, rho0, [0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        propagate(decomp, bath, rho0, [0.0, 1.0], substeps=0)


@pytest.mark.parametrize("times", [[1.0, 2.0], [1.0], [-0.5, 0.0, 0.5]])
def test_propagate_starts_at_zero(times):
    # rho0 is the state at t = 0, where the bath's integrals start: a grid
    # from 1 once returned rho0 itself at t = 1
    _, decomp, bath = thermal_pair()
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    with pytest.raises(ValueError, match=r"^times must start at 0, .* got times\[0\] = "):
        propagate(decomp, bath, rho0, times)
    with pytest.raises(ValueError, match="^times must start at 0"):
        propagate_scaled(decomp, bath, rho0, times, (1.0, 0.5), substeps=4)


def test_propagate_trajectory_invariants():
    _, decomp, bath = thermal_pair()
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    traj = propagate(decomp, bath, rho0, np.linspace(0, 4, 21))
    assert np.max(traj.trace_errors()) <= 1e-9
    assert np.max(traj.hermiticity_errors()) <= 1e-9
    assert "min_eigenvalue" in traj.metadata


def test_trace_drift_aborts(monkeypatch):
    # the physical generator is traceless by construction, so drift is forced
    # here by patching the generator matrices the integrator consumes
    _, decomp, bath = thermal_pair()

    def leaky_generator(decomp, bath, times, substeps, factors=1.0):
        # the real form of 0.05 times the identity on 2x2 states
        return lambda first, stop: 0.05 * np.broadcast_to(
            np.eye(8), np.shape(factors) + (stop - first, 2 * substeps + 1, 8, 8))

    monkeypatch.setattr(master_eq, "stage_generators", leaky_generator)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(TraceDriftError) as err:
        propagate(decomp, bath, rho0, np.linspace(0, 5, 6), substeps=4)
    assert err.value.drift > 1e-6
    # the first substep of the first interval already drifts
    assert err.value.t == pytest.approx(0.25)


def test_trace_drift_aborts_on_nan(monkeypatch):
    # NaN compares false against any tolerance; the abort must still fire
    _, decomp, bath = thermal_pair()

    def nan_generator(decomp, bath, times, substeps, factors=1.0):
        return lambda first, stop: np.full(
            np.shape(factors) + (stop - first, 2 * substeps + 1, 8, 8), np.nan)

    monkeypatch.setattr(master_eq, "stage_generators", nan_generator)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(TraceDriftError) as err:
        propagate(decomp, bath, rho0, np.linspace(0, 5, 6), substeps=4)
    assert math.isnan(err.value.drift)
    assert err.value.t == pytest.approx(0.25)


@pytest.mark.parametrize("substeps", [4, None])
@pytest.mark.parametrize("bad", [[0.0, math.nan], [0.0, math.inf], [math.nan]])
def test_propagate_rejects_non_finite_times(substeps, bad):
    _, decomp, bath = thermal_pair()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="finite"):
        propagate(decomp, bath, rho0, bad, substeps=substeps)


def rk4_over_rhs(decomp, bath, rho0, times, substeps):
    """Fixed-step RK4 written directly over ``rhs``, one call per stage."""
    rho = rho0.astype(complex)
    states = [rho]
    for t0, t1 in zip(times[:-1], times[1:]):
        h = (t1 - t0) / substeps
        for j in range(substeps):
            t = t0 + j * h
            k1 = rhs(decomp, bath, rho, t)
            k2 = rhs(decomp, bath, rho + 0.5 * h * k1, t + 0.5 * h)
            k3 = rhs(decomp, bath, rho + 0.5 * h * k2, t + 0.5 * h)
            k4 = rhs(decomp, bath, rho + h * k3, t + h)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(rho)
    return np.array(states)


@pytest.mark.parametrize("beta", [1.2, math.inf])
@pytest.mark.parametrize("times", [np.linspace(0.0, 3.0, 7),
                                   np.array([0.0, 0.15, 0.9, 1.0, 2.6, 3.0])])
def test_propagate_matches_rk4_over_rhs(beta, times):
    model = SpinBosonModel(1.0, [(0.8, 0.3), (1.3, 0.25)], beta)
    decomp, bath = interaction_decomposition(model), bath_statistics(model)
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    traj = propagate(decomp, bath, rho0, times, substeps=6)
    expected = rk4_over_rhs(decomp, bath, rho0, times, 6)
    assert np.max(np.abs(traj.states - expected)) <= 1e-12


@pytest.mark.parametrize("substeps", [40, 600])
def test_propagate_batches_whole_intervals_within_the_stage_budget(monkeypatch, substeps):
    # a batch spanning the whole grid would hold every stage time's
    # generator at once; batches of whole intervals up to a fixed count of
    # stage times keep the memory bounded on any grid
    _, decomp, bath = thermal_pair()
    batches = []

    def recording_generators(decomp, bath, times, substeps, factors=1.0):
        stages = stage_generators(decomp, bath, times, substeps, factors)

        def recorded(first, stop):
            batches.append(np.array(times[first:stop]))
            return stages(first, stop)

        return recorded

    monkeypatch.setattr(master_eq, "stage_generators", recording_generators)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.linspace(0, 3, 31)
    propagate(decomp, bath, rho0, times, substeps=substeps)
    assert len(batches) > 1
    # every interval once, in order, and no interval split between batches
    assert np.array_equal(np.concatenate(batches), times[:-1])
    for starts in batches:
        assert (len(starts) * (2 * substeps + 1) <= master_eq._STAGE_BUDGET
                or len(starts) == 1)


def counting_integrals(bath):
    """``bath`` with its integrals recording the offsets of each table built
    (outer calls) and each batch of origins evaluated (inner calls)."""
    tables, batches = [], []

    def integrals(steps, offsets):
        tables.append(np.array(offsets))
        evaluate = bath.integrals(steps, offsets)

        def at(origins):
            batches.append(np.array(origins))
            return evaluate(origins)

        return at

    return dataclasses.replace(bath, integrals=integrals), tables, batches


@pytest.mark.parametrize("substeps", [40, 600])
def test_uniform_grid_builds_its_offsets_table_once(substeps):
    # bit-equal steps share one offsets row, so the bath tables the fine
    # offsets once per propagate and each batch evaluates only its starts
    _, decomp, bath = thermal_pair()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = 0.125 * np.arange(31.0)
    assert np.all(np.diff(times) == 0.125)
    counted, tables, batches = counting_integrals(bath)
    propagate(decomp, counted, rho0, times, substeps=substeps)
    # R from the stage times one row serves, capped at the batch budget
    fine = math.isqrt(min(30 * (2 * substeps + 1), master_eq._STAGE_BUDGET) - 1) + 1
    assert len(tables) == 1
    assert np.array_equal(tables[0], 0.0625 / substeps * np.arange(fine)[None, :])
    assert len(batches) > 1
    # every interval once, in order, and no interval split between batches
    assert np.array_equal(np.concatenate(batches), times[:-1])
    for starts in batches:
        assert (len(starts) * (2 * substeps + 1) <= master_eq._STAGE_BUDGET
                or len(starts) == 1)

    # steps one ulp apart take one offsets row per interval, tabled per batch
    times[7] = np.nextafter(times[7], math.inf)
    counted, tables, batches = counting_integrals(bath)
    propagate(decomp, counted, rho0, times, substeps=substeps)
    assert [len(t) for t in tables] == [len(starts) for starts in batches]


@settings(max_examples=30, deadline=None)
@given(beta=st.sampled_from([1.2, math.inf]),
       sixteenths=st.integers(1, 12), intervals=st.integers(1, 4),
       substeps=st.integers(1, 9), grid=st.sampled_from(["uniform", "ulp", "varied"]),
       varied=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
def test_propagate_with_shared_offsets_matches_rk4_over_rhs(beta, sixteenths, intervals,
                                                            substeps, grid, varied):
    # exact multiples of 1/16 give bit-equal steps, which share one offsets
    # row; a step one ulp off, or steps that differ a lot, take one row each
    model = SpinBosonModel(1.0, [(0.8, 0.3), (1.3, 0.25)], beta)
    decomp, bath = interaction_decomposition(model), bath_statistics(model)
    times = sixteenths / 16.0 * np.arange(intervals + 1.0)
    if grid == "ulp":
        times[-1] = np.nextafter(times[-1], math.inf)
    elif grid == "varied":
        times = np.concatenate([[0.0], np.cumsum(varied[:intervals])])
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    traj = propagate(decomp, bath, rho0, times, substeps=substeps)
    expected = rk4_over_rhs(decomp, bath, rho0, times, substeps)
    assert np.max(np.abs(traj.states - expected)) <= 1e-12


def test_trace_drift_names_the_substep_where_it_starts_mid_block(monkeypatch):
    # 16 substeps advance in blocks of 4; the generator turns leaky at the
    # middle stage of substep 6, the second of the second block, so the
    # substeps before it are exact identities and substep 6 drifts first
    _, decomp, bath = thermal_pair()
    substeps, onset = 16, 6

    def leaky_from_onset(decomp, bath, times, substeps, factors=1.0):
        def stages(first, stop):
            out = np.zeros(np.shape(factors) + (stop - first, 2 * substeps + 1, 8, 8))
            out[..., 2 * onset - 1:, :, :] = 0.05 * np.eye(8)
            return out
        return stages

    monkeypatch.setattr(master_eq, "stage_generators", leaky_from_onset)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(TraceDriftError) as err:
        propagate(decomp, bath, rho0, np.linspace(0, 5, 6), substeps=substeps)
    assert err.value.drift > 1e-6
    assert err.value.t == pytest.approx(onset / substeps)


def test_stage_generators_match_generator_at_stage_times():
    # the lattice of origins, coarse steps and fine offsets, trimmed, is the
    # RK4 stage times t + k h / 2 of each interval, with one row of steps and
    # offsets per interval or one shared by all of them (bit-equal steps)
    _, decomp, bath = thermal_pair()
    substeps = 7
    for times in (np.array([0.0, 0.35, 1.12, 1.26]), 0.375 * np.arange(4.0)):
        starts, steps = times[:-1], np.diff(times) / substeps
        stages = complex_form(stage_generators(decomp, bath, times, substeps, 1.0)(0, 3))
        assert stages.shape == (3, 2 * substeps + 1, 4, 4)
        for i in range(3):
            t = starts[i] + steps[i] * 0.5 * np.arange(2 * substeps + 1)
            assert np.max(np.abs(stages[i] - generator_matrix(decomp, bath, t))) <= 1e-14


@pytest.mark.parametrize("grid", ["uniform", "ulp"])
def test_stage_generators_at_ohmic_scale(grid):
    # phases up to about 225 rad, 12 coarse starts per interval from one
    # origin each (uniform), or a table per interval (one step an ulp off)
    model, decomp, bath = ohmic_vacuum()
    times = OHMIC_GRID if grid == "uniform" else ulp_grid(OHMIC_GRID)
    stages = stage_generators(decomp, bath, times, OHMIC_SUBSTEPS, 1.0)
    # the per-mode factor scale of the rates, sum_k |2 w_k / d_k|
    rates = rate_functions(model)
    scale = np.sum(np.abs(2.0 * rates.emission / rates.detunings))
    for i in range(len(times) - 1):
        step = (times[i + 1] - times[i]) / OHMIC_SUBSTEPS
        t = times[i] + step * 0.5 * np.arange(2 * OHMIC_SUBSTEPS + 1)
        got = complex_form(stages(i, i + 1)[0])
        assert np.max(np.abs(got - generator_matrix(decomp, bath, t))) <= 1e-13 * scale


@pytest.mark.parametrize("grid", ["uniform", "ulp"])
def test_origin_lattice_work_count(monkeypatch, grid):
    # on a grid of bit-equal steps each interval takes one sine and one
    # cosine per mode, of its origin; the steps and offsets are tabled once.
    # With one step an ulp off, each interval tables its own.
    model, decomp, bath = ohmic_vacuum()
    times = OHMIC_GRID if grid == "uniform" else ulp_grid(OHMIC_GRID)
    counts = {"sin": 0, "cos": 0}

    def counting(name):
        original = getattr(np, name)

        def counted(x, *args, **kwargs):
            counts[name] += np.size(x)
            return original(x, *args, **kwargs)

        return counted

    for name in counts:
        monkeypatch.setattr(np, name, counting(name))
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    propagate(decomp, bath, rho0, times, substeps=OHMIC_SUBSTEPS)
    intervals, stage_count = len(times) - 1, 2 * OHMIC_SUBSTEPS + 1
    modes = len(model.modes)
    if grid == "uniform":
        coarse, fine = master_eq.progression_lattice(stage_count, 512)
        expected = (intervals + len(coarse) + len(fine)) * modes
    else:
        coarse, fine = master_eq.progression_lattice(stage_count)
        expected = intervals * (1 + len(coarse) + len(fine)) * modes
    assert (len(coarse), len(fine)) == ((12, 23) if grid == "uniform" else (16, 17))
    # one channel pass: the vacuum's absorption channel has no weight
    assert counts == {"sin": expected, "cos": expected}


def test_hermiticity_breaking_generator_is_reported(monkeypatch):
    # rotates both coherences by the same phase: the trace is kept, the
    # Hermiticity is not, and nothing on the way symmetrizes the states
    _, decomp, bath = thermal_pair()
    monkeypatch.setattr(master_eq, "stage_generators",
                        patched_generator(np.diag([0.0, 0.1j, 0.1j, 0.0])))
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    with pytest.raises(ValueError, match="hermiticity error"):
        propagate(decomp, bath, rho0, np.linspace(0, 5, 6), substeps=4)


def test_imaginary_trace_drift_aborts(monkeypatch):
    # a phase on the whole state gives the trace an imaginary part, which
    # the trace check sees after the first substep
    _, decomp, bath = thermal_pair()
    monkeypatch.setattr(master_eq, "stage_generators", patched_generator(0.05j * np.eye(4)))
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(TraceDriftError) as err:
        propagate(decomp, bath, rho0, np.linspace(0, 5, 6), substeps=4)
    assert err.value.drift > 1e-6
    assert err.value.t == pytest.approx(0.25)


def test_default_substeps_zero_generator():
    # a zero generator needs no more than the pilot of the automatic sizing
    decomp = InteractionDecomposition(terms=(SIGMA_Z,))
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = propagate(decomp, silent_bath(1), rho0, np.linspace(0, 2, 5))
    assert traj.metadata["substeps"] == master_eq._PILOT_SUBSTEPS


@pytest.mark.parametrize("bad", [True, False, 2.5, 4.0, "4", 0, -3])
def test_propagate_rejects_non_integral_substeps(bad):
    _, decomp, bath = thermal_pair()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="substeps must be a positive integer"):
        propagate(decomp, bath, rho0, [0.0, 1.0], substeps=bad)


def test_propagate_records_an_int_substep_count():
    _, decomp, bath = thermal_pair()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = propagate(decomp, bath, rho0, np.linspace(0, 1, 3), substeps=np.int64(6))
    assert type(traj.metadata["substeps"]) is int
    assert "error_estimate" not in traj.metadata
    assert np.array_equal(traj.states,
                          propagate(decomp, bath, rho0, np.linspace(0, 1, 3), substeps=6).states)


README_MODES = [(0.8, 0.1), (1.2, 0.07)]


@pytest.mark.parametrize("modes, beta, rho0, times, max_substeps", [
    # the benchmark's thermal_2mode model
    (README_MODES, 1.0, [[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]], np.linspace(0, 1, 11), 4),
    # the model of test_rk4_matches_closed_forms
    ([(0.8, 0.1), (1.0, 0.08), (1.3, 0.06)], 1.1, [[0.6, 0.3 + 0.1j], [0.3 - 0.1j, 0.4]],
     np.linspace(0, 5, 26), None),
    # hot enough that the pilot's steps are too large for the error law
    (README_MODES, 0.01, [[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]], np.linspace(0, 1, 11), 299),
])
def test_step_doubling_estimate_tracks_the_error(modes, beta, rho0, times, max_substeps):
    model = SpinBosonModel(1.0, modes, beta)
    decomp, bath = interaction_decomposition(model), bath_statistics(model)
    rho0 = np.array(rho0, dtype=complex)
    traj = propagate(decomp, bath, rho0, times)
    reference = propagate(decomp, bath, rho0, times, substeps=4096)
    error = np.max(np.abs(traj.states - reference.states))
    estimate = traj.metadata["error_estimate"]
    assert error <= 1e-11
    assert estimate <= master_eq._ERROR_TARGET
    if error >= 1e-13:
        assert error / 3 <= estimate <= 3 * error
    if max_substeps is not None:
        assert traj.metadata["substeps"] <= max_substeps


def test_automatic_substeps_recover_from_a_drifting_pilot():
    # at beta = 1e-4 the pilot's own trace drifts; the run stops at its
    # step-doubling cap and reruns finer instead of aborting
    model = SpinBosonModel(1.0, README_MODES, 1e-4)
    decomp, bath = interaction_decomposition(model), bath_statistics(model)
    rho0 = np.array([[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]])
    times = np.linspace(0, 1, 11)
    with pytest.raises(TraceDriftError):
        propagate(decomp, bath, rho0, times, substeps=master_eq._PILOT_SUBSTEPS)
    traj = propagate(decomp, bath, rho0, times)
    assert traj.metadata["error_estimate"] <= master_eq._ERROR_TARGET
    coherence = coherence_solution(rho0[0, 1], rate_functions(model), times)
    assert np.max(np.abs(traj.states[:, 0, 1] - coherence)) <= 1e-10


def test_automatic_substeps_stop_at_the_rounding_floor(monkeypatch):
    # a target below rounding is never met; the loop ends once a rerun no
    # longer halves the estimate
    monkeypatch.setattr(master_eq, "_ERROR_TARGET", 1e-19)
    model = SpinBosonModel(1.0, README_MODES, 1.0)
    decomp, bath = interaction_decomposition(model), bath_statistics(model)
    rho0 = np.array([[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]])
    runs = []
    original = master_eq._rk4_states

    def recorded(*args):
        states, estimate = original(*args)
        runs.append((args[4], estimate))
        return states, estimate

    monkeypatch.setattr(master_eq, "_rk4_states", recorded)
    traj = propagate(decomp, bath, rho0, np.linspace(0, 1, 11))
    counts = [count for count, _ in runs]
    assert counts == sorted(set(counts)) and len(counts) >= 3
    assert runs[-1][1] > 0.5 * runs[-2][1] > 0.5e-19
    assert traj.metadata["substeps"] == counts[-1]
    assert traj.metadata["error_estimate"] == runs[-1][1]


def test_trace_drift_aborts_on_nan_with_automatic_substeps(monkeypatch):
    _, decomp, bath = thermal_pair()

    def nan_generator(decomp, bath, times, substeps, factors=1.0):
        return lambda first, stop: np.full(
            np.shape(factors) + (stop - first, 2 * substeps + 1, 8, 8), np.nan)

    monkeypatch.setattr(master_eq, "stage_generators", nan_generator)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(TraceDriftError) as err:
        propagate(decomp, bath, rho0, np.linspace(0, 5, 6))
    assert math.isnan(err.value.drift)
    assert err.value.t == pytest.approx(5 / (5 * master_eq._PILOT_SUBSTEPS))


def test_non_finite_estimate_raises_step_doubling_error(monkeypatch):
    # only the doubled steps of the pilot (its n + 1 even-indexed stage
    # generators) turn NaN, so the fine run passes its trace check
    _, decomp, bath = thermal_pair()
    original = master_eq._rk4_step_matrices

    def nan_when_doubled(stages, h):
        steps = original(stages, h)
        doubled = stages.shape[-3] == master_eq._PILOT_SUBSTEPS + 1
        return np.full_like(steps, np.nan) if doubled else steps

    monkeypatch.setattr(master_eq, "_rk4_step_matrices", nan_when_doubled)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(master_eq.StepDoublingError) as err:
        propagate(decomp, bath, rho0, np.linspace(0, 5, 6))
    assert err.value.substeps == master_eq._PILOT_SUBSTEPS
    assert math.isnan(err.value.estimate)


def test_integrator_self_convergence_is_fourth_order():
    # halving the substep should shrink the self-error ~16x; measured in the
    # asymptotic window where errors are ~1e-8, far from both the
    # pre-asymptotic and the roundoff regime
    model = SpinBosonModel(1.0, [(0.8, 0.3), (1.3, 0.25)], 1.0)
    decomp, bath = interaction_decomposition(model), bath_statistics(model)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    grid = np.array([0.0, 2.0])
    finals = {n: propagate(decomp, bath, rho0, grid, substeps=n).final_state
              for n in (64, 128, 256)}
    ratio = (np.linalg.norm(finals[64] - finals[128])
             / np.linalg.norm(finals[128] - finals[256]))
    assert 12.0 <= ratio <= 20.0


# -- several coupling scales in one pass -----------------------------------------

SCALES = (1.0, 0.5, 0.25)
BENCH_RHO0 = np.array([[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]])
FOCK_MODES = [(0.9, 0.03), (0.95, 0.03), (1.05, 0.03), (1.1, 0.03)]


def assert_matches_separate_runs(model, rho0, times, factors, substeps):
    """``propagate_scaled`` equals one ``propagate`` per scaled model, bit
    for bit, signed zeros included, with the same step metadata."""
    decomp = interaction_decomposition(model)
    joint = propagate_scaled(decomp, bath_statistics(model), rho0, times, factors,
                             substeps=substeps)
    assert len(joint) == len(factors)
    for factor, traj in zip(factors, joint):
        alone = propagate(decomp, bath_statistics(model.scaled(factor)), rho0, times,
                          substeps=substeps)
        assert traj.states.tobytes() == alone.states.tobytes()
        for key in ("substeps", "step_size", "error_estimate"):
            assert traj.metadata.get(key) == alone.metadata.get(key)
    return joint


@pytest.mark.parametrize("substeps", [4, None])
@pytest.mark.parametrize("modes, beta, times", [
    # the seed-0 models of the thermal_2mode and fock_4mode benchmarks; at
    # automatic substeps the fock model's factor-1 pilot is rejected and
    # reruns alone
    (README_MODES, 1.0, np.linspace(0, 1, 11)),
    (FOCK_MODES, 2.0, np.linspace(0, 5, 11)),
    (README_MODES, math.inf, np.linspace(0, 2, 11)),
], ids=["thermal_2mode", "fock_4mode", "vacuum"])
def test_propagate_scaled_equals_separate_runs(modes, beta, times, substeps):
    model = SpinBosonModel(1.0, modes, beta)
    assert_matches_separate_runs(model, BENCH_RHO0, times, SCALES, substeps)


def test_propagate_scaled_reruns_a_rejected_pilot_alone():
    # at beta = 0.01 the factor-1 pilot stops at the estimate cap; the
    # factors then run one at a time, as separate calls do
    model = SpinBosonModel(1.0, README_MODES, 0.01)
    joint = assert_matches_separate_runs(model, BENCH_RHO0, np.linspace(0, 1, 11), SCALES, None)
    assert joint[0].metadata["substeps"] > master_eq._PILOT_SUBSTEPS


def test_propagate_scaled_reruns_every_factor_alone_when_one_factor_stops():
    # at beta = 0.01 the factor-1 pilot stops at the estimate cap after its
    # first batch, which ends the shared pilot for every factor; each factor
    # then runs alone, in order, as separate calls do
    model = SpinBosonModel(1.0, README_MODES, 0.01)
    decomp = interaction_decomposition(model)
    times = np.linspace(0, 1, 11)
    counted, _, batches = counting_integrals(bath_statistics(model))
    joint = propagate_scaled(decomp, counted, BENCH_RHO0, times, SCALES)
    separate = []
    for factor, traj in zip(SCALES, joint):
        counted, _, alone_batches = counting_integrals(bath_statistics(model.scaled(factor)))
        alone = propagate(decomp, counted, BENCH_RHO0, times)
        assert traj.states.tobytes() == alone.states.tobytes()
        for key in ("substeps", "step_size", "error_estimate"):
            assert traj.metadata[key] == alone.metadata[key]
        separate.append(alone_batches)
    assert joint[0].metadata["substeps"] > master_eq._PILOT_SUBSTEPS
    # every run's pilot is one batch of all ten intervals
    assert all(len(b[0]) == len(times) - 1 for b in separate)
    # the shared pilot's one batch, then each factor's own batches
    own = [batch for b in separate for batch in b]
    assert len(batches) == 1 + len(own)
    assert all(np.array_equal(a, b) for a, b in zip(batches, [own[0]] + own))


def test_ohmic_propagate_stays_within_its_memory():
    # tracemalloc's peak of one 128-substep propagate of the 400-mode ohmic
    # model on its 11-point grid: the bath's decay and shift sums share one
    # offsets operand (1.05 MB when each built its own)
    import tracemalloc

    _, decomp, bath = ohmic_vacuum()
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    run = lambda: propagate(decomp, bath, rho0, OHMIC_GRID, substeps=OHMIC_SUBSTEPS)
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.85e6


@pytest.mark.parametrize("substeps", [6, None])
def test_propagate_scaled_agrees_with_scaled_baths_for_any_factor(substeps):
    # 0.3 is no power of two: the scaled coefficients and those of the
    # scaled bath differ by rounding only
    model = SpinBosonModel(1.0, README_MODES, 1.0)
    decomp = interaction_decomposition(model)
    times = np.linspace(0, 1, 11)
    joint = propagate_scaled(decomp, bath_statistics(model), BENCH_RHO0, times, (1.0, 0.3),
                             substeps=substeps)
    for factor, traj in zip((1.0, 0.3), joint):
        alone = propagate(decomp, bath_statistics(model.scaled(factor)), BENCH_RHO0, times,
                          substeps=substeps)
        assert traj.metadata["substeps"] == alone.metadata["substeps"]
        scale = np.max(np.abs(alone.states))
        assert np.max(np.abs(traj.states - alone.states)) <= 1e-14 * scale


def test_propagate_scaled_raises_the_drift_of_separate_runs(monkeypatch):
    # as in test_trace_drift_aborts: a leaking generator for every factor
    _, decomp, bath = thermal_pair()

    def leaky_generator(decomp, bath, times, substeps, factors=1.0):
        return lambda first, stop: 0.05 * np.broadcast_to(
            np.eye(8), np.shape(factors) + (stop - first, 2 * substeps + 1, 8, 8))

    monkeypatch.setattr(master_eq, "stage_generators", leaky_generator)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    times = np.linspace(0, 5, 6)
    with pytest.raises(TraceDriftError) as alone:
        propagate(decomp, bath, rho0, times, substeps=4)
    with pytest.raises(TraceDriftError) as joint:
        propagate_scaled(decomp, bath, rho0, times, SCALES, substeps=4)
    assert (joint.value.t, joint.value.drift) == (alone.value.t, alone.value.drift)
    assert str(joint.value) == str(alone.value)


@pytest.mark.parametrize("substeps", [None, 4])
def test_propagate_scaled_without_factors_evaluates_no_bath(substeps):
    # an empty factor list returns before any bath table or batch is built
    _, decomp, bath = thermal_pair()
    counted, tables, batches = counting_integrals(bath)
    times = np.linspace(0, 1, 3)
    assert propagate_scaled(decomp, counted, BENCH_RHO0, times, [], substeps=substeps) == []
    assert tables == batches == []


@pytest.mark.parametrize("factors", [[1.0, math.nan], [math.inf], [[1.0, 0.5]], 1.0])
def test_propagate_scaled_rejects_bad_factors(factors):
    _, decomp, bath = thermal_pair()
    with pytest.raises(ValueError, match="factors"):
        propagate_scaled(decomp, bath, np.diag([1.0, 0.0]), np.linspace(0, 1, 3), factors)


@settings(max_examples=25, deadline=None)
@given(modes=st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(0.0, 0.2)),
                      min_size=1, max_size=3),
       beta=st.sampled_from([0.7, 2.0, math.inf]),
       powers=st.lists(st.integers(-4, 1), min_size=1, max_size=4),
       substeps=st.sampled_from([None, 1, 3, 4]),
       intervals=st.integers(1, 6))
def test_propagate_scaled_is_separate_runs_for_powers_of_two(modes, beta, powers, substeps,
                                                             intervals):
    # a power-of-two factor scales every bath sum exactly, so one pass and
    # separate runs agree bit for bit on any model, grid and substep count
    model = SpinBosonModel(1.0, modes, beta)
    factors = [2.0 ** p for p in powers]
    assert_matches_separate_runs(model, BENCH_RHO0, np.linspace(0, 2, intervals + 1), factors,
                                 substeps)


# -- trajectory type -------------------------------------------------------------

def test_trajectory_validation_catches_bad_states():
    times = np.array([0.0, 1.0])
    good = np.broadcast_to(np.diag([0.5, 0.5]), (2, 2, 2)).astype(complex)
    assert Trajectory(times, good.copy()).metadata["min_eigenvalue"].tolist() == [0.5, 0.5]

    bad_trace = good.copy()
    bad_trace[1] = np.diag([0.6, 0.5])
    with pytest.raises(ValueError):
        Trajectory(times, bad_trace)

    bad_herm = good.copy()
    bad_herm[1, 0, 1] = 1e-6
    with pytest.raises(ValueError):
        Trajectory(times, bad_herm)


def test_trajectory_validation_catches_nan_states():
    times = np.array([0.0, 1.0])
    states = np.broadcast_to(np.diag([0.5, 0.5]), (2, 2, 2)).astype(complex)
    nan_trace = states.copy()
    nan_trace[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="trace error nan"):
        Trajectory(times, nan_trace)
    nan_herm = states.copy()
    nan_herm[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="hermiticity error nan"):
        Trajectory(times, nan_herm)


def test_decomposition_and_trajectory_reject_malformed_input():
    with pytest.raises(ValueError, match="at least one term"):
        InteractionDecomposition(terms=())
    for terms in ((SIGMA_Z, np.eye(3)), (np.ones((2, 3)),)):
        with pytest.raises(ValueError, match="one square system dimension"):
            InteractionDecomposition(terms=terms)
    states = np.broadcast_to(np.diag([0.5, 0.5]), (3, 2, 2)).astype(complex)
    with pytest.raises(ValueError, match="one state per time point"):
        Trajectory(np.array([0.0, 1.0]), states)


@pytest.mark.parametrize("substeps", [4, None])
def test_three_level_system_with_an_idle_level(substeps):
    # the spin-boson coupling on the first two levels of three: the active
    # block evolves as the two-level run scaled by its weight 1 - p, and the
    # idle level, which no term touches, keeps its population p exactly.
    # p = 1/2 scales the block exactly, so the runs differ only by the
    # rounding of the larger products
    _, decomp, bath = thermal_pair()
    embedded = np.zeros((2, 3, 3), dtype=complex)
    embedded[:, :2, :2] = SIGMA_PLUS, SIGMA_MINUS
    rho2 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    p = 0.5
    rho3 = np.zeros((3, 3), dtype=complex)
    rho3[:2, :2] = (1.0 - p) * rho2
    rho3[2, 2] = p
    grid = np.linspace(0.0, 4.0, 81)  # automatic substeps keep the pilot: 4
    two = propagate(decomp, bath, rho2, grid, substeps)
    three = propagate(InteractionDecomposition(terms=tuple(embedded)), bath, rho3, grid, substeps)
    assert three.metadata["substeps"] == two.metadata["substeps"]
    assert np.max(np.abs(three.states[:, :2, :2] - (1.0 - p) * two.states)) <= 1e-15
    assert np.all(three.states[:, 2, 2] == p)


def test_trajectory_rejects_non_finite_times():
    states = np.zeros((2, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        Trajectory(np.array([0.0, math.nan]), states)


def test_bath_whose_blocks_do_not_pair_the_terms_is_rejected():
    # one term's blocks against a two-term decomposition, non-square blocks,
    # the forward and reverse blocks as a tuple of two arrays, and the
    # forward block alone: the contract is named before any shape error
    _, decomp, bath = thermal_pair()

    def reshaped(change):
        def integrals(steps, offsets):
            at = bath.integrals(steps, offsets)
            return lambda origins: change(at(origins))
        return dataclasses.replace(bath, integrals=integrals)

    for change in (lambda f: f[..., :1, :1], lambda f: f[..., :1, :2], lambda f: f[..., :2, :1],
                   lambda f: (f[..., 0, :, :], f[..., 1, :, :]), lambda f: f[..., 0, :, :]):
        with pytest.raises(ValueError, match="one row and one column of integrals per "
                                             "decomposition term"):
            generator_matrix(decomp, reshaped(change), np.array([0.5]))
    # the forward block alone on a lattice of two offsets, whose axis could
    # pass for the forward and reverse one
    forward = reshaped(lambda f: f[..., 0, :, :])
    with pytest.raises(ValueError, match="one row and one column of integrals per "):
        propagate(decomp, forward, np.diag([1.0, 0.0]), [0.0, 1.0], substeps=1)


def test_bath_statistics_requires_integrals():
    with pytest.raises(TypeError):
        BathStatistics(correlation=lambda j, k, t, s: 0j)


def test_trajectory_requires_increasing_times():
    states = np.zeros((2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), states)
