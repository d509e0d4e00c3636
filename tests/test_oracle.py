import math
import os
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from spinboson import oracle
from spinboson.master_eq import rhs
from spinboson.oracle import (BathDimensionError, TruncatedBath,
                              TruncationError, dyson_terms,
                              exact_reduced_dynamics, exact_scaled_dynamics,
                              full_hamiltonian,
                              interaction_unitary, map_inversion_residual,
                              reduced_map_deviation, thermal_bath_state)
from spinboson.spin_boson import (SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z,
                                  SpinBosonModel, bath_statistics,
                                  interaction_decomposition)

from helpers import (bath_annihilation_ops, ladder_coupling, make_rng,
                     partial_trace, random_density_matrix)

RHO_EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
RHO_MIXED = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)


def vacuum_mode(g=0.05, omega=1.0, detune=0.0):
    return SpinBosonModel(omega, [(omega + detune, g)], math.inf)


def two_mode_vacuum(g1=0.05, g2=0.03):
    return SpinBosonModel(1.0, [(0.8, g1), (1.5, g2)], math.inf)


# -- bookkeeping ----------------------------------------------------------------

def test_bath_dimensions():
    model = two_mode_vacuum()
    bath = TruncatedBath(model, n_max=3)
    assert bath.levels == 4
    assert bath.bath_dim == 16
    assert bath.full_dim == 32


def test_dimension_cap_rejected_with_diagnostic():
    model = SpinBosonModel(1.0, [(1.0, 0.1)] * 5, math.inf)
    with pytest.raises(BathDimensionError) as err:
        TruncatedBath(model, n_max=9, dim_cap=8192)
    assert err.value.dim == 2 * 10 ** 5
    assert "lower n_max" in str(err.value)


@pytest.mark.parametrize("kwargs", [
    {"n_max": 2.5}, {"n_max": 2.0}, {"n_max": True}, {"n_max": -1},
    {"dim_cap": 8192.0}, {"dim_cap": True}, {"dim_cap": -1},
])
def test_truncated_bath_rejects_non_integral_counts(kwargs):
    # 2.5 used to fail later as an IndexError and True to run silently as 1
    with pytest.raises(ValueError, match="non-negative integer"):
        TruncatedBath(two_mode_vacuum(), **kwargs)


def test_truncated_bath_accepts_numpy_integers():
    bath = TruncatedBath(two_mode_vacuum(), n_max=np.int64(3), dim_cap=np.int32(100))
    assert bath.full_dim == 32


def test_annihilation_matrix_elements():
    model = SpinBosonModel(1.0, [(1.0, 0.1)], math.inf)
    b = bath_annihilation_ops(TruncatedBath(model, n_max=3))[0]
    for m in range(1, 4):
        assert b[m - 1, m] == pytest.approx(math.sqrt(m))
    assert np.count_nonzero(b) == 3


# -- full hamiltonian -------------------------------------------------------------

def test_full_hamiltonian_no_modes():
    model = SpinBosonModel(1.3, [], math.inf)
    h = full_hamiltonian(TruncatedBath(model, n_max=4))
    assert np.allclose(h, 0.5 * 1.3 * SIGMA_Z, atol=1e-15)


def test_full_hamiltonian_single_mode_hand_built():
    # basis |s, n> with s in {up, down}, n in {0, 1}: the coupling connects
    # |up, 0> and |down, 1> with strength 2g (factor-two ladder convention)
    omega0, omega, g = 1.0, 1.4, 0.2
    model = SpinBosonModel(omega0, [(omega, g)], math.inf)
    h = full_hamiltonian(TruncatedBath(model, n_max=1))
    hand = np.array([
        [omega0 / 2, 0, 0, 2 * g],
        [0, omega0 / 2 + omega, 0, 0],
        [0, 0, -omega0 / 2, 0],
        [2 * g, 0, 0, -omega0 / 2 + omega],
    ], dtype=complex)
    assert np.allclose(h, hand, atol=1e-15)


def test_full_hamiltonian_hermitian():
    model = SpinBosonModel(1.0, [(0.7, 0.12), (1.9, -0.08)], 2.0)
    h = full_hamiltonian(TruncatedBath(model, n_max=3))
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def test_sector_blocks_reassemble_full_hamiltonian():
    model = SpinBosonModel(1.0, [(0.7, 0.12), (1.9, -0.08), (1.1, 0.05)], 2.0)
    bath = TruncatedBath(model, n_max=2)
    h = full_hamiltonian(bath)
    blocks = list(oracle._sector_hamiltonians(bath))
    assembled = np.zeros_like(h)
    for states, energies, coupling in blocks:
        assembled[np.ix_(states, states)] = np.diag(energies) + coupling
    assert np.array_equal(assembled, h)
    # every product state sits in exactly one sector
    assert np.array_equal(np.sort(np.concatenate([s for s, _, _ in blocks])),
                          np.arange(bath.full_dim))
    # the coupling agrees with the one built from ladder operators
    assert np.allclose(h - np.diag(np.diag(h)), ladder_coupling(model, bath), atol=1e-15)


# -- thermal bath state ------------------------------------------------------------

def test_thermal_state_vacuum():
    model = two_mode_vacuum()
    state = thermal_bath_state(TruncatedBath(model, n_max=2))
    expected = np.zeros((9, 9), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(state, expected)


def test_thermal_state_geometric_weights():
    # beta*omega = ln 2: weights 1, 1/2, 1/4 normalize to 4/7, 2/7, 1/7
    model = SpinBosonModel(1.0, [(1.0, 0.1)], math.log(2.0))
    state = thermal_bath_state(TruncatedBath(model, n_max=2))
    assert np.allclose(state, np.diag([4 / 7, 2 / 7, 1 / 7]), atol=1e-15)
    assert np.trace(state).real == pytest.approx(1.0, abs=1e-15)


def test_thermal_state_ladder_averages_vanish():
    model = SpinBosonModel(1.0, [(0.9, 0.1), (1.6, 0.2)], 1.2)
    bath = TruncatedBath(model, n_max=4)
    state = thermal_bath_state(bath)
    for b in bath_annihilation_ops(bath):
        assert abs(np.trace(state @ b)) == 0.0
        assert abs(np.trace(state @ b.conj().T)) == 0.0


def test_thermal_state_product_structure():
    model = SpinBosonModel(1.0, [(1.0, 0.1), (2.0, 0.1)], 0.9)
    bath = TruncatedBath(model, n_max=2)
    state = thermal_bath_state(bath)
    single = [thermal_bath_state(TruncatedBath(SpinBosonModel(1.0, [mode], 0.9), n_max=2))
              for mode in model.modes]
    assert np.allclose(state, np.kron(single[0], single[1]), atol=1e-15)


# -- exact reduced dynamics ---------------------------------------------------------

def test_exact_dynamics_no_coupling_is_constant():
    model = SpinBosonModel(1.0, [(1.3, 0.0)], 1.0)
    traj = exact_reduced_dynamics(TruncatedBath(model, n_max=3), RHO_MIXED, np.linspace(0, 5, 11))
    assert np.max(np.abs(traj.states - RHO_MIXED)) <= 1e-12


def test_exact_dynamics_matches_rabi_formula():
    # vacuum, resonant single mode, excited start: the excitation oscillates
    # between |up, 0> and |down, 1> with matrix element 2g
    g = 0.05
    model = vacuum_mode(g=g)
    grid = np.linspace(0, 6.0, 31)
    traj = exact_reduced_dynamics(TruncatedBath(model, n_max=4), RHO_EXCITED, grid)
    assert np.max(np.abs(traj.states[:, 0, 0].real - np.cos(2 * g * grid) ** 2)) <= 1e-12
    assert np.max(np.abs(traj.states[:, 0, 1])) <= 1e-12


def test_exact_dynamics_preserves_trace_and_hermiticity():
    model = SpinBosonModel(1.0, [(0.8, 0.15), (1.4, 0.1)], 1.0)
    traj = exact_reduced_dynamics(TruncatedBath(model, n_max=4), RHO_MIXED, np.linspace(0, 3, 13))
    assert np.max(traj.trace_errors()) <= 1e-10
    assert np.max(traj.hermiticity_errors()) <= 1e-10


def test_exact_dynamics_conserves_excitation_number():
    # single-excitation vacuum run: <sigma+sigma-/4 (x) I + I (x) sum n_k>
    # commutes with the full Hamiltonian
    model = two_mode_vacuum(0.12, 0.09)
    bath = TruncatedBath(model, n_max=3)
    rho_e = thermal_bath_state(bath)
    number = np.kron(SIGMA_PLUS @ SIGMA_MINUS / 4.0, np.eye(bath.bath_dim))
    for b in bath_annihilation_ops(bath):
        number += np.kron(np.eye(2), b.conj().T @ b)
    h = full_hamiltonian(bath)
    assert np.max(np.abs(h @ number - number @ h)) <= 1e-12

    w, v = np.linalg.eigh(h)
    full0 = np.kron(RHO_EXCITED, rho_e)
    expected = np.trace(full0 @ number).real
    for t in (0.0, 1.7, 4.9):
        u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
        value = np.trace(u @ full0 @ u.conj().T @ number).real
        assert value == pytest.approx(expected, abs=1e-9)


def full_space_reduced_dynamics(model, bath, rho0, times):
    """Reference: the full co-rotating propagator on rho0 (x) rho_E, traced."""
    full0 = np.kron(rho0, thermal_bath_state(bath))
    out = []
    for t in times:
        u = interaction_unitary(bath, t)
        out.append(partial_trace(u @ full0 @ u.conj().T, (2, bath.bath_dim)))
    return np.array(out)


@pytest.mark.parametrize("model, n_max", [
    (SpinBosonModel(1.0, [(0.8, 0.15), (1.4, 0.1)], 1.0), 3),
    (vacuum_mode(g=0.2, detune=0.3), 4),
    (SpinBosonModel(1.0, [(0.9, 0.1), (1.0, 0.2), (1.2, 0.15)], 0.8), 0),
    (SpinBosonModel(1.0, [(0.9, 0.1), (1.0, 0.2), (1.2, 0.15)], 0.8), 1),
    (SpinBosonModel(1.0, [(0.9, 0.1), (1.0, 0.2), (1.2, 0.15)], 0.8), 2),
    (SpinBosonModel(1.3, [], 1.0), 4),
    (SpinBosonModel(1.0, [(1.3, 0.0), (0.7, 0.0)], 1.0), 2),
    # sectors of 1 to 54 states in buckets [1, 4, 9, 16, 25], then [36], [46],
    # [52], [54], [52], [46], [36, 25, 16] and [9, 4, 1]: the coherences cross
    # bucket boundaries in all four ways
    (SpinBosonModel(1.0, [(0.9, 0.1), (1.0, 0.2), (1.2, 0.15)], 0.8), 5),
], ids=["thermal-2mode", "vacuum-detuned", "3mode-nmax0", "3mode-nmax1",
        "3mode-nmax2", "no-modes", "zero-coupling", "3mode-bucket-boundaries"])
def test_sector_solver_matches_full_space_propagation(model, n_max):
    bath = TruncatedBath(model, n_max=n_max)
    grid = np.linspace(0, 4, 9)
    rho0 = random_density_matrix(make_rng(n_max), 2)
    traj = exact_reduced_dynamics(bath, rho0, grid)
    reference = full_space_reduced_dynamics(model, bath, rho0, grid)
    assert np.max(np.abs(traj.states - reference)) <= 1e-12


def test_exact_dynamics_forms_no_full_space_array(monkeypatch):
    model = SpinBosonModel(1.0, [(0.8, 0.15), (1.4, 0.1), (1.1, 0.05)], 1.0)
    bath = TruncatedBath(model, n_max=3)
    expected = exact_reduced_dynamics(bath, RHO_MIXED, np.linspace(0, 3, 7))
    # the deviation map and the inversion identity read the same sector pass
    expected_deviation = reduced_map_deviation(bath, RHO_MIXED, 1.3)
    expected_residual = map_inversion_residual(bath, RHO_MIXED, 1.3, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("full-space construction")

    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(oracle, "full_hamiltonian", forbidden)
    monkeypatch.setattr(np, "kron", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    traj = exact_reduced_dynamics(bath, RHO_MIXED, np.linspace(0, 3, 7))
    assert np.array_equal(traj.states, expected.states)
    # the largest sector, N = 5: 12 up states with 4 quanta, 12 down with 5
    assert max(sizes) == 24
    sizes.clear()
    assert np.array_equal(reduced_map_deviation(bath, RHO_MIXED, 1.3), expected_deviation)
    assert map_inversion_residual(bath, RHO_MIXED, 1.3, 2) == expected_residual
    assert max(sizes) == 24


@pytest.mark.parametrize("beta", [1.0, math.inf])
def test_reduced_map_takes_both_population_columns_from_one_pass(monkeypatch, beta):
    model = SpinBosonModel(1.0, [(0.8, 0.15), (1.4, 0.1), (1.1, 0.05)], beta)
    bath = TruncatedBath(model, n_max=3)
    times, factors = np.array([1.3]), np.ones(1)
    stacked = oracle._sector_sums(bath, np.eye(2), times, factors)[0]
    # the two passes from the initial populations (1, 0) and (0, 1)
    up, down = (oracle._sector_sums(bath, pair, times, factors)[0]
                for pair in np.eye(2))
    assert stacked.shape == (6, 1)
    assert np.max(np.abs(stacked[:2] - up[:2])) <= 1e-15
    assert np.max(np.abs(stacked[2:4] - down[:2])) <= 1e-15
    assert np.max(np.abs(stacked[4:] - up[2:])) <= 1e-15

    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    exact_reduced_dynamics(bath, RHO_MIXED, times)
    per_sector = list(sizes)
    sizes.clear()
    reduced_map_deviation(bath, RHO_MIXED, 1.3)
    # one eigendecomposition per sector with bath weight, as for one state
    assert sizes == per_sector


@pytest.mark.parametrize("model, n_max", [
    (SpinBosonModel(1.0, [(0.8, 0.15), (1.4, 0.1)], 1.0), 4),
    (SpinBosonModel(1.0, [(0.9, 0.1), (1.0, 0.2), (1.2, 0.15)], math.inf), 3),
    (SpinBosonModel(1.3, [], 1.0), 4),
    (SpinBosonModel(1.0, [(1.3, 0.0), (0.7, 0.0)], 1.0), 2),
], ids=["thermal-2mode", "vacuum-3mode", "no-modes", "zero-coupling"])
def test_scaled_pass_matches_one_run_per_scaled_model(model, n_max):
    factors = (1.0, 0.5, 0.25, 0.3)
    grid = np.linspace(0, 4, 9)
    rho0 = random_density_matrix(make_rng(7), 2)
    scaled = exact_scaled_dynamics(TruncatedBath(model, n_max=n_max), rho0, grid, factors)
    assert len(scaled) == len(factors)
    for factor, traj in zip(factors, scaled):
        model_f = model.scaled(factor)
        single = exact_reduced_dynamics(TruncatedBath(model_f, n_max=n_max), rho0, grid)
        assert np.max(np.abs(traj.states - single.states)) <= 1e-14
        assert traj.metadata.keys() == single.metadata.keys()


# the seed-0 models of the thermal_2mode and fock_4mode benchmarks, with
# their grids and cutoffs, and a vacuum model
BENCH_RHO0 = np.array([[0.7, 0.25 + 0.1j], [0.25 - 0.1j, 0.3]])
THERMAL_2MODE = (SpinBosonModel(1.0, [(0.8, 0.1), (1.2, 0.07)], 1.0), 6, np.linspace(0, 1, 11))
FOCK_4MODE = (SpinBosonModel(1.0, [(0.9, 0.03), (0.95, 0.03), (1.05, 0.03), (1.1, 0.03)], 2.0),
              3, np.linspace(0, 5, 11))
VACUUM_3MODE = (SpinBosonModel(1.0, [(0.9, 0.1), (1.0, 0.2), (1.2, 0.15)], math.inf), 3,
                np.linspace(0, 4, 9))


def assert_stacked_pass_is_per_factor_passes(model, n_max, times, factors, rho0=BENCH_RHO0):
    """Each trajectory of the stacked pass equals the pass of its factor
    alone, bit for bit, with the same metadata; returns the stacked pass."""
    bath = TruncatedBath(model, n_max=n_max)
    stacked = exact_scaled_dynamics(bath, rho0, times, factors)
    assert len(stacked) == len(factors)
    for factor, traj in zip(factors, stacked):
        alone = exact_scaled_dynamics(bath, rho0, times, (factor,))[0]
        assert np.array_equal(traj.states, alone.states)
        assert traj.metadata.keys() == alone.metadata.keys()
        assert np.array_equal(traj.metadata["min_eigenvalue"], alone.metadata["min_eigenvalue"])
    return stacked


@pytest.mark.parametrize("case, factors", [
    (THERMAL_2MODE, (1.0, 0.5, 0.25)),
    (FOCK_4MODE, (1.0, 0.5, 0.25)),
    (VACUUM_3MODE, (1.0, 0.5, 0.25, 0.3)),
    # 24 factors a chunk at the thermal model's largest sector, 13 states:
    # two chunks
    (THERMAL_2MODE, tuple(np.linspace(-1.5, 2.0, 40))),
], ids=["thermal_2mode", "fock_4mode", "vacuum", "thermal-two-chunks"])
def test_stacked_factors_equal_one_factor_passes(case, factors):
    model, n_max, times = case
    assert_stacked_pass_is_per_factor_passes(model, n_max, times, factors)


@pytest.mark.parametrize("case, factors, chunks", [
    (THERMAL_2MODE, (1.0, 0.5, 0.25), [3]),
    (THERMAL_2MODE, tuple(np.linspace(0.1, 2.0, 40)), [24, 16]),
    # the largest sector, 84 states, is past the budget: one factor a chunk
    (FOCK_4MODE, (1.0, 0.5, 0.25), [1, 1, 1]),
], ids=["thermal_2mode", "thermal-two-chunks", "fock_4mode"])
def test_sector_pass_takes_one_eigh_per_sector_and_chunk(monkeypatch, case, factors, chunks):
    model, n_max, times = case
    bath = TruncatedBath(model, n_max=n_max)
    calls = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    exact_reduced_dynamics(bath, BENCH_RHO0, times)
    sizes = [shape[-1] for shape in calls]  # one per sector with bath weight
    assert calls == [(1, d, d) for d in sizes]
    chunk = max(1, oracle._SECTOR_BUDGET // max(sizes) ** 2)
    assert [min(chunk, len(factors) - i) for i in range(0, len(factors), chunk)] == chunks
    calls.clear()
    exact_scaled_dynamics(bath, BENCH_RHO0, times, factors)
    assert calls == [(count, d, d) for count in chunks for d in sizes]


def test_sector_pass_buckets_small_sectors_and_leaves_large_ones_alone(monkeypatch):
    # the buckets read the sector dimensions only: neither the factor count
    # nor the number of initial population pairs (two for the reduced map)
    # moves them
    recorded = []
    buckets = oracle._buckets

    def recording(sectors, populations):
        out = buckets(sectors, populations)
        recorded.append([[len(energies) for energies, _, _ in blocks] for blocks, *_ in out])
        return out

    monkeypatch.setattr(oracle, "_buckets", recording)
    for (model, n_max, times), factors in [(THERMAL_2MODE, (1.0,)), (FOCK_4MODE, (1.0, 0.5, 0.25))]:
        exact_scaled_dynamics(TruncatedBath(model, n_max=n_max), BENCH_RHO0, times, factors)
    model, n_max, _ = THERMAL_2MODE
    reduced_map_deviation(TruncatedBath(model, n_max=n_max), RHO_MIXED, 0.5)
    thermal = [[1, 3, 5, 7, 9, 11, 13, 13, 11, 9, 7, 5, 3, 1]]
    fock = [[1, 5, 14, 30], [51], [71], [84], [84], [71], [51], [30, 14, 5, 1]]
    assert recorded == [thermal, fock, thermal]


def test_three_factor_fock_pass_stays_within_its_memory():
    # tracemalloc's peak of the three-factor pass on the fock_4mode model:
    # its largest sector takes chunks of one factor, so no temporary grows
    # with the factor count (0.990 MB before the factors were stacked)
    import tracemalloc

    model, n_max, times = FOCK_4MODE
    bath = TruncatedBath(model, n_max=n_max)
    run = lambda: exact_scaled_dynamics(bath, BENCH_RHO0, times, (1.0, 0.5, 0.25))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.990e6


@pytest.mark.parametrize("samples, bound", [(11, 0.45e6), (201, 4.2e6)])
def test_three_factor_thermal_pass_stays_within_its_memory(samples, bound):
    # tracemalloc's peak of the three-factor pass on the thermal_2mode model,
    # whose 14 sectors (at most 13 states) share one bucket, so its arrays
    # carry all 14 sectors: 0.401 MB on the model's 11 times and 3.81 MB on
    # 201, against 0.106 and 0.821 MB one sector at a time; the phases and
    # the products with them grow with the grid.  Each bound leaves 10 to
    # 12 % for numpy's temporaries, and the first fails the 0.667 MB of
    # holding both population levels' products at once
    import tracemalloc

    model, n_max, _ = THERMAL_2MODE
    bath = TruncatedBath(model, n_max=n_max)
    times = np.linspace(0, 1, samples)
    run = lambda: exact_scaled_dynamics(bath, BENCH_RHO0, times, (1.0, 0.5, 0.25))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_vacuum_pass_builds_only_the_weighted_sectors():
    # tracemalloc's peak of one pass on a 6-mode vacuum model at n_max = 3
    # (full dimension 8192, the default cap), where only sectors N = 0 and 1
    # hold bath weight: 1.74 MB when the pass builds those two blocks alone,
    # 55.0 MB when it builds all 20 sectors' dense blocks first.  The bound
    # leaves 4.6 times the first and fails the second
    import tracemalloc

    model = SpinBosonModel(1.0, [(0.7 + 0.1 * k, 0.05) for k in range(6)], math.inf)
    bath = TruncatedBath(model, n_max=3)
    assert bath.full_dim == bath.dim_cap == 8192
    run = lambda: exact_reduced_dynamics(bath, RHO_MIXED, np.linspace(0, 2, 11))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@settings(max_examples=40, deadline=None)
@given(modes=st.lists(st.tuples(st.floats(0.5, 1.5), st.floats(-0.3, 0.3)),
                      min_size=1, max_size=3),
       beta=st.sampled_from([0.5, 1.0, 3.0, math.inf]),
       n_max=st.integers(0, 3),
       factors=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_stacked_pass_is_per_factor_passes_on_small_models(modes, beta, n_max, factors):
    # on the calling thread alone and on the worker thread, whatever the
    # bucket count and the CPUs, with the same bits
    model = SpinBosonModel(1.0, modes, beta)
    runs = []
    for ahead in (0, oracle._LOOKAHEAD):
        with mock.patch.object(oracle, "_lookahead", lambda n_buckets, ahead=ahead: ahead):
            runs.append(assert_stacked_pass_is_per_factor_passes(
                model, n_max, np.linspace(0, 3, 7), factors, RHO_MIXED))
    for inline, worker in zip(*runs):
        assert np.array_equal(inline.states, worker.states)


# -- the sector pass's worker thread ----------------------------------------------

def force_lookahead(monkeypatch, ahead):
    """Run every sector pass inline (0) or ``ahead`` buckets ahead on the
    worker, whatever its bucket count and the CPUs."""
    monkeypatch.setattr(oracle, "_lookahead", lambda n_buckets: ahead)


def worker_threads():
    return [t for t in threading.enumerate() if t.name == "spinboson-eigh"]


@pytest.mark.parametrize("case, factors", [
    (FOCK_4MODE, (1.0,)),
    (FOCK_4MODE, (1.0, 0.5, 0.25)),
    (VACUUM_3MODE, (1.0, 0.5, 0.25, 0.3)),
    (THERMAL_2MODE, tuple(np.linspace(-1.5, 2.0, 40))),
], ids=["fock_4mode", "fock_4mode-three-factors", "vacuum_3mode", "thermal-two-chunks"])
@pytest.mark.parametrize("populations", [BENCH_RHO0.diagonal().real, np.eye(2)],
                         ids=["one-pair", "reduced-map-pairs"])
def test_worker_pass_equals_the_inline_pass_bit_for_bit(monkeypatch, case, factors,
                                                        populations):
    model, n_max, times = case
    bath = TruncatedBath(model, n_max=n_max)
    threads = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        threads.append(threading.current_thread())
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    sums = []
    for ahead in (0, oracle._LOOKAHEAD):
        force_lookahead(monkeypatch, ahead)
        threads.clear()
        sums.append(oracle._sector_sums(bath, populations, times, np.asarray(factors)))
        if ahead == 0:
            assert set(threads) == {threading.current_thread()}
        else:
            worker, = set(threads)
            assert worker.name == "spinboson-eigh" and worker is not threading.current_thread()
        # the pass joins its worker before it returns
        assert not worker_threads()
    assert np.array_equal(sums[0], sums[1])


@pytest.mark.parametrize("ahead", [0, oracle._LOOKAHEAD], ids=["inline", "worker"])
def test_a_failed_eigh_leaves_no_job_behind(monkeypatch, ahead):
    # the sixth eigh call of the three-factor fock_4mode pass is its third
    # bucket's (the buckets hold 4, 1, 1, ... sectors); its error reaches
    # the caller as on the calling thread, no call runs on after it, and
    # the next pass gives the same bits as before
    model, n_max, times = FOCK_4MODE
    bath = TruncatedBath(model, n_max=n_max)
    factors = (1.0, 0.5, 0.25)
    force_lookahead(monkeypatch, ahead)
    before = exact_scaled_dynamics(bath, BENCH_RHO0, times, factors)
    eigh = np.linalg.eigh
    calls, running = [], []

    def failing_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        running.append(a.shape)
        try:
            if len(calls) == 6:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        exact_scaled_dynamics(bath, BENCH_RHO0, times, factors)
    made = len(calls)
    assert not running and 6 <= made <= 6 + ahead
    assert not worker_threads()
    time.sleep(0.05)
    assert len(calls) == made
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    after = exact_scaled_dynamics(bath, BENCH_RHO0, times, factors)
    for old, new in zip(before, after):
        assert np.array_equal(old.states, new.states)


def pin_openblas(monkeypatch, cpus, threads):
    """Let ``_lookahead`` see the CPUs ``cpus`` and the thread variables
    ``threads`` alone, beside an OpenBLAS build."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in threads.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(oracle, "_BLAS", "scipy-openblas")


def test_a_one_bucket_pass_starts_no_thread(monkeypatch):
    # thermal_2mode's 14 sectors share one bucket, and so do those of the
    # reduced map on its model; fock_4mode's pass, under the same rule,
    # would start one
    def refuse(thread):
        raise AssertionError(f"a pass started the thread {thread.name}")

    pin_openblas(monkeypatch, {0, 1}, {"OPENBLAS_NUM_THREADS": "1"})
    monkeypatch.setattr(threading.Thread, "start", refuse)
    model, n_max, times = THERMAL_2MODE
    bath = TruncatedBath(model, n_max=n_max)
    exact_scaled_dynamics(bath, BENCH_RHO0, times, (1.0, 0.5, 0.25))
    reduced_map_deviation(bath, RHO_MIXED, 0.5)
    model, n_max, times = FOCK_4MODE
    with pytest.raises(AssertionError, match="spinboson-eigh"):
        exact_scaled_dynamics(TruncatedBath(model, n_max=n_max), BENCH_RHO0, times, (1.0,))


@pytest.mark.parametrize("cpus, threads, ahead", [
    ({0}, {"OPENBLAS_NUM_THREADS": "1"}, 0),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "1"}, oracle._LOOKAHEAD),
    ({0, 1}, {"GOTO_NUM_THREADS": "1"}, oracle._LOOKAHEAD),
    ({0, 1}, {"OMP_NUM_THREADS": "1,1"}, oracle._LOOKAHEAD),
    ({0, 1, 2, 3}, {"OMP_NUM_THREADS": " 2"}, oracle._LOOKAHEAD),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1"}, 0),
    ({0, 1}, {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 0),
    # OpenBLAS reads no MKL variable, so its default, a thread per CPU,
    # leaves no CPU idle
    ({0, 1}, {"MKL_NUM_THREADS": "1"}, 0),
    ({0, 1}, {}, 0),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "0"}, 0),
    ({0, 1}, {"OPENBLAS_NUM_THREADS": "one"}, 0),
], ids=["one-cpu", "two-cpus", "goto", "omp-list", "omp-space", "openblas-first",
        "goto-before-omp", "mkl-ignored", "default", "zero", "not-a-number"])
def test_the_worker_needs_two_buckets_and_a_cpu_that_blas_leaves_idle(monkeypatch, cpus,
                                                                       threads, ahead):
    pin_openblas(monkeypatch, cpus, threads)
    assert oracle._lookahead(1) == 0
    assert oracle._lookahead(8) == ahead
    # without CPU affinity, the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: len(cpus))
    assert oracle._lookahead(8) == ahead


@pytest.mark.parametrize("blas", ["mkl", "accelerate", ""])
def test_the_worker_needs_openblas(monkeypatch, blas):
    # another BLAS reads its threads from other variables, or none
    pin_openblas(monkeypatch, {0, 1}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                                       "MKL_NUM_THREADS": "1"})
    monkeypatch.setattr(oracle, "_BLAS", blas)
    assert oracle._lookahead(8) == 0


def _fock_pass_states():
    model, n_max, times = FOCK_4MODE
    traj, = exact_scaled_dynamics(TruncatedBath(model, n_max=n_max), BENCH_RHO0, times, (1.0,))
    return traj.states


def test_concurrent_passes_each_run_their_own_worker(monkeypatch):
    # more calling threads than CPUs, switching often: each pass gets its
    # own buckets' eigensystems, in order, from its own worker, and joins it
    force_lookahead(monkeypatch, oracle._LOOKAHEAD)
    expected = _fock_pass_states()
    results, errors = [], []

    def passes():
        try:
            for _ in range(3):
                results.append(_fock_pass_states())
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=passes, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(results) == 12
    assert all(np.array_equal(states, expected) for states in results)
    assert not worker_threads()


def test_scaled_pass_without_factors_is_empty():
    model = vacuum_mode()
    assert exact_scaled_dynamics(TruncatedBath(model, n_max=2), RHO_MIXED,
                                 np.linspace(0, 1, 3), []) == []


def test_scaled_pass_rejects_non_finite_factors():
    model = vacuum_mode()
    with pytest.raises(ValueError, match="finite"):
        exact_scaled_dynamics(TruncatedBath(model, n_max=2), RHO_MIXED,
                              np.linspace(0, 1, 3), (1.0, math.nan))


def test_scaled_truncation_check_raises_for_the_first_unconverged_factor(monkeypatch):
    # at zero coupling the cutoff cannot matter; at full coupling on a hot
    # bath it does, so the error carries the shift of the full-coupling run
    model = SpinBosonModel(1.0, [(1.0, 0.08)], 0.3)
    bath = TruncatedBath(model, n_max=1)
    grid = np.linspace(0, 2, 5)
    fine = exact_reduced_dynamics(bath.with_n_max(2), RHO_MIXED, grid)
    coarse = exact_reduced_dynamics(bath, RHO_MIXED, grid)
    expected = float(np.max(np.abs(coarse.states - fine.states)))
    for factors in ((0.0, 1.0), (1.0, 0.5)):
        with pytest.raises(TruncationError) as err:
            exact_scaled_dynamics(bath, RHO_MIXED, grid, factors, check_truncation=True)
        assert err.value.shift == expected
    monkeypatch.setattr(oracle, "_TRUNCATION_BOUND", 1.0)
    passed = exact_scaled_dynamics(bath, RHO_MIXED, grid, (0.0, 1.0), check_truncation=True)
    assert passed[0].metadata["truncation_shift"] <= 1e-15
    assert passed[1].metadata["truncation_shift"] == expected


def test_check_truncation_reports_the_doubled_cutoff_shift(monkeypatch):
    model = SpinBosonModel(1.0, [(1.0, 0.08)], 2.0)
    bath = TruncatedBath(model, n_max=3)
    grid = np.linspace(0, 2, 5)
    monkeypatch.setattr(oracle, "_TRUNCATION_BOUND", 1e-2)
    traj = exact_reduced_dynamics(bath, RHO_MIXED, grid, check_truncation=True)
    fine = exact_reduced_dynamics(TruncatedBath(model, n_max=6), RHO_MIXED, grid)
    shift = traj.metadata["truncation_shift"]
    assert 0.0 < shift == float(np.max(np.abs(traj.states - fine.states)))


def test_exact_dynamics_validates_initial_state():
    model = vacuum_mode()
    bath = TruncatedBath(model, n_max=2)
    grid = np.linspace(0, 1, 3)
    with pytest.raises(ValueError):
        exact_reduced_dynamics(bath, np.array([[1.0, 0.5], [0.0, 0.0]]), grid)
    with pytest.raises(ValueError):
        exact_reduced_dynamics(bath, 2 * RHO_EXCITED, grid)


@pytest.mark.parametrize("bad", [[0.0, math.nan], [0.0, math.inf], [math.nan]])
def test_exact_dynamics_rejects_non_finite_times(bad):
    model = vacuum_mode()
    with pytest.raises(ValueError, match="finite"):
        exact_reduced_dynamics(TruncatedBath(model, n_max=2), RHO_MIXED, bad)


# -- truncation convergence ----------------------------------------------------------

def test_truncation_exact_for_single_excitation_vacuum():
    model = vacuum_mode()
    traj = exact_reduced_dynamics(TruncatedBath(model, n_max=2), RHO_MIXED,
                                  np.linspace(0, 2, 5), check_truncation=True)
    assert traj.metadata["truncation_shift"] <= 1e-12


def test_truncation_invariant_on_acceptance_parameters():
    # the order-scaling acceptance set: vacuum resonant mode, n_max 4 vs 6
    model = vacuum_mode(g=0.05)
    grid = np.linspace(0, 2.0, 9)
    a = exact_reduced_dynamics(TruncatedBath(model, n_max=4), RHO_EXCITED, grid)
    b = exact_reduced_dynamics(TruncatedBath(model, n_max=6), RHO_EXCITED, grid)
    assert np.max(np.abs(a.states - b.states)) < 1e-6


def test_truncation_flagged_for_hot_bath():
    model = SpinBosonModel(1.0, [(1.0, 0.08)], 0.3)
    bath = TruncatedBath(model, n_max=1)
    with pytest.raises(TruncationError) as err:
        exact_reduced_dynamics(bath, RHO_MIXED, np.linspace(0, 2, 5), check_truncation=True)
    assert err.value.shift > 1e-6


# -- series terms of the propagator ----------------------------------------------------

def test_dyson_terms_without_scipy_name_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    model = vacuum_mode()
    with pytest.raises(ImportError, match=r"spinboson\[dyson\]"):
        dyson_terms(TruncatedBath(model, n_max=1), 0.5)


def test_dyson_terms_at_zero_time():
    model = two_mode_vacuum()
    bath = TruncatedBath(model, n_max=2)
    u0, u1, u2 = dyson_terms(bath, 0.0)
    assert np.array_equal(u0, np.eye(bath.full_dim))
    assert np.max(np.abs(u1)) == 0.0
    assert np.max(np.abs(u2)) == 0.0


def test_dyson_first_term_anti_hermitian():
    model = two_mode_vacuum(0.07, 0.11)
    bath = TruncatedBath(model, n_max=3)
    _, u1 = dyson_terms(bath, 1.7, order=1)
    assert np.max(np.abs(u1 + u1.conj().T)) <= 1e-10


def test_dyson_partial_sum_error_is_third_order():
    # || I + U1 + U2 - U_exact || drops ~8x per coupling halving
    model = vacuum_mode(g=0.06)
    t = 1.5

    def residual(factor):
        scaled = model.scaled(factor)
        bath = TruncatedBath(scaled, n_max=3)
        u0, u1, u2 = dyson_terms(bath, t)
        return np.linalg.norm(u0 + u1 + u2 - interaction_unitary(bath, t))

    r1, r2 = residual(1.0), residual(0.5)
    assert 6.0 <= r1 / r2 <= 10.0


@pytest.mark.parametrize("t", [0.4, 1.3, 3.7])
def test_dyson_terms_satisfy_second_order_unitarity(t):
    # U^dag U = 1 order by order in the coupling; at second order that is
    # U2 + U2^dag + U1^dag U1 = 0, where U1^dag U1 = U1 U1^dag (U1 is
    # anti-hermitian)
    model = SpinBosonModel(1.0, [(0.9, 0.1), (1.0, 0.2), (1.2, 0.15)], 0.8)
    _, u1, u2 = dyson_terms(TruncatedBath(model, n_max=2), t)
    assert np.max(np.abs(u2 + u2.conj().T + u1 @ u1.conj().T)) <= 1e-13


def test_dyson_terms_match_nested_quadrature():
    # reference: the co-rotating coupling g (sigma+ (x) b exp(-i d s) + h.c.),
    # built from ladder operators, integrated once and twice on nested
    # composite-Simpson grids
    g, detune = 0.2, 0.3
    model = vacuum_mode(g=g, detune=detune)
    bath = TruncatedBath(model, n_max=2)
    (b,) = bath_annihilation_ops(bath)
    lowering = g * np.kron(SIGMA_PLUS, b)
    t, panels = 1.5, 200

    def co_rotating(s):
        part = np.exp(-1j * detune * s)[:, None, None] * lowering
        return part + part.conj().transpose(0, 2, 1)

    outer = np.linspace(0.0, t, panels + 1)
    h_outer = co_rotating(outer)
    integrand = np.zeros_like(h_outer)
    for i in range(1, len(outer)):
        inner = np.linspace(0.0, outer[i], panels + 1)
        integrand[i] = h_outer[i] @ simpson(co_rotating(inner), x=inner, axis=0)

    _, u1, u2 = dyson_terms(bath, t)
    assert np.max(np.abs(u1 + 1j * simpson(h_outer, x=outer, axis=0))) <= 1e-10
    assert np.max(np.abs(u2 + simpson(integrand, x=outer, axis=0))) <= 1e-10


def test_dyson_rejects_unimplemented_orders():
    model = vacuum_mode()
    with pytest.raises(ValueError):
        dyson_terms(TruncatedBath(model, n_max=2), 1.0, order=3)


def test_interaction_unitary_properties():
    model = two_mode_vacuum()
    bath = TruncatedBath(model, n_max=2)
    assert np.allclose(interaction_unitary(bath, 0.0), np.eye(bath.full_dim), atol=1e-14)
    u = interaction_unitary(bath, 2.3)
    assert np.max(np.abs(u @ u.conj().T - np.eye(bath.full_dim))) <= 1e-12


def test_interaction_hamiltonian_at_zero_matches_schroedinger_coupling():
    # at t = 0 the co-rotating coupling is the off-diagonal part of H
    model = two_mode_vacuum(0.07, 0.11)
    bath = TruncatedBath(model, n_max=2)
    h = full_hamiltonian(bath)
    assert np.allclose(h - np.diag(np.diag(h)), ladder_coupling(model, bath), atol=1e-14)


# -- reduced map deviation ---------------------------------------------------------------

@pytest.mark.parametrize("model, n_max", [
    (SpinBosonModel(1.0, [(0.9, 0.1), (1.0, 0.2), (1.2, 0.15)], 0.8), 3),
    (two_mode_vacuum(0.2, 0.1), 4),
    (SpinBosonModel(1.0, [(1.3, 0.0), (0.7, 0.0)], 1.0), 2),
], ids=["thermal-3mode", "vacuum-2mode", "zero-coupling"])
@pytest.mark.parametrize("t", [0.0, 0.7, 2.0])
def test_deviation_map_matches_full_space_reference(model, n_max, t):
    # (Phi - I) rho against U (rho (x) rho_E) U^dag traced over the bath, on a
    # state and on a non-Hermitian operator (the map is linear on both)
    bath = TruncatedBath(model, n_max=n_max)
    u = interaction_unitary(bath, t)
    rho_e = thermal_bath_state(bath)
    operator = np.array([[0.3, 1.0 - 0.4j], [2.0j, -0.5]])
    for rho in (random_density_matrix(make_rng(n_max), 2), operator):
        full = u @ np.kron(rho, rho_e) @ u.conj().T
        reference = partial_trace(full, (2, bath.bath_dim)) - rho
        got = reduced_map_deviation(bath, rho, t)
        assert np.max(np.abs(got - reference)) <= 1e-13


@pytest.mark.parametrize("rho", [np.eye(3) / 3, np.array([0.6, 0.2, 0.2, 0.4]),
                                 np.zeros((1, 2, 2))], ids=["3x3", "flat-4", "stacked"])
def test_deviation_map_and_inversion_identity_reject_non_2x2_states(rho):
    model = vacuum_mode(g=0.1)
    bath = TruncatedBath(model, n_max=3)
    with pytest.raises(ValueError, match="2 x 2"):
        reduced_map_deviation(bath, rho, 1.0)
    with pytest.raises(ValueError, match="2 x 2"):
        map_inversion_residual(bath, rho, 1.0, 1)


def test_deviation_map_trivial_zeros():
    model = vacuum_mode(g=0.1)
    bath = TruncatedBath(model, n_max=3)
    assert np.max(np.abs(reduced_map_deviation(bath, RHO_MIXED, 0.0))) <= 1e-14
    dead = SpinBosonModel(1.0, [(1.0, 0.0)], math.inf)
    assert np.max(np.abs(reduced_map_deviation(TruncatedBath(dead, n_max=3),
                                               RHO_MIXED, 2.0))) <= 1e-13


def test_deviation_map_is_second_order_for_thermal_baths():
    model = SpinBosonModel(1.0, [(1.0, 0.08)], 1.0)

    def norm(factor):
        scaled = model.scaled(factor)
        return np.linalg.norm(
            reduced_map_deviation(TruncatedBath(scaled, n_max=8), RHO_MIXED, 1.5))

    assert 3.5 <= norm(1.0) / norm(0.5) <= 4.5
    assert 3.5 <= norm(0.5) / norm(0.25) <= 4.5


def test_deviation_derivative_matches_generator_at_small_coupling():
    # central finite difference of the deviation map vs the analytic
    # second-order generator applied to the initial state; the relative
    # error vanishes at least linearly in the coupling (quadratically here,
    # since the odd-order maps vanish for thermal baths)
    model = SpinBosonModel(1.0, [(1.0, 0.08)], 1.5)
    t, h = 1.2, 2e-4  # h = 1e-4 * t_max with t_max = 2

    def rel_err(factor):
        scaled = model.scaled(factor)
        bath = TruncatedBath(scaled, n_max=12)
        fd = (reduced_map_deviation(bath, RHO_MIXED, t + h)
              - reduced_map_deviation(bath, RHO_MIXED, t - h)) / (2 * h)
        analytic = rhs(interaction_decomposition(scaled), bath_statistics(scaled),
                       RHO_MIXED, t)
        return np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)

    r1, r2, r3 = rel_err(1.0), rel_err(0.5), rel_err(0.25)
    assert 2.0 <= r1 / r2 <= 6.0
    assert 2.0 <= r2 / r3 <= 6.0


# -- inversion identity ------------------------------------------------------------------

def test_inversion_identity_depth_zero_is_exact_rearrangement():
    model = vacuum_mode(g=0.1)
    bath = TruncatedBath(model, n_max=3)
    assert map_inversion_residual(bath, RHO_MIXED, 1.3, 0) <= 1e-15


def test_inversion_identity_residuals_at_float_level():
    model = two_mode_vacuum(0.08, 0.05)
    bath = TruncatedBath(model, n_max=3)
    for depth in (0, 1, 2):
        assert map_inversion_residual(bath, RHO_MIXED, 2.0, depth) <= 1e-9


def test_inversion_identity_zero_coupling():
    model = SpinBosonModel(1.0, [(1.0, 0.0)], math.inf)
    bath = TruncatedBath(model, n_max=3)
    for depth in (0, 1, 3):
        assert map_inversion_residual(bath, RHO_MIXED, 2.0, depth) <= 1e-13


def test_thermal_correlations_from_truncated_bath_match_closed_forms():
    # two-time bath correlations computed with truncated ladder operators
    # against the closed per-mode sums; n_max = 20 pushes the truncated
    # occupations within ~1e-10 of the closed Bose-Einstein values
    model = SpinBosonModel(1.0, [(0.8, 0.11), (1.6, 0.07)], 1.5)
    bath = TruncatedBath(model, n_max=20, dim_cap=10 ** 6)
    state_diag = np.diag(thermal_bath_state(bath)).real
    ops = bath_annihilation_ops(bath)
    detunings = model.frequencies - model.omega0
    g = model.couplings
    occ = model.occupations()

    def coupling_op(t, raising):
        out = np.zeros((bath.bath_dim, bath.bath_dim), dtype=complex)
        for gk, dk, b in zip(g, detunings, ops):
            if raising:
                out += gk * np.exp(1j * dk * t) * b.conj().T
            else:
                out += gk * np.exp(-1j * dk * t) * b
        return out

    for t, s in ((0.9, 0.3), (2.1, 1.7)):
        e_low_t, e_low_s = coupling_op(t, False), coupling_op(s, False)
        e_raise_t, e_raise_s = coupling_op(t, True), coupling_op(s, True)
        same_low = state_diag @ np.diag(e_low_t @ e_low_s)
        same_raise = state_diag @ np.diag(e_raise_t @ e_raise_s)
        cross_emit = state_diag @ np.diag(e_low_t @ e_raise_s)
        cross_absorb = state_diag @ np.diag(e_raise_t @ e_low_s)
        assert abs(same_low) <= 1e-12
        assert abs(same_raise) <= 1e-12
        assert cross_emit == pytest.approx(
            complex(np.sum(g * g * (occ + 1) * np.exp(-1j * detunings * (t - s)))),
            abs=1e-9)
        assert cross_absorb == pytest.approx(
            complex(np.sum(g * g * occ * np.exp(1j * detunings * (t - s)))),
            abs=1e-9)


def test_partial_sum_defect_shrinks_with_depth_and_coupling():
    # without the closing tail term, the alternating partial sum misses the
    # initial state by O(lambda^(2(N+1))): each coupling halving divides the
    # defect by ~4^(N+1) (odd orders vanish for this bath)
    base = SpinBosonModel(1.0, [(1.0, 0.12)], 1.0)
    t = 1.5

    def defect(factor, depth):
        model = base.scaled(factor)
        bath = TruncatedBath(model, n_max=8)
        eps = lambda rho: reduced_map_deviation(bath, rho, t)
        rho_t = RHO_MIXED + eps(RHO_MIXED)
        total = rho_t.copy()
        current = rho_t
        sign = 1.0
        for _ in range(depth):
            current = eps(current)
            sign = -sign
            total += sign * current
        return np.linalg.norm(total - RHO_MIXED)

    for depth, expected in ((0, 4.0), (1, 16.0)):
        ratio = defect(1.0, depth) / defect(0.5, depth)
        assert 0.6 * expected <= ratio <= 1.6 * expected
