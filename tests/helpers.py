"""Shared random-state, quadrature, rate-reference, ladder-operator,
partial-trace and one-mode exact-dynamics helpers for the test suite."""

import math
from functools import reduce

import numpy as np
from scipy.integrate import simpson

from spinboson.master_eq import BathStatistics, lattice_times
from spinboson.spin_boson import SIGMA_MINUS, SIGMA_PLUS

# Panels for the Simpson integral over correlation time in quadrature_bath.
# Correlation kernels oscillate, so the count is fixed rather than adaptive.
DEFAULT_PANELS = 200


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng, d: int) -> np.ndarray:
    a = random_complex(rng, (d, d))
    return 0.5 * (a + a.conj().T)


def random_density_matrix(rng, d: int) -> np.ndarray:
    a = random_complex(rng, (d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def matrix_units(d: int) -> list[np.ndarray]:
    units = []
    for i in range(d):
        for j in range(d):
            u = np.zeros((d, d), dtype=complex)
            u[i, j] = 1.0
            units.append(u)
    return units


# -- integrated correlations by quadrature ------------------------------------
# The reference for baths without closed-form integrated correlations: the
# engine itself only reads the integrals a bath supplies.

def quadrature_bath(n_terms, correlation) -> BathStatistics:
    """Bath of ``n_terms`` bath operators whose integrated correlations are
    composite Simpson over ``DEFAULT_PANELS`` panels of its ``correlation``."""
    n = n_terms

    def integrals(steps: np.ndarray, offsets: np.ndarray):
        # the lattice contract, met by evaluating at the summed times
        return lambda origins: integrals_at(lattice_times(origins[..., None] + steps, offsets))

    def integrals_at(times: np.ndarray):
        out = np.zeros(times.shape + (2, n, n), dtype=complex)
        forward, reverse = out[..., 0, :, :], out[..., 1, :, :]
        for i, t in np.ndenumerate(times):
            nodes = np.linspace(0.0, t, DEFAULT_PANELS + 1)
            for j in range(n):
                for k in range(n):
                    c_fwd = [correlation(j, k, t, s) for s in nodes]
                    c_rev = [correlation(j, k, s, t) for s in nodes]
                    forward[i + (j, k)] = simpson(c_fwd, x=nodes)
                    reverse[i + (j, k)] = simpson(c_rev, x=nodes)
        return out

    return BathStatistics(correlation, integrals)


# -- rate kernels one time at a time -----------------------------------------
# The reference for the lattice kernel of RateFunctions: the half-angle sums
# with one sine and one cosine per mode and time, no angle addition.

def half_angle_rates(detunings, weights, t):
    """``(decay, shift, decay_integral)`` of the channel at the times ``t``.

    With ``a_k = d_k t / 2`` these are the sums of ``(2 w_k / d_k) sin a_k
    cos a_k``, ``(2 w_k / d_k) sin^2 a_k`` and ``(2 w_k / d_k^2) sin^2 a_k``;
    a mode with ``|d_k| < 1e-100`` counts as resonant and adds ``w_k t``,
    ``0`` and ``w_k t^2 / 2``.
    """
    d = np.asarray(detunings, dtype=float)
    w = np.asarray(weights, dtype=float)
    t = np.asarray(t, dtype=float)
    resonant = np.abs(d) < 1e-100
    rate = np.where(resonant, 0.0, 2.0 * w / np.where(resonant, 1.0, d))
    integral = rate / np.where(resonant, 1.0, d)
    a = np.multiply.outer(t, 0.5 * d)
    sin_a = np.sin(a)
    resonant_weight = w[resonant].sum()
    decay = (sin_a * np.cos(a)) @ rate + resonant_weight * t
    shift = (sin_a * sin_a) @ rate
    decay_integral = (sin_a * sin_a) @ integral + 0.5 * resonant_weight * t ** 2
    return decay, shift, decay_integral


# -- ladder operators, built from Kronecker products ------------------------
# An independent construction of the truncated bath operators: the oracle
# builds its Hamiltonian from a table of matrix elements instead.

def annihilation(levels: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, levels, dtype=float)), k=1).astype(complex)


def bath_annihilation_ops(bath) -> list[np.ndarray]:
    """Per-mode annihilation operators on the bath factor (no system factor)."""
    b = annihilation(bath.levels)
    eye = np.eye(bath.levels, dtype=complex)
    return [reduce(np.kron, [b if j == k else eye for j in range(bath.n_modes)])
            for k in range(bath.n_modes)]


def ladder_coupling(model, bath) -> np.ndarray:
    """Schroedinger-picture coupling sum_k g_k (sigma+ (x) b_k + sigma- (x) b_k^dag)."""
    out = np.zeros((bath.full_dim, bath.full_dim), dtype=complex)
    for (_, g), b in zip(model.modes, bath_annihilation_ops(bath)):
        out += g * (np.kron(SIGMA_PLUS, b) + np.kron(SIGMA_MINUS, b.conj().T))
    return out


# -- partial trace -----------------------------------------------------------
# The full-space reference for the oracle's sector pass, which never forms a
# state on system (x) bath.

def partial_trace(rho, dims: tuple[int, int]) -> np.ndarray:
    """Trace of ``rho`` over the second of two tensor factors of dimensions
    ``dims``, in Kronecker order."""
    return np.trace(np.asarray(rho).reshape(dims + dims), axis1=1, axis2=3)


# -- one mode at any temperature: the Jaynes-Cummings sum -------------------
# An oracle-free exact reference for the sector pass: the coupling keeps a
# single mode's dynamics inside the 2 x 2 sectors {|up, N - 1>, |down, N>},
# so the reduced state is a thermal sum of Rabi problems (Eberly, Narozhny &
# Sanchez-Mondragon, PRL 44, 1323 (1980)).

def jaynes_cummings_dynamics(model, rho0, times, weight=1e-16):
    """``(rho00, rho01)`` of the one-mode ``model`` from ``rho0`` (x) its
    thermal bath state at the ``times``, in the frame co-rotating with the
    uncoupled Hamiltonian.

    Sector N >= 1 has the energies omega0 / 2 + (N - 1) omega and
    -omega0 / 2 + N omega and the coupling 2 g sqrt(N) in the factor-two
    ladder convention, and sector 0 holds |down, 0> alone.  The Fock
    numbers n run until the thermal weight past n, q^(n + 1) with
    q = exp(-beta omega), falls below ``weight``; the weights are not
    renormalized.  Each sector's propagator is exp(-i (N omega - omega / 2) t)
    times the closed form of its traceless part, whose phases stay small at
    any N.
    """
    (omega, g), = model.modes
    q = math.exp(-model.beta * omega)
    count = 1 if q == 0.0 else math.ceil(math.log(weight) / math.log(q))
    p = (1.0 - q) * q ** np.arange(count, dtype=float)  # the weight of each n
    t = np.asarray(times, dtype=float)[:, None]
    detuning = 0.5 * (model.omega0 - omega)
    coupling = 2.0 * g * np.sqrt(np.arange(1, count + 1, dtype=float))  # sectors 1 ... count
    rabi = np.hypot(detuning, coupling)
    cos, sin = np.cos(rabi * t), t * np.sinc(rabi * t / math.pi)  # sin(W t) / W
    stay_up = cos - 1j * detuning * sin  # <up|u_N|up> of sector N = n + 1
    rise = coupling * sin  # |<up|u_N|down>|
    stay_down = cos + 1j * detuning * sin  # <down|u_N|down>
    (a, c), (_, b) = np.asarray(rho0)
    rho00 = (a.real * np.abs(stay_up) ** 2 @ p + b.real * rise[:, :-1] ** 2 @ p[1:])
    # the up state of Fock number n pairs with the down state of n, in the
    # sectors n + 1 and n: a relative phase exp(-i omega t) for n >= 1, and
    # exp(-i (omega + omega0) t / 2) for |down, 0>
    pairs = np.exp(1j * (model.omega0 - omega) * t[:, 0]) * (
        stay_up[:, 1:] * stay_down[:, :-1].conj() @ p[1:])
    pairs += np.exp(0.5j * (model.omega0 - omega) * t[:, 0]) * stay_up[:, 0] * p[0]
    return rho00, c * pairs


# -- CLI output --------------------------------------------------------------

def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and rows of a CSV written by the CLI."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [[float(x) for x in line.strip().split(",")] for line in fh if line.strip()]
    return header, np.array(data)
