"""Shared random-state, quadrature, rate-reference, ladder-operator and
partial-trace helpers for the test suite."""

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


# -- CLI output --------------------------------------------------------------

def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and rows of a CSV written by the CLI."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [[float(x) for x in line.strip().split(",")] for line in fh if line.strip()]
    return header, np.array(data)
