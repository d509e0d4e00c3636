"""Shared random-state and ladder-operator helpers for the test suite."""

from functools import reduce

import numpy as np

from spinboson.spin_boson import SIGMA_MINUS, SIGMA_PLUS


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
