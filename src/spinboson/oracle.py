"""Brute-force reference dynamics on a truncated Fock space.

Each bosonic mode is capped at ``n_max`` quanta, which makes the full
system+bath space finite: one eigendecomposition of the total Hamiltonian
then gives the reduced dynamics exactly (within the truncation) at every
requested time.  Everything downstream is built on that exact propagator:
the series terms of the evolution operator, the deviation of the reduced
map from the identity, and the alternating-sum inversion identity.

All reduced states returned here live in the frame co-rotating with the
uncoupled Hamiltonian, so they compare directly against the master-equation
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Sequence

import numpy as np
from scipy.integrate import simpson

from .linalg import SubsystemShape, partial_trace, require_density_matrix
from .master_eq import Trajectory
from .spin_boson import SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, SpinBosonModel

__all__ = [
    "BathDimensionError",
    "TruncationError",
    "TruncatedBath",
    "bath_annihilation_ops",
    "full_hamiltonian",
    "thermal_bath_state",
    "interaction_hamiltonian",
    "interaction_unitary",
    "exact_reduced_dynamics",
    "dyson_terms",
    "reduced_map_deviation",
    "map_inversion_residual",
    "truncation_shift",
]


class BathDimensionError(ValueError):
    """Truncated Hilbert space would exceed the configured cap."""

    def __init__(self, dim: int, cap: int, n_max: int, n_modes: int):
        super().__init__(
            f"full Hilbert dimension 2*({n_max}+1)^{n_modes} = {dim} exceeds the "
            f"cap of {cap}; lower n_max or the mode count, or raise dim_cap")
        self.dim = dim
        self.cap = cap


class TruncationError(RuntimeError):
    """Doubling the Fock cutoff moved a reported element beyond tolerance."""

    def __init__(self, shift: float, tol: float):
        super().__init__(
            f"truncation not converged: doubling n_max shifts elements by "
            f"{shift:.3e} > {tol:.1e}")
        self.shift = shift


@dataclass(frozen=True)
class TruncatedBath:
    """Fock cutoff and dimension bookkeeping for a model's bath.

    Thermal runs with beta * omega >= 1 are well served by the default
    ``n_max = 4``; hotter baths populate higher levels and need an explicit,
    larger cutoff (check with :func:`truncation_shift`).
    """

    model: SpinBosonModel
    n_max: int = 4
    dim_cap: int = 8192

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        if self.full_dim > self.dim_cap:
            raise BathDimensionError(self.full_dim, self.dim_cap,
                                     self.n_max, self.n_modes)

    @property
    def levels(self) -> int:
        return self.n_max + 1

    @property
    def n_modes(self) -> int:
        return len(self.model.modes)

    @property
    def bath_dim(self) -> int:
        return self.levels ** self.n_modes

    @property
    def full_dim(self) -> int:
        return 2 * self.bath_dim

    @property
    def shape(self) -> SubsystemShape:
        return SubsystemShape((2, self.bath_dim), keep_index=0)

    def with_n_max(self, n_max: int) -> "TruncatedBath":
        return replace(self, n_max=n_max)


def _annihilation(levels: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, levels, dtype=float)), k=1).astype(complex)


def bath_annihilation_ops(bath: TruncatedBath) -> list[np.ndarray]:
    """Per-mode annihilation operators on the bath factor (no system factor)."""
    b = _annihilation(bath.levels)
    eye = np.eye(bath.levels, dtype=complex)
    ops = []
    for k in range(bath.n_modes):
        factors = [b if j == k else eye for j in range(bath.n_modes)]
        ops.append(reduce(np.kron, factors))
    return ops


def full_hamiltonian(model: SpinBosonModel, bath: TruncatedBath) -> np.ndarray:
    """Total Hamiltonian on the truncated system+bath space.

    Level splitting plus free modes plus the excitation-exchanging coupling,
    in the module-wide factor-two ladder convention.
    """
    eye_bath = np.eye(bath.bath_dim, dtype=complex)
    eye_sys = np.eye(2, dtype=complex)
    h = 0.5 * model.omega0 * np.kron(SIGMA_Z, eye_bath)
    for (omega, g), b in zip(model.modes, bath_annihilation_ops(bath)):
        h += omega * np.kron(eye_sys, b.conj().T @ b)
        h += g * (np.kron(SIGMA_PLUS, b) + np.kron(SIGMA_MINUS, b.conj().T))
    return h


def _free_energies(model: SpinBosonModel, bath: TruncatedBath) -> np.ndarray:
    """Diagonal of the uncoupled Hamiltonian in the product basis."""
    e_sys = np.array([0.5 * model.omega0, -0.5 * model.omega0])
    idx = np.arange(bath.bath_dim)
    e_bath = np.zeros(bath.bath_dim)
    for k, (omega, _) in enumerate(model.modes):
        stride = bath.levels ** (bath.n_modes - 1 - k)
        e_bath += omega * ((idx // stride) % bath.levels)
    return np.add.outer(e_sys, e_bath).ravel()


def thermal_bath_state(model: SpinBosonModel, bath: TruncatedBath,
                       beta: float | None = None) -> np.ndarray:
    """Product of per-mode truncated thermal states, diagonal, unit trace.

    Each mode carries geometric weights exp(-m beta omega) for m up to
    ``n_max``, normalized by the truncated sum; the vacuum (beta infinite)
    puts all weight on the ground level.
    """
    beta = model.beta if beta is None else beta
    if not (beta == math.inf or beta > 0):
        raise ValueError(f"beta must be positive or math.inf, got {beta}")
    factors = []
    for omega, _ in model.modes:
        if beta == math.inf:
            weights = np.zeros(bath.levels)
            weights[0] = 1.0
        else:
            weights = np.exp(-np.arange(bath.levels) * beta * omega)
            weights /= weights.sum()
        factors.append(np.diag(weights).astype(complex))
    if not factors:
        return np.eye(1, dtype=complex)
    return reduce(np.kron, factors)


def interaction_hamiltonian(model: SpinBosonModel, bath: TruncatedBath,
                            t: float) -> np.ndarray:
    """Coupling Hamiltonian in the co-rotating frame at time ``t``."""
    return _coupling_batch(model, bath, np.array([float(t)]))[0]


def _coupling_parts(model: SpinBosonModel, bath: TruncatedBath):
    ops = bath_annihilation_ops(bath)
    lowering = np.array([g * np.kron(SIGMA_PLUS, b)
                         for (_, g), b in zip(model.modes, ops)])
    detunings = model.frequencies - model.omega0
    return lowering, detunings


def _coupling_batch(model, bath, times: np.ndarray) -> np.ndarray:
    """Co-rotating coupling Hamiltonian at each time, shape (n, d, d)."""
    lowering, detunings = _coupling_parts(model, bath)
    if len(lowering) == 0:
        return np.zeros((len(times), bath.full_dim, bath.full_dim), dtype=complex)
    phases = np.exp(-1j * np.outer(times, detunings))
    part = np.einsum("nm,mij->nij", phases, lowering)
    return part + part.conj().transpose(0, 2, 1)


def _eigensystem(model, bath):
    return np.linalg.eigh(full_hamiltonian(model, bath))


def interaction_unitary(model: SpinBosonModel, bath: TruncatedBath, t: float,
                        eig=None) -> np.ndarray:
    """Exact co-rotating-frame propagator exp(+i H0 t) exp(-i H t)."""
    w, v = _eigensystem(model, bath) if eig is None else eig
    u_sch = (v * np.exp(-1j * w * float(t))) @ v.conj().T
    phases = np.exp(1j * _free_energies(model, bath) * float(t))
    return phases[:, None] * u_sch


def exact_reduced_dynamics(model: SpinBosonModel, bath: TruncatedBath,
                           rho0: np.ndarray, times: Sequence[float],
                           beta: float | None = None,
                           check_truncation: bool = False,
                           truncation_tol: float = 1e-6) -> Trajectory:
    """Exact reduced dynamics of the system, rotated to the co-rotating frame.

    Propagates ``rho0 (x) thermal bath`` with the eigendecomposed total
    Hamiltonian, partial-traces each sample, then applies the free system
    rotation so the output is directly comparable to master-equation
    trajectories.  With ``check_truncation`` the run is repeated at double
    the Fock cutoff and flagged if any sampled element moves by more than
    ``truncation_tol``.
    """
    rho0 = require_density_matrix(rho0)
    times = np.asarray(times, dtype=float)
    rho_e = thermal_bath_state(model, bath, beta)
    full0 = np.kron(rho0, rho_e)
    w, v = _eigensystem(model, bath)
    a0 = v.conj().T @ full0 @ v
    e_sys = np.array([0.5 * model.omega0, -0.5 * model.omega0])

    states = np.empty((len(times), 2, 2), dtype=complex)
    for i, t in enumerate(times):
        ph = np.exp(-1j * w * t)
        rho_full = v @ (a0 * np.outer(ph, ph.conj())) @ v.conj().T
        reduced = partial_trace(rho_full, bath.shape)
        rot = np.exp(1j * e_sys * t)
        states[i] = rot[:, None] * reduced * rot.conj()[None, :]

    traj = Trajectory(times, states,
                      metadata={"integrator": "exact-eig", "n_max": bath.n_max})
    traj.metadata["min_eigenvalue"] = traj.min_eigenvalues()
    traj.validate()
    if check_truncation:
        shift = truncation_shift(model, bath, rho0, times, beta=beta)
        traj.metadata["truncation_shift"] = shift
        if shift > truncation_tol:
            raise TruncationError(shift, truncation_tol)
    return traj


def truncation_shift(model: SpinBosonModel, bath: TruncatedBath,
                     rho0: np.ndarray, times: Sequence[float],
                     beta: float | None = None) -> float:
    """Largest element change of the reduced states when n_max doubles."""
    coarse = exact_reduced_dynamics(model, bath, rho0, times, beta=beta)
    fine = exact_reduced_dynamics(model, bath.with_n_max(2 * bath.n_max),
                                  rho0, times, beta=beta)
    return float(np.max(np.abs(coarse.states - fine.states)))


def dyson_terms(model: SpinBosonModel, bath: TruncatedBath, t: float,
                order: int = 2, panels: int = 200) -> list[np.ndarray]:
    """Series terms of the co-rotating evolution operator through ``order``.

    Term zero is the identity; each later term integrates the coupling
    against the previous one.  Time integrals run on fixed composite-Simpson
    grids (``panels`` per nesting level) for reproducibility.
    """
    if not 0 <= order <= 2:
        raise ValueError("only orders 0..2 are implemented")
    d = bath.full_dim
    terms = [np.eye(d, dtype=complex)]
    if order == 0:
        return terms
    if t == 0:
        return terms + [np.zeros((d, d), dtype=complex)] * order

    outer = np.linspace(0.0, float(t), panels + 1)
    h_outer = _coupling_batch(model, bath, outer)
    terms.append(-1j * simpson(h_outer, x=outer, axis=0))
    if order == 1:
        return terms

    integrand = np.zeros_like(h_outer)
    for i in range(1, len(outer)):
        inner = np.linspace(0.0, outer[i], panels + 1)
        h_inner = _coupling_batch(model, bath, inner)
        integrand[i] = h_outer[i] @ simpson(h_inner, x=inner, axis=0)
    terms.append(-simpson(integrand, x=outer, axis=0))
    return terms


def _deviation_map(model, bath, beta, t):
    u = interaction_unitary(model, bath, t)
    u_dag = u.conj().T
    rho_e = thermal_bath_state(model, bath, beta)
    shape = bath.shape

    def eps(rho: np.ndarray) -> np.ndarray:
        full = np.kron(rho, rho_e)
        return partial_trace(u @ full @ u_dag, shape) - rho

    return eps


def reduced_map_deviation(model: SpinBosonModel, bath: TruncatedBath,
                          rho: np.ndarray, t: float,
                          beta: float | None = None) -> np.ndarray:
    """Deviation of the exact reduced map from the identity at time ``t``.

    Vanishes at t = 0 and as the couplings go to zero; for thermal baths its
    leading order is quadratic in the coupling.
    """
    return _deviation_map(model, bath, beta, t)(np.asarray(rho, dtype=complex))


def map_inversion_residual(model: SpinBosonModel, bath: TruncatedBath,
                           rho0: np.ndarray, t: float, order: int,
                           beta: float | None = None) -> float:
    """Residual of the alternating-sum inversion identity at depth ``order``.

    The alternating sum of deviation-map compositions applied to the evolved
    state reconstructs the initial state exactly, up to one extra
    composition applied to the initial state with alternating sign.  The
    identity is exact, so the returned Frobenius residual measures pure
    floating-point error.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    rho0 = np.asarray(rho0, dtype=complex)
    eps = _deviation_map(model, bath, beta, t)
    rho_t = rho0 + eps(rho0)

    total = rho_t.copy()
    current = rho_t
    sign = 1.0
    for _ in range(order):
        current = eps(current)
        sign = -sign
        total += sign * current

    tail = rho0
    for _ in range(order + 1):
        tail = eps(tail)
    tail_sign = -1.0 if (order + 1) % 2 else 1.0
    return float(np.linalg.norm(total - rho0 + tail_sign * tail))
