"""Generic second-order time-local master equation engine.

The coupling Hamiltonian is supplied as a sum of constant system operators
paired with bath operators; the bath enters only through first moments and
two-time correlation functions.  The generator at time ``t`` is

    d rho / dt = -i [H1(t), rho] + L2(rho, t),

where ``H1`` collects the first-moment terms and ``L2`` is the second-order
dissipative part built from time integrals of the correlations.  With
constant system operators it is one linear combination

    L(t) = sum_c f_c(t) S_c

of fixed superoperators ``S_c`` built once from the coupling terms, weighted
by coefficients ``f_c`` the bath supplies for a whole array of times: the
first moments, then the forward and reverse integrated correlations.  A
time-dependent coupling operator of finite dimension splits into constant
eigen-operators whose phases move into the bath correlations, as in the
spin-boson co-rotating frame.  The bath supplies the integrated
correlations itself (the spin-boson module does so in closed form), so the
engine runs no quadrature.

Propagation is classic fixed-step RK4 with internal substeps per output
interval.  The equation is linear, so each substep is one step matrix
``M = I + h/6 (K1 + 2 K2 + 2 K3 + K4)`` built from the generator at the
substep's stage times.  One generator batch per output interval gives the
step matrices of all its substeps at once, and the state then advances by
one matrix-vector product per substep.  Violations of trace or
hermiticity are reported, never repaired: a drifting trace signals an
inconsistent generator or too coarse a step, and silently renormalizing
would mask it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .linalg import require_density_matrix, require_time_grid

__all__ = [
    "InteractionDecomposition",
    "BathStatistics",
    "Trajectory",
    "TraceDriftError",
    "first_order_hamiltonian",
    "second_order_generator",
    "rhs",
    "generator_matrix",
    "default_substeps",
    "propagate",
]

# Target for (generator spectral norm) * (RK4 substep); keeps the local
# integration error far below the physics tolerances.
_STEP_NORM_TARGET = 1e-3

# Times across the grid at which default_substeps probes the generator norm.
_NORM_PROBES = 9

# Trace drift beyond this aborts a propagation outright.
_TRACE_ABORT = 1e-6


class TraceDriftError(RuntimeError):
    """Raised when a propagated state loses unit trace.

    Signals a step size too large for the generator or inconsistent bath
    correlations; the offending time is carried along for diagnostics.
    """

    def __init__(self, t: float, drift: float):
        super().__init__(
            f"trace drifted by {drift:.3e} at t = {t:.6g}; "
            "reduce the step size or check the bath correlations")
        self.t = t
        self.drift = drift


@dataclass(frozen=True)
class InteractionDecomposition:
    """System side of the coupling Hamiltonian: one constant matrix per term."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(np.asarray(s, dtype=complex) for s in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("decomposition needs at least one term")
        dims = {s.shape for s in terms}
        if len(dims) != 1 or any(len(s) != 2 or s[0] != s[1] for s in dims):
            raise ValueError(f"terms must share one square system dimension, got {dims}")

    @property
    def dim(self) -> int:
        return self.terms[0].shape[0]

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @cached_property
    def superoperators(self) -> np.ndarray:
        """Basis ``S_c`` of the generator, shape ``(n + 2 n^2, d^2, d^2)``.

        Each acts on row-major vectorized states, where ``A rho B`` becomes
        ``kron(A, B.T) @ rho.ravel()``.  In the order of
        :meth:`BathStatistics.coefficients`:

            first moment n:    rho -> -i [S_n, rho]
            forward (j, k):    rho -> -[S_j, S_k rho]
            reverse (j, k):    rho ->  [S_k, rho S_j]
        """
        eye = np.eye(self.dim)
        s = self.terms
        first = [-1j * (np.kron(a, eye) - np.kron(eye, a.T)) for a in s]
        forward = [np.kron(b, a.T) - np.kron(a @ b, eye) for a in s for b in s]
        reverse = [np.kron(b, a.T) - np.kron(eye, (a @ b).T) for a in s for b in s]
        return np.array(first + forward + reverse)


@dataclass(frozen=True)
class BathStatistics:
    """Bath side of the coupling Hamiltonian.

    ``first_moments[n](times)`` is the bath average of the n-th bath
    operator at each of an array of times (a constant may come back as a
    scalar); ``correlation(j, k, t, s)`` the connected two-time average of
    operators j at ``t`` and k at ``s``.  ``integrals(times)`` gives

        forward[i, j, k] = int_0^t ds correlation(j, k, t, s)
        reverse[i, j, k] = int_0^t ds correlation(j, k, s, t)

    at ``t = times[i]``, each of shape ``(len(times), n, n)``; these are
    all the generator reads.  The spin-boson bath gives them in closed
    form.  ``correlation`` is their definition, against which the closed
    forms are checked; the test suite holds a composite-Simpson quadrature
    of it as the reference for baths without closed forms.
    """

    first_moments: tuple
    correlation: Callable[[int, int, float, float], complex]
    integrals: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        object.__setattr__(self, "first_moments", tuple(self.first_moments))

    def coefficients(self, times) -> np.ndarray:
        """Generator coefficients ``f_c`` at each time, shape ``(len(times), n + 2 n^2)``:
        the first moments, then the forward and reverse integrals, each
        ``n x n`` block in row-major order."""
        times = np.asarray(times, dtype=float)
        moments = [np.broadcast_to(m(times), times.shape) for m in self.first_moments]
        forward, reverse = self.integrals(times)
        return np.concatenate([np.array(moments, dtype=complex).T,
                               forward.reshape(len(times), -1),
                               reverse.reshape(len(times), -1)], axis=1)


@dataclass
class Trajectory:
    """Time grid plus one reduced density matrix per grid point."""

    times: np.ndarray
    states: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.times = require_time_grid(self.times)
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("one state per time point required")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def trace_errors(self) -> np.ndarray:
        return np.abs(np.einsum("tii->t", self.states) - 1.0)

    def hermiticity_errors(self) -> np.ndarray:
        return np.max(np.abs(self.states - self.states.conj().transpose(0, 2, 1)), axis=(1, 2))

    def min_eigenvalues(self) -> np.ndarray:
        s = self.states
        return np.linalg.eigvalsh(0.5 * (s + s.conj().transpose(0, 2, 1)))[:, 0]

    def validate(self, trace_tol: float = 1e-9, herm_tol: float = 1e-9) -> "Trajectory":
        # written as "not all within", so that a NaN error fails (argmax finds it)
        tr = self.trace_errors()
        if not np.all(tr <= trace_tol):
            i = int(np.argmax(tr))
            raise ValueError(f"trace error {tr[i]:.3e} at t = {self.times[i]:.6g}")
        he = self.hermiticity_errors()
        if not np.all(he <= herm_tol):
            i = int(np.argmax(he))
            raise ValueError(f"hermiticity error {he[i]:.3e} at t = {self.times[i]:.6g}")
        return self


def first_order_hamiltonian(decomp: InteractionDecomposition, bath: BathStatistics,
                            t: float) -> np.ndarray:
    """First-moment effective Hamiltonian: sum_n <E_n(t)> S_n.

    Hermitian whenever adjoint-paired terms come with conjugate moments;
    identically zero for baths with vanishing first moments.
    """
    moments = _coefficients(decomp, bath, t)[:decomp.n_terms]
    return np.tensordot(moments, np.array(decomp.terms), axes=1)


def _coefficients(decomp, bath, t) -> np.ndarray:
    """``bath.coefficients`` at ``t`` (scalar or array), checked against ``decomp``."""
    f = bath.coefficients(np.atleast_1d(t))
    if f.shape[1] != len(decomp.superoperators):
        raise ValueError("one first moment per decomposition term required")
    return f if np.ndim(t) else f[0]


def _apply(mat: np.ndarray, rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return (mat @ rho.ravel()).reshape(rho.shape)


def second_order_generator(decomp: InteractionDecomposition, bath: BathStatistics,
                           rho: np.ndarray, t: float) -> np.ndarray:
    """Second-order dissipative part of the generator at time ``t``.

    Evaluates

        - sum_{m,n} int_0^t ds ( C_mn(t,s) [S_m, S_n rho]
                                 - C_nm(s,t) [S_m, rho S_n] )

    from the forward and reverse coefficients of the bath.  The result is
    traceless by construction.
    """
    n = decomp.n_terms
    f = _coefficients(decomp, bath, t)[n:]
    return _apply(np.tensordot(f, decomp.superoperators[n:], axes=1), rho)


def rhs(decomp: InteractionDecomposition, bath: BathStatistics,
        rho: np.ndarray, t: float) -> np.ndarray:
    """Full generator: commutator with the first-moment Hamiltonian plus the
    second-order part.  Linear in ``rho``; maps Hermitian to Hermitian and is
    traceless whenever the bath correlations satisfy the Hermitian pairing
    relation."""
    return _apply(generator_matrix(decomp, bath, t), rho)


def generator_matrix(decomp: InteractionDecomposition, bath: BathStatistics,
                     t) -> np.ndarray:
    """Matrix of the generator acting on vectorized (row-major) states.

    For an array ``t`` returns one matrix per time, shape ``(len(t), d^2, d^2)``.
    """
    return np.tensordot(_coefficients(decomp, bath, t), decomp.superoperators, axes=1)


def default_substeps(decomp: InteractionDecomposition, bath: BathStatistics,
                     times: np.ndarray) -> int:
    """RK4 substep count per output interval from a generator-norm bound.

    Samples the generator's spectral norm at a few times across the grid and
    sizes the substep so that norm * dt stays at or below 1e-3.
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        return 1
    span = np.linspace(times[0], times[-1], _NORM_PROBES)
    norm = float(np.max(np.linalg.norm(generator_matrix(decomp, bath, span), 2, axis=(1, 2))))
    if norm == 0.0:
        return 1
    dt_max = _STEP_NORM_TARGET / norm
    interval = float(np.max(np.diff(times)))
    return max(1, math.ceil(interval / dt_max))


def _rk4_step_matrices(stages: np.ndarray, h: float) -> np.ndarray:
    """Classic RK4 step matrices of a linear ODE, one per substep.

    ``stages`` holds the generator at the stage times t, t + h/2, t + h, ...
    of consecutive substeps of size ``h``, shape ``(2 n + 1, D, D)``.  Returns
    the ``n`` matrices ``M`` with ``v(t + h) = M v(t)``:

        K1 = A(t),  K2 = A(t + h/2) (I + h/2 K1),  K3 = A(t + h/2) (I + h/2 K2),
        K4 = A(t + h) (I + h K3),  M = I + h/6 (K1 + 2 K2 + 2 K3 + K4).
    """
    start, mid, end = stages[:-1:2], stages[1::2], stages[2::2]
    k2 = mid + (0.5 * h) * (mid @ start)
    k3 = mid + (0.5 * h) * (mid @ k2)
    k4 = end + h * (end @ k3)
    return np.eye(stages.shape[-1]) + (h / 6.0) * (start + 2.0 * k2 + 2.0 * k3 + k4)


def propagate(decomp: InteractionDecomposition, bath: BathStatistics,
              rho0: np.ndarray, times: Sequence[float],
              substeps: int | None = None, model_tag: str = "") -> Trajectory:
    """Propagate ``rho0`` over ``times`` with fixed-step RK4.

    ``rho0`` must be Hermitian, unit trace and positive semidefinite within
    1e-10, and ``times`` a finite, strictly increasing grid.  The generator
    is evaluated once per output interval at all of its RK4 stage times,
    which give one step matrix per substep.  Trace drift beyond 1e-6 (or
    NaN) after any substep aborts with a :class:`TraceDriftError` naming
    the first such substep; accepted trajectories satisfy the 1e-9 trace
    and hermiticity invariants at every sample.
    """
    rho0 = require_density_matrix(rho0)
    times = require_time_grid(times)

    if len(times) == 1:
        return Trajectory(times, rho0[None, :, :].copy(),
                          metadata={"model": model_tag, "integrator": "rk4",
                                    "substeps": 0})

    if substeps is None:
        substeps = default_substeps(decomp, bath, times)
    if substeps < 1:
        raise ValueError("substeps must be a positive integer")
    step_size = float(np.max(np.diff(times))) / substeps

    d = rho0.shape[0]
    states = np.empty((len(times), d, d), dtype=complex)
    states[0] = rho0
    v = rho0.ravel().copy()
    path = np.empty((substeps, d * d), dtype=complex)
    half_steps = 0.5 * np.arange(2 * substeps + 1)
    for i in range(len(times) - 1):
        h = (times[i + 1] - times[i]) / substeps
        # stage times t, t + h/2, t + h, ... of all substeps in this interval
        stages = generator_matrix(decomp, bath, times[i] + h * half_steps)
        steps = _rk4_step_matrices(stages, h)
        for j in range(substeps):
            v = steps[j] @ v
            path[j] = v
        drift = np.abs(path[:, ::d + 1].sum(axis=1) - 1.0)
        bad = ~(drift <= _TRACE_ABORT)  # NaN aborts too
        if bad.any():
            j = int(np.argmax(bad))
            raise TraceDriftError(times[i] + (j + 1) * h, float(drift[j]))
        states[i + 1] = v.reshape(d, d)

    traj = Trajectory(times, states,
                      metadata={"model": model_tag, "integrator": "rk4",
                                "substeps": substeps, "step_size": step_size}).validate()
    traj.metadata["min_eigenvalue"] = traj.min_eigenvalues()
    return traj
