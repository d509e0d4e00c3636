"""Generic second-order time-local master equation engine.

The coupling Hamiltonian is supplied as a sum of constant system operators
paired with bath operators; the bath enters only through its two-time
correlation functions.  The bath has zero mean, as a thermal state does
(it is diagonal in occupation number), so no first-order term appears and
the generator at time ``t`` is the second-order dissipative part built
from time integrals of the correlations.  With constant system operators
it is one linear combination

    L(t) = sum_c f_c(t) S_c

of fixed superoperators ``S_c`` built once from the coupling terms, weighted
by coefficients ``f_c`` the bath supplies for a whole array of times: the
forward and reverse integrated correlations, and nothing else.  A
time-dependent coupling operator of finite dimension splits into constant
eigen-operators whose phases move into the bath correlations, as in the
spin-boson co-rotating frame.  The bath supplies the integrated
correlations itself (the spin-boson module does so in closed form), so the
engine runs no quadrature.  :func:`rhs` applies the generator to a state,
:func:`generator_matrix` gives its matrix.

The bath evaluates its integrals on a time lattice of origins, coarse
steps and fine offsets, in two stages (the contract of
:class:`BathStatistics`).  Propagation is classic RK4 with one count of
substeps per output interval, fixed or sized from a step-doubling error
estimate (:func:`propagate`); the generator at the RK4 stage times of a
batch of intervals is one such lattice evaluation
(:func:`stage_generators`).  Any number of coupling scales run in one pass
(:func:`propagate_scaled`), one evaluation of a batch's coefficients
serving every scale; one scale is the single factor 1.

The stage generators, step matrices, block products and the state advance
are in real arithmetic: each complex matrix is its interleaved real form,
in which the entry ``x + i y`` is the block ``[[x, -y], [y, x]]``
(:func:`_real_form`), so that it acts on the real view ``v.view(float)``
of a complex vector ``v`` as the matrix acts on ``v``.  The states stay
complex arrays, written through their real views.  Violations of trace or
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

from .linalg import (require_count, require_density_matrix, require_factors,
                     require_time_grid)

__all__ = [
    "InteractionDecomposition",
    "BathStatistics",
    "Trajectory",
    "TraceDriftError",
    "StepDoublingError",
    "rhs",
    "lattice_times",
    "progression_lattice",
    "generator_matrix",
    "stage_generators",
    "propagate",
    "propagate_scaled",
]

# Target for the step-doubling estimate of the global integration error of
# an automatic run: max over samples and elements of |v_s - v_{s/2}| / 15.
_ERROR_TARGET = 1e-12

# Substeps per interval of an automatic run's pilot; even, so that every
# other stage time forms the substeps of twice the size.
_PILOT_SUBSTEPS = 4

# An automatic run stops at the first batch whose estimate exceeds this, or
# at a trace drift with an estimate beyond it: its steps are too large for
# the fourth-order error law to size the rerun, which grows as if the
# estimate were this (by a factor of about 35).
_ESTIMATE_CAP = 1e-6

# Trace drift beyond this aborts a propagation outright.
_TRACE_ABORT = 1e-6

# The trace and hermiticity errors every Trajectory keeps at each sample.
_INVARIANT_TOL = 1e-9

# Stage times per generator batch in propagate, and the cap on the stage
# times one row of steps and offsets is sized for.  A batch holds the bath's
# phase tables of its coarse starts and the real forms of the generator and
# its RK4 products at every stage time it covers, so a fixed count, not one
# that grows with the grid, keeps the memory bounded; the shared table adds
# about sqrt(512) steps and offsets at most.  512 still batches several
# intervals at a few dozen substeps, which amortizes the per-batch overhead
# of a few-mode bath.  One propagate over 10 intervals of a 400-mode vacuum
# bath peaks at about 0.83 MB of arrays at 128 substeps (one interval a
# batch) and 1.2 MB at 31 (eight), a thermal one at 1.1 and 1.4 MB
# (tracemalloc; a whole ohmic_400 evolve peaks at 0.92 MB).  The count does
# not change with the coupling scales of propagate_scaled, so the batches
# fall where they do for one scale; the real forms, step matrices and block
# products are held once per scale, so that part of a batch's memory grows
# with the count of scales, while the bath's tables and coefficients do not.
_STAGE_BUDGET = 512

# The lattice of a plain array of times: the single step and offset 0.
_ORIGIN = np.zeros(1)

# The bath contract's shape rule: the forward and the reverse block of
# integrals, each with one row and one column per decomposition term.
_PAIRING = "one row and one column of integrals per decomposition term required"


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


class StepDoublingError(RuntimeError):
    """Raised when the step-doubling error estimate of an automatic run is
    not finite, so that no substep count can be sized from it."""

    def __init__(self, substeps: int, estimate: float):
        super().__init__(
            f"step-doubling error estimate is {estimate} at {substeps} substeps "
            "per interval; pass a fixed substep count or check the bath correlations")
        self.substeps = substeps
        self.estimate = estimate


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

    @cached_property
    def superoperators(self) -> np.ndarray:
        """Basis ``S_c`` of the generator, shape ``(2 n^2, d^2, d^2)``.

        Each acts on row-major vectorized states, where ``A rho B`` becomes
        ``kron(A, B.T) @ rho.ravel()``.  In the order of the bath's
        integrals (:class:`BathStatistics`), flattened:

            forward (j, k):    rho -> -[S_j, S_k rho]
            reverse (j, k):    rho ->  [S_k, rho S_j]

        The Kronecker products of all terms are formed at once by
        broadcasting over stacked operands.
        """
        s = np.array(self.terms)
        st = s.transpose(0, 2, 1)
        eye = np.eye(self.dim)
        pair = s[:, None] @ s[None, :]          # [j, k] = S_j S_k
        mixed = _kron(s[None, :], st[:, None])  # [j, k] = kron(S_k, S_j^T)
        forward = mixed - _kron(pair, eye)
        reverse = mixed - _kron(eye, pair.swapaxes(-1, -2))
        size = self.dim ** 2
        return np.concatenate([forward, reverse]).reshape(-1, size, size)

    @cached_property
    def real_superoperators(self) -> np.ndarray:
        """Basis of the generator's real form, shape ``(2 c, 2 d^2, 2 d^2)``
        for the ``c`` superoperators: the real forms of ``S_c`` and
        ``i S_c``, interleaved, so that the real form of ``sum_c f_c S_c`` is
        the real view ``f.view(float)`` of the coefficients against it."""
        s = self.superoperators
        return _real_form(np.stack([s, 1j * s], axis=1).reshape((-1,) + s.shape[1:]))


def _real_form(m: np.ndarray) -> np.ndarray:
    """Real matrices, shape ``(..., 2 D, 2 D)``, that act on the real view
    ``v.view(float)`` of complex vectors as ``m`` (``(..., D, D)``) acts on
    ``v``: the entry ``x + i y`` becomes the block ``[[x, -y], [y, x]]``."""
    rows, cols = m.shape[-2:]
    out = np.empty(m.shape[:-2] + (rows, 2, cols, 2))
    out[..., 0, :, 0] = out[..., 1, :, 1] = m.real
    out[..., 1, :, 0] = m.imag
    out[..., 0, :, 1] = -m.imag
    return out.reshape(m.shape[:-2] + (2 * rows, 2 * cols))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` over the last two axes, broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = out.shape[-4] * out.shape[-3], out.shape[-2] * out.shape[-1]
    return out.reshape(out.shape[:-4] + (rows, cols))


@dataclass(frozen=True)
class BathStatistics:
    """Bath side of the coupling Hamiltonian, of zero mean.

    Every first moment of the bath vanishes, as it does in a thermal state,
    so the correlations are all the generator needs: ``correlation(j, k, t,
    s)`` is the two-time average of bath operators j at ``t`` and k at
    ``s``.  ``integrals(steps, offsets)`` returns the evaluator of the
    origins: ``integrals(steps, offsets)(origins)`` gives, on the lattice
    ``t = lattice_times(origins[..., None] + steps, offsets)`` of shape
    ``origins.shape + (Q, R)``, one complex array of shape ``t.shape + (2,
    n, n)``, one row and one column per term of the decomposition:

        [..., 0, j, k] = int_0^t ds correlation(j, k, t, s)    (forward)
        [..., 1, j, k] = int_0^t ds correlation(j, k, s, t)    (reverse)

    These are the generator's coefficients ``f_c``, each block in row-major
    order, and all it reads; any other shape, a tuple of the two blocks
    included, raises ``ValueError``.  The outer call does the work that
    depends on the coarse steps and fine offsets alone, that is on the step
    size of a propagation, so that one evaluator serves any number of
    batches of origins; the leading axes of ``steps`` and ``offsets``
    broadcast against the origins.  A plain array of times is
    the lattice of those origins with the single step 0 and the single
    offset 0.  The spin-boson bath gives the integrals in closed form
    (:mod:`spinboson.spin_boson` describes how it evaluates the lattice).
    ``correlation`` is their definition, against which the closed forms are
    checked; the test suite holds a composite-Simpson quadrature of it,
    evaluated at the summed lattice times, as the reference for baths
    without closed forms.
    """

    correlation: Callable[[int, int, float, float], complex]
    integrals: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]]


def progression_lattice(count: int, served: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Starts and offsets whose lattice, flattened, begins 0, 1, ..., count - 1.

    The offsets are 0 ... fine - 1 and the starts 0, fine, 2 fine, ... with
    ``fine = isqrt(served - 1) + 1``, and a lattice that runs at most
    ``fine - 1`` past ``count - 1``.  ``served`` is the count of lattice
    times one set of offsets serves, ``count`` by default; when several
    progressions share the offsets it is their total, which balances the
    offsets shared by all against the starts each one needs.  Scaled by a
    step and shifted, the lattice holds any arithmetic progression.
    """
    fine = math.isqrt((count if served is None else served) - 1) + 1
    return fine * np.arange(-(-count // fine), dtype=float), np.arange(fine, dtype=float)


def lattice_times(starts, offsets) -> np.ndarray:
    """Times ``starts[..., q] + offsets[..., r]`` of a lattice, shape ``(..., Q, R)``.

    The leading axes of ``starts`` and ``offsets`` broadcast against each
    other; a scalar is a single start or offset.
    """
    starts = np.atleast_1d(np.asarray(starts, dtype=float))
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    return starts[..., :, None] + offsets[..., None, :]


@dataclass
class Trajectory:
    """Time grid plus one reduced density matrix per grid point, checked when
    built: a trace or hermiticity error above ``_INVARIANT_TOL`` (1e-9) at any
    sample, or a NaN one, raises ``ValueError``.  ``metadata["min_eigenvalue"]``
    records each state's smallest eigenvalue; positivity is not asserted."""

    times: np.ndarray
    states: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.times = require_time_grid(self.times)
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("one state per time point required")
        for name, errors in (("trace", self.trace_errors()),
                             ("hermiticity", self.hermiticity_errors())):
            if not np.all(errors <= _INVARIANT_TOL):  # so that a NaN error fails
                i = int(np.argmax(errors))  # the first NaN, if any
                raise ValueError(f"{name} error {errors[i]:.3e} at t = {self.times[i]:.6g}")
        self.metadata["min_eigenvalue"] = self.min_eigenvalues()

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


def _coefficients(decomp, bath, t) -> np.ndarray:
    """The bath's integrals at the times ``t`` (scalar or array), checked
    against ``decomp`` and flattened: shape ``np.shape(t) + (2 n^2,)``."""
    origins = np.atleast_1d(np.asarray(t, dtype=float))
    f = _checked(decomp, bath.integrals(_ORIGIN, _ORIGIN)(origins), origins.shape + (1, 1))
    return f.reshape(np.shape(t) + (-1,))


def _checked(decomp, f, shape: tuple) -> np.ndarray:
    """The bath's integrals ``f`` on a lattice of ``shape``, which must be
    ``shape + (2, n, n)`` for the ``n`` terms of ``decomp``, flattened to
    ``shape + (2 n^2,)``."""
    n = len(decomp.terms)
    if getattr(f, "shape", None) != shape + (2, n, n):
        raise ValueError(_PAIRING)
    return np.asarray(f, dtype=complex).reshape(shape + (-1,))


def rhs(decomp: InteractionDecomposition, bath: BathStatistics,
        rho: np.ndarray, t: float) -> np.ndarray:
    """The generator applied to ``rho`` at time ``t``:

        - sum_{m,n} int_0^t ds ( C_mn(t,s) [S_m, S_n rho]
                                 - C_nm(s,t) [S_m, rho S_n] )

    from the forward and reverse coefficients of the bath.  Linear in
    ``rho``; traceless by construction, and maps Hermitian to Hermitian
    whenever the bath correlations satisfy the Hermitian pairing relation."""
    rho = np.asarray(rho, dtype=complex)
    return (generator_matrix(decomp, bath, t) @ rho.ravel()).reshape(rho.shape)


def generator_matrix(decomp: InteractionDecomposition, bath: BathStatistics,
                     t) -> np.ndarray:
    """Matrix of the generator acting on vectorized (row-major) states.

    For an array ``t`` returns one matrix per time, shape ``(len(t), d^2, d^2)``.
    """
    return np.tensordot(_coefficients(decomp, bath, t), decomp.superoperators, axes=1)


def stage_generators(decomp: InteractionDecomposition, bath: BathStatistics,
                     times: np.ndarray, substeps: int,
                     factors=1.0) -> Callable[[int, int], np.ndarray]:
    """Real forms of the generator matrices at the RK4 stage times of the
    intervals of ``times``.

    Returns ``stages(first, stop)``, the matrices of intervals ``first`` to
    ``stop - 1``, shape ``(stop - first, 2 substeps + 1, 2 D, 2 D)`` for
    generators of dimension ``D`` (:func:`_real_form`).  Interval i runs
    ``substeps`` substeps of size ``h_i``; its stage times
    ``times[i] + k h_i / 2``, k = 0 ... 2 substeps, are evaluated as the
    lattice of the origin ``times[i]``, the coarse steps ``q R h_i / 2`` and
    the fine offsets ``r h_i / 2``, r < R, trimmed to the stage times.  When
    all steps are bit-equal the steps and offsets are one row each, shapes
    ``(1, Q)`` and ``(1, R)``, built into the bath's table here, once, and
    a batch passes only its origins; otherwise they are one row per
    interval, tabled for each call's intervals.  ``R`` is from
    :func:`progression_lattice` over the stage times one row serves, at most
    ``_STAGE_BUDGET``.  The real forms come from one real product of the
    real view of the bath's integrals with the flattened
    :attr:`InteractionDecomposition.real_superoperators`.

    The caller takes whole intervals in batches of at most
    ``_STAGE_BUDGET`` (512) stage times, or one interval if that alone has
    more: a fixed count, so that a batch's memory stays bounded on any
    grid.  On bit-equal steps every batch shares the one table.

    The generators are those of the couplings scaled by ``factors``, a
    scalar (1 by default) or an array whose shape comes first: the basis is
    scaled once by the second-order rule (:func:`_scaled_basis`), and the
    coefficients the bath gives once per batch serve every factor.
    """
    times = np.asarray(times, dtype=float)
    stage_count = 2 * substeps + 1
    half = 0.5 * np.diff(times) / substeps
    rows = half[:1] if np.all(half == half[0]) else half
    served = min(stage_count * len(half) // len(rows), _STAGE_BUDGET)
    coarse, fine = progression_lattice(stage_count, served)
    steps, offsets = rows[:, None] * coarse, rows[:, None] * fine
    shared = bath.integrals(steps, offsets) if len(rows) == 1 else None
    basis = _scaled_basis(decomp, factors)
    size = decomp.real_superoperators.shape[-1]

    def stages(first: int, stop: int) -> np.ndarray:
        evaluate = (shared if shared is not None
                    else bath.integrals(steps[first:stop], offsets[first:stop]))
        f = _checked(decomp, evaluate(times[first:stop]), (stop - first, len(coarse), len(fine)))
        f = f.reshape(stop - first, -1, f.shape[-1])[:, :stage_count].view(float)
        return (f.reshape(-1, f.shape[-1]) @ basis).reshape(
            np.shape(factors) + f.shape[:-1] + (size, size))

    return stages


def _scaled_basis(decomp: InteractionDecomposition, factors) -> np.ndarray:
    """:attr:`InteractionDecomposition.real_superoperators` for every
    coupling scaled by ``factors``, each matrix flattened: shape
    ``np.shape(factors) + (2 c, 4 D^2)``, against which the real view of the
    unscaled coefficients gives the scaled generators.

    The generator is second order in the coupling: the integrated
    correlations scale with f**2, and so does the whole basis.  A power of
    two scales every product exactly, so for such factors the generators
    equal those of the scaled bath bit for bit.
    """
    f = np.asarray(factors, dtype=float)
    basis = decomp.real_superoperators
    return (f[..., None, None, None] ** 2 * basis).reshape(f.shape + (len(basis), -1))


def _rk4_step_matrices(stages: np.ndarray, h) -> np.ndarray:
    """Classic RK4 step matrices of a linear ODE, one per substep.

    ``stages`` holds the generator at the stage times t, t + h/2, t + h, ...
    of consecutive substeps of size ``h``, shape ``(..., 2 n + 1, D, D)``,
    with one ``h`` per leading index.  Returns the ``n`` matrices ``M`` with
    ``v(t + h) = M v(t)``, shape ``(..., n, D, D)``:

        K1 = A(t),  K2 = A(t + h/2) (I + h/2 K1),  K3 = A(t + h/2) (I + h/2 K2),
        K4 = A(t + h) (I + h K3),  M = I + h/6 (K1 + 2 K2 + 2 K3 + K4).
    """
    h = np.asarray(h, dtype=float)[..., None, None, None]
    start, mid, end = stages[..., :-1:2, :, :], stages[..., 1::2, :, :], stages[..., 2::2, :, :]
    # in place, so that at most three products are held at once
    k2 = mid @ start
    k2 *= 0.5 * h
    k2 += mid
    k3 = mid @ k2
    k3 *= 0.5 * h
    k3 += mid
    k4 = end @ k3
    k4 *= h
    k4 += end
    # M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), summed in that order
    k2 *= 2.0
    k2 += start
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += np.eye(stages.shape[-1])
    return k2


def _block_products(steps: np.ndarray, block: int) -> np.ndarray:
    """Running products of the step matrices within consecutive blocks.

    ``steps`` holds ``n`` step matrices ``M_1 ... M_n`` along axis -3; they
    are padded with identities to whole blocks of ``block``.  Returns shape
    ``(..., blocks, block, D, D)`` whose entry ``[b, k]`` is
    ``M_{b block + k + 1} ... M_{b block + 1}``, from ``block - 1`` batched
    matrix products.
    """
    n, dim = steps.shape[-3], steps.shape[-1]
    pad = np.broadcast_to(np.eye(dim), steps.shape[:-3] + (-n % block, dim, dim))
    out = np.concatenate([steps, pad], axis=-3)
    out = out.reshape(steps.shape[:-3] + (-1, block, dim, dim))
    for k in range(1, block):
        out[..., k, :, :] = out[..., k, :, :] @ out[..., k - 1, :, :]
    return out


def _rk4_states(decomp, bath, rho0: np.ndarray, times: np.ndarray, substeps: int,
                doubled: bool, factors: np.ndarray):
    """States on ``times`` from RK4 at ``substeps`` per interval and, with
    ``doubled`` (even ``substeps``), the step-doubling error estimates: one
    of each per coupling factor of ``factors``, a 1-d array.  The states
    are one ``(len(factors), len(times), d, d)`` array and the estimates an
    array, zero without ``doubled``.

    The stage generators of a batch are evaluated once for all factors, and
    the step matrices, block products and states carry the leading factor
    axis.  The second state advances by the RK4 step matrices of size 2 h
    from every other stage generator of the batch, so no generator is
    evaluated twice.  A factor that cannot finish the pass ends it: its
    batch estimate passes ``_ESTIMATE_CAP`` or is NaN (a stop), or its trace
    drifts.  With several factors either ends the pass with ``(None,
    None)``, after which :func:`propagate_scaled` runs every factor alone.
    With one factor a stop gives ``[None]`` and the estimate of the batch,
    and so does a drift whose estimate at the drift passes the cap; any
    other drift raises :class:`TraceDriftError`.
    """
    count, d = len(factors), rho0.shape[0]
    states = np.empty((count, len(times), d, d), dtype=complex)
    states[:, 0] = rho0
    estimates = np.zeros(count)
    if doubled:
        coarse = np.empty((count, len(times), d * d), dtype=complex)
        coarse[:, 0] = rho0.ravel()
        coarse_columns = coarse.view(float)[..., None]
    block = math.isqrt(substeps)
    blocks = -(-substeps // block)
    # the states after each substep of an interval, block by block; the
    # padding repeats the last substep, so `last` is the interval's end and
    # the next interval's start.  The real step matrices write the states
    # through real column views, and `trace` views the diagonals of the
    # first `substeps` states of each factor.
    path = np.empty((count, blocks, block, d * d), dtype=complex)
    last = path[:, -1, -1]
    last[...] = rho0.ravel()
    columns = path.view(float)[..., None]
    starts = [columns[:, b - 1, -1:] for b in range(blocks)]
    ends = [columns[:, b] for b in range(blocks)]
    trace = path.reshape(count, -1, d * d)[:, :substeps, ::d + 1]
    intervals = len(times) - 1
    per_batch = max(1, _STAGE_BUDGET // (2 * substeps + 1))
    stages = stage_generators(decomp, bath, times, substeps, factors)
    for first in range(0, intervals, per_batch):
        stop = min(first + per_batch, intervals)
        h = np.diff(times[first:stop + 1]) / substeps
        batch = stages(first, stop)
        products = _block_products(_rk4_step_matrices(batch, h), block)
        if doubled:
            # the product of each interval's substeps of size 2 h
            halves = _rk4_step_matrices(batch[..., ::2, :, :], 2.0 * h)
            coarse_steps = halves[..., 0, :, :]
            for k in range(1, substeps // 2):
                coarse_steps = halves[..., k, :, :] @ coarse_steps
        # free this batch's stage generators before the next one is evaluated
        del batch
        # one (k, block, D, D) product per interval and block
        for i, interval in zip(range(first, stop), products.transpose(1, 2, 0, 3, 4, 5)):
            for product, start, end in zip(interval, starts, ends):
                np.matmul(product, start, out=end)
            if doubled:
                np.matmul(coarse_steps[:, i - first], coarse_columns[:, i],
                          out=coarse_columns[:, i + 1])
            drift = np.abs(trace.sum(axis=-1) - 1.0)
            bad = ~(drift <= _TRACE_ABORT)  # NaN aborts too
            if bad.any():
                if count > 1:
                    return None, None
                if doubled:
                    deviation = np.max(np.abs(last - coarse[:, i + 1]), axis=-1) / 15.0
                    if deviation[0] > _ESTIMATE_CAP:
                        return [None], deviation
                j = int(np.argmax(bad[0]))
                raise TraceDriftError(times[i] + (j + 1) * h[i - first], float(drift[0, j]))
            states[:, i + 1] = last.reshape(-1, d, d)
        if doubled:
            fine = states[:, first + 1:stop + 1].reshape(count, stop - first, -1)
            deviation = np.max(np.abs(fine - coarse[:, first + 1:stop + 1]), axis=(1, 2)) / 15.0
            if not np.all(deviation <= _ESTIMATE_CAP):  # NaN stops too
                return ([None], deviation) if count == 1 else (None, None)
            np.maximum(estimates, deviation, out=estimates)
    return states, estimates


def _one_factor(decomp, bath, rho0, times, substeps, factor, pilot=None) -> tuple:
    """``(states, estimate, substeps)`` of the couplings scaled by ``factor``
    alone: at a fixed ``substeps``, or automatic, from the pilot at
    ``_PILOT_SUBSTEPS`` (its result ``pilot`` when given) and the reruns
    :func:`propagate` describes."""
    def run(substeps: int, doubled: bool = True) -> tuple:
        states, estimates = _rk4_states(decomp, bath, rho0, times, substeps, doubled,
                                        np.array([factor]))
        return states[0], float(estimates[0])

    if substeps is not None:
        return run(substeps, False)[0], None, substeps
    substeps, previous = _PILOT_SUBSTEPS, math.inf
    states, estimate = run(substeps) if pilot is None else pilot
    while True:
        if not math.isfinite(estimate):
            raise StepDoublingError(substeps, estimate)
        if states is not None and (estimate <= _ERROR_TARGET or estimate > 0.5 * previous):
            return states, estimate, substeps
        # the factor exceeds 1.1, so the count grows on every rerun; the
        # estimate of a stopped run is a bound, not a size
        previous = math.inf if states is None else estimate
        growth = 1.1 * (min(estimate, _ESTIMATE_CAP) / _ERROR_TARGET) ** 0.25
        substeps = 2 * math.ceil(0.5 * substeps * growth)
        states, estimate = run(substeps)


def _trajectory(times, run: tuple) -> Trajectory:
    """The trajectory of ``run``, ``(states, estimate, substeps)``."""
    states, estimate, substeps = run
    metadata: dict[str, Any] = {"integrator": "rk4", "substeps": substeps}
    if substeps:
        metadata["step_size"] = float(np.max(np.diff(times))) / substeps
    if estimate is not None:
        metadata["error_estimate"] = estimate
    return Trajectory(times, states, metadata=metadata)


def propagate(decomp: InteractionDecomposition, bath: BathStatistics,
              rho0: np.ndarray, times: Sequence[float],
              substeps: int | None = None) -> Trajectory:
    """Propagate ``rho0`` over ``times`` with RK4 at one count of substeps
    per output interval.

    The one-factor case of :func:`propagate_scaled`, with the factor 1: the
    couplings as the bath gives them.

    ``rho0`` must be Hermitian, unit trace and positive semidefinite within
    1e-10, ``times`` a finite, strictly increasing grid, and ``substeps`` a
    positive integer (a bool or a float raises ``ValueError``) or ``None``.

    ``substeps=None`` sizes the count from the integration's own error.  A
    pilot at 4 substeps per interval also advances a second state on steps
    of twice the size, from every other stage generator of its batches.
    Their step-doubling estimate of the global error (Hairer, Norsett &
    Wanner, *Solving Ordinary Differential Equations I*, II.4),
    ``max |v_s - v_{s/2}| / 15`` over the samples and elements, is kept as
    ``metadata["error_estimate"]``.  At or below 1e-12 the run is the
    result; otherwise it is repeated at the least even count of at least
    ``s * 1.1 * (estimate / 1e-12)^(1/4)``, so every rerun grows.  Beyond
    1e-6 the steps are too large for that fourth-order law and may be
    unstable: the run stops at the end of the batch, or at a trace drift,
    keeps no states, and its rerun grows as if the estimate were 1e-6
    (about 35 times).  That stop is the one way a run ends short of the
    grid's end without raising (:func:`propagate_scaled` has the same for
    all its factors at once).  A complete rerun that does not halve the
    estimate has reached the rounding floor and is the result.  A
    non-finite estimate raises :class:`StepDoublingError`.  A fixed
    ``substeps`` computes no estimate.

    The equation is linear, so each substep is one step matrix
    ``M = I + h/6 (K1 + 2 K2 + 2 K3 + K4)`` from the generator at its stage
    times, which come in batches of whole intervals
    (:func:`stage_generators`).  The state advances by blocks of
    ``isqrt(substeps)`` substeps: the running products of a block's step
    matrices, then one matrix-vector product per block for the states after
    all its substeps.  Generators, step matrices and products are the real
    forms of the complex ones, and the states are advanced through their
    real views, so nothing is symmetrized on the way.  Trace drift beyond
    1e-6 (or NaN) after any substep aborts with a :class:`TraceDriftError`
    naming the first such substep; every sample, a one-point grid's too,
    keeps the invariants of :class:`Trajectory`.
    """
    return propagate_scaled(decomp, bath, rho0, times, (1.0,), substeps)[0]


def propagate_scaled(decomp: InteractionDecomposition, bath: BathStatistics,
                     rho0: np.ndarray, times: Sequence[float], factors: Sequence[float],
                     substeps: int | None = None) -> list[Trajectory]:
    """:func:`propagate` with every coupling scaled by each of ``factors``,
    in one pass; returns one trajectory per factor, in the order given.

    The generator is second order in the coupling, so scaling the couplings
    by f scales the bath's integrated correlations by f**2.  Each batch's
    coefficients are evaluated once and scaled per factor; for a power of
    two this is exact, and the result equals that of the bath of the scaled
    model bit for bit.  The step matrices, block products and states of all
    factors advance together, batch by batch as in :func:`propagate`, so
    that each result equals a separate run: the batches, the stops and the
    drift checks are those of one factor.  An automatic run shares its
    pilot, and a factor whose pilot is rejected reruns alone from its own
    count.  A factor that cannot finish the shared pass, because it stops
    early or its trace drifts, ends the pass for all: every factor then
    runs alone, in order, from its own pilot, which gives the results and
    raises the exception the separate runs do.
    ``factors`` must be a 1-d sequence of finite numbers; with none, no
    bath is evaluated and the result is empty.  The other arguments are
    those of :func:`propagate`.
    """
    rho0 = require_density_matrix(rho0)
    times = require_time_grid(times)
    factors = require_factors(factors)
    if substeps is not None:
        substeps = require_count(substeps, "substeps", 1)

    if not len(factors):
        return []
    if len(times) == 1:
        # no interval to integrate: the initial state is the trajectory
        estimate = 0.0 if substeps is None else None
        return [_trajectory(times, (rho0[None, :, :].copy(), estimate, 0)) for _ in factors]
    automatic = substeps is None
    states, estimates = _rk4_states(decomp, bath, rho0, times,
                                    _PILOT_SUBSTEPS if automatic else substeps,
                                    automatic, factors)
    if states is None:
        # a factor stopped or drifted: every factor runs alone, in order, and
        # each trajectory is checked as its run ends, so the first failure is
        # the one separate runs meet first
        runs = (_one_factor(decomp, bath, rho0, times, substeps, f) for f in factors)
    elif automatic:
        runs = (_one_factor(decomp, bath, rho0, times, None, f, (s, float(e)))
                for f, s, e in zip(factors, states, estimates))
    else:
        runs = ((s, None, substeps) for s in states)
    return [_trajectory(times, run) for run in runs]
