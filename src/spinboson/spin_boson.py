"""Spin-boson model: a two-level system coupled to discrete bosonic modes.

The model is the excitation-conserving one: a level splitting ``omega0``,
independent modes ``(omega_k, g_k)``, and a coupling that exchanges single
quanta.  The bath starts in a thermal state of inverse temperature ``beta``
(``math.inf`` is a first-class value meaning the vacuum).

Operator convention (load-bearing)
----------------------------------
The ladder operators carry a factor of two relative to the common
half-normalized choice::

    sigma_plus  = sigma_x + i sigma_y = [[0, 2], [0, 0]]
    sigma_minus = sigma_x - i sigma_y = [[0, 0], [2, 0]]

with ``|0>`` the spin-up (excited) basis vector, so ``sigma_plus |1> = 2|0>``
and ``sigma_minus |0> = 2|1>``.  Every numeric prefactor in this module (the
8s, 4s and 16s in the element equations of motion) is tied to this choice;
swapping in half-normalized operators silently rescales all rates by four
and breaks every cross-check against the exact solver.

Rates
-----
Four real time-dependent prefactors drive the reduced dynamics, organized
here as two channels:

* ``absorption``: weighted by mode occupations ``n_k`` (stimulated only,
  vanishes for a vacuum bath);
* ``emission``: weighted by ``n_k + 1`` (spontaneous plus stimulated).

Each channel has a ``decay`` part (cosine kernel, feeds the dissipator) and
a ``shift`` part (sine kernel, feeds the second-order effective
Hamiltonian), plus exact running integrals of both.  All four are closed
per-mode sums, not quadratures, which keeps them fast and bit-reproducible;
the defining integrals survive in the test suite as an independent check.
Both channels run over the same modes: :class:`RateFunctions` holds the
detunings once and the two channels' weights, and its ``sums`` gives the
parts asked for, of both channels, from one evaluation, which every caller
reads.  The shift integral is the one part with a near-resonance series
(``_shift_integral_kernel``).

With ``a_k = d_k t / 2`` for the detunings ``d_k`` and weights ``w_k``,
the decay, the shift and the decay integral are the half-angle sums of
``(2 w_k / d_k) sin a_k cos a_k``, ``(2 w_k / d_k) sin^2 a_k`` and
``(2 w_k / d_k^2) sin^2 a_k``, which have no cancellation near resonance,
and are evaluated on a time lattice ``origin + step + offset``
(:class:`~spinboson.master_eq.BathStatistics`).  The phase ``A = d start /
2`` of a coarse start ``origin + step`` comes from those of the origin
(``O``) and the step (``P``) by angle addition, ``sA = sO cP + cO sP`` and
``cA = cO cP - sO sP``; with ``B = d offset / 2`` angle addition again gives

    sin a cos a = sA cA (cB^2 - sB^2) + (cA^2 - sA^2) sB cB
    sin^2 a     = sA^2 cB^2 + 2 sA cA sB cB + cA^2 sB^2

at ``a = A + B``, so one sine and cosine pass over the origins, the steps
and the offsets, and one matrix product over the modes per part, give
every lattice time.  One function, ``_channel_sums``, does all of it, in
the two stages the engine's bath contract asks for: the steps' sines and
cosines, and the offsets' phases and table ``[cB^2, sB cB, sB^2]``
weighted by each per-mode factor the parts read, one operand per factor
(so the decay and the shift share one), come first; the returned
evaluator then takes only the phases of its origins.  A part's product
has one shape whatever parts are asked for with it, so its bits are
those of the part asked for alone.  The engine's RK4 stage times are
such lattices (:func:`~spinboson.master_eq.stage_generators`): on a grid
of equal steps an interval then costs one sine and one cosine per mode.
Through the bath, a plain array of times is the lattice of those origins
with the single step and offset 0, where ``sO 1 + cO 0`` is exact, so the
angle addition leaves the values as they are; ``RateFunctions.sums`` and
:func:`population_solution` pass their times (or starts) as the steps of
the origin 0 instead, which takes no angle addition.  Near resonance every
term above keeps one sign, so nothing cancels.  Both channels share their
detunings, and so one phase pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import require_count
from .master_eq import (BathStatistics, InteractionDecomposition, lattice_times,
                        progression_lattice)

__all__ = [
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "PROJ_UP",
    "PROJ_DOWN",
    "SpinBosonModel",
    "SpectralDiscretization",
    "ohmic_density",
    "flat_density",
    "thermal_occupation",
    "RateFunctions",
    "rate_functions",
    "second_order_hamiltonian",
    "element_ode_matrix",
    "coherence_solution",
    "population_solution",
    "vacuum_rates",
    "vacuum_rhs",
    "markov_rates",
    "interaction_decomposition",
    "bath_statistics",
]

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)

# sigma_plus @ sigma_minus = 4 |0><0|,  sigma_minus @ sigma_plus = 4 |1><1|
PROJ_UP = SIGMA_PLUS @ SIGMA_MINUS
PROJ_DOWN = SIGMA_MINUS @ SIGMA_PLUS

# Near-resonance guard of shift_integral's kernel (1 - sin(x)/x)/x: below
# |x| = 1e-3 it switches to its two-term series x/6 (1 - x^2/20), whose
# truncation error there is 1.2e-15 relative.  The closed form just above
# loses about 7 digits to the cancellation in 1 - sin(x)/x, which leaves it
# accurate to better than 1e-9 relative.
_RESONANCE_EPS = 1e-3

# Detunings below this count as exact resonance, so that the half-angle
# factor 2w/d^2 cannot overflow.  The resonant values differ from such a
# mode's exact rates by a relative (d t)^2 / 12 at most, which is below
# rounding for any t under 1e92.
_RESONANT_DETUNING = 1e-100

# Panels of the fixed Simpson grid in population_solution's inner integral,
# and the composite-Simpson weights (1, 4, 2, ..., 2, 4, 1) / 3 on its nodes.
_POPULATION_PANELS = 400
_SIMPSON_WEIGHTS = np.r_[1.0, np.tile([4.0, 2.0], _POPULATION_PANELS // 2)[:-1], 1.0] / 3.0
# Its nodes k step, k = 0 ... 400, as a lattice of 20 starts and 21 offsets.
_SIMPSON_STARTS, _SIMPSON_OFFSETS = progression_lattice(_POPULATION_PANELS + 1)
# Lattice times times modes per kernel call of population_solution, which
# batches whole samples (420 lattice times each) up to it, or takes one
# sample if that alone has more.  A fixed count keeps the phase tables near
# 1.4 MB however many samples and modes (1.7 MB at 400 modes, one sample a
# call); a few-mode bath gets all its samples from one call.
_POPULATION_BUDGET = 1 << 17


def thermal_occupation(omega: float, beta: float) -> float:
    """Mean boson number of a mode at frequency ``omega``, temperature ``1/beta``.

    Closed Bose-Einstein form of the thermal-trace definition;
    ``beta = math.inf`` gives the vacuum value 0.
    """
    if omega <= 0:
        raise ValueError(f"mode frequency must be positive, got {omega}")
    if beta == math.inf:
        return 0.0
    return 1.0 / math.expm1(beta * omega)


def _read_only(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpinBosonModel:
    """Two-level splitting, discrete modes ``(omega_k, g_k)``, inverse temperature.

    The splitting ``omega0`` must be positive and finite, like every mode
    frequency: ``|0>`` is the excited level, and the thermal occupation at
    the system frequency (``markov_rates``) has no meaning at or below zero.
    ``frequencies``, ``couplings``, ``occupations()`` and the rate evaluators
    of :func:`rate_functions` are computed once per model, on read-only
    arrays, which every consumer shares.
    """

    omega0: float
    modes: tuple[tuple[float, float], ...]
    beta: float

    def __post_init__(self):
        object.__setattr__(
            self, "modes", tuple((float(w), float(g)) for w, g in self.modes))
        if not math.isfinite(self.omega0):
            raise ValueError(f"omega0 must be finite, got {self.omega0}")
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not all(math.isfinite(w) and math.isfinite(g) for w, g in self.modes):
            raise ValueError("mode frequencies and couplings must be finite")
        if any(w <= 0 for w, _ in self.modes):
            raise ValueError("mode frequencies must be positive")
        if not (self.beta == math.inf or self.beta > 0):
            raise ValueError(f"beta must be positive or math.inf, got {self.beta}")

    @property
    def vacuum(self) -> bool:
        return self.beta == math.inf

    @cached_property
    def frequencies(self) -> np.ndarray:
        return _read_only([w for w, _ in self.modes])

    @cached_property
    def couplings(self) -> np.ndarray:
        return _read_only([g for _, g in self.modes])

    @cached_property
    def _occupations(self) -> np.ndarray:
        return _read_only([thermal_occupation(w, self.beta) for w, _ in self.modes])

    def occupations(self) -> np.ndarray:
        return self._occupations

    @cached_property
    def _rate_functions(self) -> "RateFunctions":
        # see rate_functions
        g2 = self.couplings ** 2
        return RateFunctions(_read_only(self.frequencies - self.omega0),
                             absorption=_read_only(g2 * self._occupations),
                             emission=_read_only(g2 * (self._occupations + 1.0)))

    def scaled(self, factor: float) -> "SpinBosonModel":
        """Same model with every coupling multiplied by ``factor``."""
        return SpinBosonModel(self.omega0,
                              tuple((w, factor * g) for w, g in self.modes),
                              self.beta)


def ohmic_density(eta: float, omega_c: float) -> Callable[[float], float]:
    """Ohmic spectral density with exponential cutoff: eta * w * exp(-w/omega_c)."""
    def j(omega: float) -> float:
        return eta * omega * math.exp(-omega / omega_c)
    return j


def flat_density(eta: float) -> Callable[[float], float]:
    """Frequency-independent spectral density."""
    def j(omega: float) -> float:
        return eta
    return j


@dataclass(frozen=True)
class SpectralDiscretization:
    """Uniform-grid sampling of a continuous spectral density.

    ``mode_count`` midpoints cover ``[omega_min, omega_max]`` and each mode
    receives the coupling ``g_k = sqrt(J(omega_k) * delta_omega)``, so the
    implied density of states is ``mode_count / (omega_max - omega_min)``.
    """

    spectral_density: Callable[[float], float]
    omega_min: float
    omega_max: float
    mode_count: int

    def __post_init__(self):
        if not 0 <= self.omega_min < self.omega_max:
            raise ValueError(
                f"need 0 <= omega_min < omega_max, got [{self.omega_min}, {self.omega_max}]")
        require_count(self.mode_count, "mode_count", 1)

    @property
    def delta_omega(self) -> float:
        return (self.omega_max - self.omega_min) / self.mode_count

    def mode_grid(self) -> np.ndarray:
        d = self.delta_omega
        return self.omega_min + d * (np.arange(self.mode_count) + 0.5)

    def modes(self) -> tuple[tuple[float, float], ...]:
        d = self.delta_omega
        out = []
        for w in self.mode_grid():
            j = self.spectral_density(float(w))
            if not 0 <= j < math.inf:
                raise ValueError(f"spectral density is {j} at omega = {w}; "
                                 "it must be finite and non-negative")
            out.append((float(w), math.sqrt(j * d)))
        return tuple(out)

    def build_model(self, omega0: float, beta: float) -> SpinBosonModel:
        return SpinBosonModel(omega0, self.modes(), beta)


# -- rate functions ---------------------------------------------------------

def _shift_integral_kernel(x: np.ndarray) -> np.ndarray:
    """The shape (1 - sin(x)/x)/x of the shift integral at x = detuning * t.

    Below |x| = ``_RESONANCE_EPS`` (1e-3) it switches to its two-term
    series, accurate to 1.2e-15 relative there; the closed form above the
    cutover is accurate to better than 1e-9 relative.
    """
    small = np.abs(x) < _RESONANCE_EPS
    xs = np.where(small, 1.0, x)
    return np.where(small, x / 6.0 * (1.0 - x * x / 20.0), (1.0 - np.sin(xs) / xs) / xs)


@dataclass(frozen=True, eq=False)
class RateFunctions:
    """The absorption (occupation-weighted) and emission (occupation+1)
    channels, two families of rate kernels summed over the same modes.

    With detunings ``d_k = omega_k - omega0`` and a channel's non-negative
    weights ``w_k`` (``absorption`` or ``emission``, one per detuning) the
    channel evaluates, per mode and summed,

        decay(t)          = sum_k w_k sin(d_k t) / d_k
        shift(t)          = sum_k w_k (1 - cos(d_k t)) / d_k
        decay_integral(t) = sum_k w_k (1 - cos(d_k t)) / d_k**2
        shift_integral(t) = sum_k w_k (t - sin(d_k t)/d_k) / d_k

    which are the running time integrals of ``w_k cos(d_k (t - s))`` and
    ``w_k sin(d_k (t - s))`` over s in [0, t], and their integrals again.
    :meth:`sums` gives any of them, of both channels, at scalar or array
    ``t``.  The first three take the half-angle form of the module
    docstring, against per-mode factors computed once; the shift integral
    is ``w_k t^2`` times :func:`_shift_integral_kernel` at ``d_k t``.  A
    mode on resonance (``d_k = 0``) adds ``w_k t``, ``0``, ``w_k t^2 / 2``
    and ``0``.  Rate functions compare by identity; their arrays make value
    equality ambiguous.
    """

    detunings: np.ndarray
    absorption: np.ndarray
    emission: np.ndarray

    def __post_init__(self):
        for name in ("detunings", "absorption", "emission"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), float)))
        if not self.detunings.shape == self.absorption.shape == self.emission.shape:
            raise ValueError("one absorption and one emission weight per detuning required")

    @cached_property
    def _live(self) -> tuple[bool, bool]:
        """Whether each channel carries weight; a channel without is zero."""
        return bool(self.absorption.any()), bool(self.emission.any())

    @cached_property
    def _factors(self) -> list:
        """Half detunings, then per channel: its weights; ``2 w / d`` and
        ``2 w / d^2`` (zero on resonance), each repeated for the three
        angle-addition terms; and the summed weight of the resonant modes."""
        d = self.detunings
        resonant = np.abs(d) < _RESONANT_DETUNING
        factors = [0.5 * d]
        for w in (self.absorption, self.emission):
            rate = 2.0 * w / np.where(resonant, 1.0, d)
            rate[resonant] = 0.0
            integral = rate / np.where(resonant, 1.0, d)
            factors.append((w, np.concatenate([rate] * 3), np.concatenate([integral] * 3),
                            float(w[resonant].sum())))
        return factors

    def sums(self, t, parts=("decay", "shift", "decay_integral")):
        """``(absorption parts, emission parts)``: the ``parts`` named (decay,
        shift, decay_integral, shift_integral) of both channels at the times
        ``t``, from one evaluation, the times as the steps of the origin 0
        with the single offset 0.  Each part has the shape of ``t``, and is
        a float for a scalar ``t``."""
        times = np.asarray(t, dtype=float)
        sums = _channel_sums(self, parts, times.reshape(-1), np.zeros(1))()
        return tuple(tuple(_like(times, s) for s in channel) for channel in sums)


def _like(times: np.ndarray, out):
    """``out`` in the shape of ``times``, and a float when that is a scalar."""
    return float(out.reshape(())) if times.ndim == 0 else out.reshape(times.shape)


# The parts of a channel: the angle-addition basis (0: sin a cos a,
# 1: sin^2 a; None for the shift integral, which has a kernel of its own),
# the index of the per-mode factor in a channel's RateFunctions._factors,
# and the resonant modes' term as (coefficient on their weight, power of t).
_PARTS = {
    "decay": (0, 1, (1.0, 1)),
    "shift": (1, 1, None),
    "decay_integral": (1, 2, (0.5, 2)),
    "shift_integral": (None, 0, None),
}


def _channel_sums(rates: RateFunctions, parts, steps: np.ndarray,
                  offsets: np.ndarray) -> Callable[..., list]:
    """Evaluator of ``parts`` of both channels of ``rates``: given
    ``origins``, ``sums[channel][part]`` on the lattice
    ``lattice_times(origins[..., None] + steps, offsets)``; without them, on
    ``lattice_times(steps, offsets)``, the starts ``steps`` at the origin 0.

    The channels share their detunings, so one phase pass serves both.
    This call takes one sine and cosine per step and mode, and per offset
    and mode, and builds one operand per factor kind the parts read (the
    decay and the shift share one): that per-mode factor of each live
    channel, side by side, against ``[cB^2, sB cB, sB^2]`` of the offsets.
    The evaluator takes one sine and cosine per origin and mode, turns them
    into those of every start ``origin + step`` by angle addition, builds
    the left matrix of each basis once, and takes one matrix product over
    the modes per part, whose shape does not depend on the other parts
    asked for, so neither do its bits.  It evaluates the shift integral's
    kernel once at the lattice times for all live channels.  A channel with
    no weight (no modes, or a vacuum's absorption) is zero without a kernel
    evaluation.
    """
    live = rates._live
    half_detunings, *channels = rates._factors
    factors = [f for f, alive in zip(channels, live) if alive]

    def lattice(origins):
        return lattice_times(steps if origins is None else origins[..., None] + steps, offsets)

    if not factors:
        return lambda origins=None: np.zeros((len(live), len(parts)) + lattice(origins).shape)
    phase_b = offsets[..., :, None] * half_detunings     # (..., R, K)
    sb, cb = np.sin(phase_b), np.cos(phase_b)
    right = np.concatenate([cb * cb, sb * cb, sb * sb], axis=-1).swapaxes(-1, -2)
    del phase_b, sb, cb
    # the factors weight the offsets' side, the smaller one for plain times
    operands = {}
    for part in parts:
        basis, kind, _ = _PARTS[part]
        if basis is not None and kind not in operands:
            blocks = [f[kind][:, None] * right for f in factors]
            operands[kind] = np.concatenate(blocks, axis=-1) if len(blocks) > 1 else blocks[0]
            del blocks
    del right
    fine = offsets.shape[-1]
    phase_p = steps[..., :, None] * half_detunings       # (..., Q, K)
    sp, cp = np.sin(phase_p), np.cos(phase_p)
    # the lattice times, for the shift integral and the resonant modes' terms
    resonant = any(f[3] for f in factors)
    timed = any(_PARTS[part][0] is None or (_PARTS[part][2] and resonant) for part in parts)

    def at(origins: np.ndarray | None = None) -> list:
        if origins is None:
            sc, ss, cc = sp * cp, sp * sp, cp * cp
        else:
            phase_o = origins[..., None, None] * half_detunings  # (..., 1, K)
            so, co = np.sin(phase_o), np.cos(phase_o)
            # the starts' phases A = O + P by angle addition, then sin A cos A,
            # sin^2 A and cos^2 A, in three arrays of the starts' shape
            sa, ca, sc = so * cp, co * cp, co * sp
            sa += sc
            ca -= np.multiply(so, sp, out=sc)
            sc = np.multiply(sa, ca, out=sc)
            ss, cc = np.square(sa, out=sa), np.square(ca, out=ca)
        times = lattice(origins) if timed else None
        left, integrals = {}, None
        sums = [[None] * len(parts) for _ in factors]
        for j, part in enumerate(parts):
            basis, kind, resonance = _PARTS[part]
            if basis is None:
                if integrals is None:
                    kernel = _shift_integral_kernel(times[..., None] * rates.detunings)
                    square = times ** 2
                    integrals = [np.sum(f[0] * kernel, axis=-1) * square for f in factors]
                values = integrals
            else:
                if basis not in left:
                    # times as rows (..., Q, 3K), so that each time's sum over the
                    # modes is one dot product, in the order of a per-time evaluation
                    left[basis] = np.concatenate([sc, cc - ss, -sc] if basis == 0
                                                 else [ss, 2.0 * sc, cc], axis=-1)
                product = left[basis] @ operands[kind]      # (..., Q, live channels R)
                values = [product[..., i * fine:(i + 1) * fine] for i in range(len(factors))]
                for value, f in zip(values, factors):
                    if resonance is not None and f[3]:
                        coefficient, power = resonance
                        value += coefficient * f[3] * times ** power
            for i, value in enumerate(values):
                sums[i][j] = value
        if all(live):
            return sums
        shape, sums = sums[0][0].shape, iter(sums)
        return [next(sums) if alive else list(np.zeros((len(parts),) + shape))
                for alive in live]

    return at


def rate_functions(model: SpinBosonModel) -> RateFunctions:
    """Closed per-mode rate evaluators for ``model``.

    The emission weights carry the extra ``+1``, so emission minus
    absorption is exactly the occupation-independent vacuum contribution.
    Built once per model, with read-only arrays, and shared by every caller.
    """
    return model._rate_functions


# -- assembled equation of motion -------------------------------------------

def second_order_hamiltonian(rates: RateFunctions, t: float) -> np.ndarray:
    """Shift part of the generator, diagonal in the energy basis.

    absorption shift * sigma_minus sigma_plus - emission shift * sigma_plus sigma_minus.
    """
    (absorption,), (emission,) = rates.sums(t, ("shift",))
    return absorption * PROJ_DOWN - emission * PROJ_UP


def element_ode_matrix(rates: RateFunctions, t: float) -> np.ndarray:
    """Coefficient matrix of d/dt (rho00, rho01, rho10, rho11).

    Populations exchange with prefactor 8, coherences decay with prefactor 4
    and pick up a phase from the shift rates; the population block's columns
    sum to zero (probability conservation).
    """
    (a, a_shift), (e, e_shift) = rates.sums(t, ("decay", "shift"))
    lam = 4j * (a_shift + e_shift) - 4.0 * (a + e)
    return np.array([
        [-8.0 * e, 0.0, 0.0, 8.0 * a],
        [0.0, lam, 0.0, 0.0],
        [0.0, 0.0, np.conj(lam), 0.0],
        [8.0 * e, 0.0, 0.0, -8.0 * a],
    ], dtype=complex)


def coherence_solution(rho01_0: complex, rates: RateFunctions, t):
    """Closed-form upper coherence: initial value times a phase times a decay.

    Uses the exact running integrals; the lower coherence is the complex
    conjugate with the same decay envelope.
    """
    (absorbed, a_shift), (emitted, e_shift) = rates.sums(t, ("decay_integral", "shift_integral"))
    phase = np.exp(4j * (a_shift + e_shift))
    envelope = np.exp(-4.0 * (absorbed + emitted))
    return rho01_0 * phase * envelope


def population_solution(rho00_0: float, rates: RateFunctions, t):
    """Closed-form spin-up population by variation of parameters.

    With E(t) = exp(-8 int_0^t (absorption decay + emission decay)), returns

        rho00(t) = rho00(0) E(t) + E(t) int_0^t 8 absorption decay(s) / E(s) ds,

    the inner integral on a fixed composite-Simpson grid of 400 panels,
    arranged as exp(I(s) - I(t)) so large exponents never appear; its
    nodes are evaluated as a time lattice, those of a batch of samples as
    one lattice with a leading sample axis.  On a vacuum bath (no absorption
    weight) the inner integral is exactly zero, and all times come from one
    decay-integral evaluation.  The spin-down population is one minus the
    result.  ``t`` may be a scalar or an array of any shape; an array result
    has the same shape.
    """
    if not rates._live[0]:
        _, (emitted,) = rates.sums(t, ("decay_integral",))
        decayed = rho00_0 * np.exp(-8.0 * emitted)
        return float(decayed) if np.ndim(t) == 0 else decayed

    # the Simpson nodes k step of each sample as one lattice, a leading
    # sample axis over batches of samples, both channels in one pass
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.ravel()
    out = np.full(flat.shape, float(rho00_0))
    samples = np.flatnonzero(flat)
    nodes = _POPULATION_PANELS + 1
    per_batch = max(1, _POPULATION_BUDGET // (_SIMPSON_STARTS.size * _SIMPSON_OFFSETS.size
                                              * rates.detunings.size))
    for first in range(0, samples.size, per_batch):
        batch = samples[first:first + per_batch]
        step = flat[batch, None] / _POPULATION_PANELS
        sums = _channel_sums(rates, ("decay", "decay_integral"),
                             step * _SIMPSON_STARTS, step * _SIMPSON_OFFSETS)()
        (decay, absorbed), (_, emitted) = ([s.reshape(batch.size, -1)[:, :nodes] for s in channel]
                                           for channel in sums)
        running = 8.0 * (absorbed + emitted)
        final = running[:, -1:]
        homogeneous = rho00_0 * np.exp(-final[:, 0])
        integrand = 8.0 * decay * np.exp(running - final)
        # a sum per sample, so that a sample's value does not depend on its batch
        out[batch] = homogeneous + step[:, 0] * np.sum(integrand * _SIMPSON_WEIGHTS, axis=-1)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def vacuum_rates(model: SpinBosonModel, t):
    """Vacuum-limit pair (decay rate, level shift) = (2, -2) times the emission parts.

    Only defined for a vacuum bath, where the absorption channel vanishes
    identically and the equation of motion collapses to a single-dissipator
    form; finite temperatures are rejected.
    """
    if not model.vacuum:
        raise ValueError("vacuum rates require beta = math.inf")
    _, (decay, shift) = rate_functions(model).sums(t, ("decay", "shift"))
    return 2.0 * decay, -2.0 * shift


def vacuum_rhs(model: SpinBosonModel, rho: np.ndarray, t) -> np.ndarray:
    """Generator assembled in the vacuum single-dissipator form.

    -(i/2) shift [P_up, rho] + decay (sigma_minus rho sigma_plus - {P_up, rho}/2)
    with P_up = sigma_plus sigma_minus.  Equals the generic second-order
    generator for vacuum baths; kept as an independent assembly for
    structural checks.  ``rho`` may be a stack of states, shape
    ``(..., 2, 2)``, all evaluated from one rate evaluation; the result has
    shape ``np.shape(t) + rho.shape``.
    """
    rho = np.asarray(rho, dtype=complex)
    expand = (Ellipsis,) + (None,) * rho.ndim
    decay, shift = (np.asarray(r)[expand] for r in vacuum_rates(model, t))
    comm = PROJ_UP @ rho - rho @ PROJ_UP
    anti = PROJ_UP @ rho + rho @ PROJ_UP
    return -0.5j * shift * comm + decay * (SIGMA_MINUS @ rho @ SIGMA_PLUS - 0.5 * anti)


def markov_rates(disc: SpectralDiscretization, model: SpinBosonModel) -> tuple[float, float]:
    """Constant long-time rates from the resonance approximation.

    Extending the memory integral to the infinite past turns the kernel into
    a delta at the system frequency, leaving pi * J(omega0) * n(omega0) for
    the absorption channel and the occupation+1 analogue for emission (the
    density of states times the squared coupling collapses to J).  Requires
    omega0 inside the sampled band; a delta outside it has no support.
    """
    if not disc.omega_min <= model.omega0 <= disc.omega_max:
        raise ValueError(
            f"omega0 = {model.omega0} outside the sampled band "
            f"[{disc.omega_min}, {disc.omega_max}]")
    j0 = disc.spectral_density(model.omega0)
    n0 = thermal_occupation(model.omega0, model.beta)
    return math.pi * j0 * n0, math.pi * j0 * (n0 + 1.0)


# -- bridge to the generic engine -------------------------------------------

def interaction_decomposition(model: SpinBosonModel) -> InteractionDecomposition:
    """System operators of the coupling: raising paired with bath lowering
    (term 0) and lowering paired with bath raising (term 1).  In the frame
    co-rotating with the free Hamiltonian both are constant; the bath
    operators carry all time dependence."""
    return InteractionDecomposition(terms=(SIGMA_PLUS, SIGMA_MINUS))


def bath_statistics(model: SpinBosonModel) -> BathStatistics:
    """Thermal bath statistics for the two coupling terms.

    The bath has zero mean (the thermal state is diagonal in occupation
    number), as the engine's contract asks.  The only non-zero correlations
    are the cross ones:

        C[0,1](t, s) = sum_k g_k^2 (n_k + 1) exp(-i d_k (t - s))
        C[1,0](t, s) = sum_k g_k^2  n_k      exp(+i d_k (t - s))

    with d_k the detunings.  Their exact time integrals are the decay and
    shift rates of :func:`rate_functions`, evaluated on the engine's time
    lattice, so the generic engine never quadratures this bath.
    """
    rates = rate_functions(model)
    detunings, emission, absorption = rates.detunings, rates.emission, rates.absorption

    def correlation(j: int, k: int, t: float, s: float) -> complex:
        if (j, k) == (0, 1):
            return complex(np.sum(emission * np.exp(-1j * detunings * (t - s))))
        if (j, k) == (1, 0):
            return complex(np.sum(absorption * np.exp(1j * detunings * (t - s))))
        return 0j

    def integrals(steps: np.ndarray, offsets: np.ndarray):
        # both channels from one phase pass, over one table of steps and
        # offsets; the reverse integrals are the complex conjugates of the
        # forward ones, written in place into the second half
        sums = _channel_sums(rates, ("decay", "shift"), steps, offsets)

        def at(origins: np.ndarray):
            (a_decay, a_shift), (e_decay, e_shift) = sums(origins)
            out = np.zeros(e_decay.shape + (2, 2, 2), dtype=complex)
            out[..., 0, 0, 1] = e_decay - 1j * e_shift
            out[..., 0, 1, 0] = a_decay + 1j * a_shift
            np.conjugate(out[..., 0, :, :], out=out[..., 1, :, :])
            return out

        return at

    return BathStatistics(correlation=correlation, integrals=integrals)
