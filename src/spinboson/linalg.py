"""Input checks shared by the dynamics modules and the config parser.

Density matrices as plain ``numpy`` arrays (``complex128``), finite,
strictly increasing time grids, finite times of any shape, counts, and
coupling factors.

The phase rule: past ``MAX_PHASE`` a phase time x frequency has too few
correct digits, so each evaluator passes its rate, a bound of the
frequencies it multiplies times by, with its times to
:func:`require_finite_times` or :func:`require_time_grid`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "MAX_PHASE",
    "require_density_matrix",
    "require_time_grid",
    "require_finite_times",
    "require_count",
    "require_factors",
]

# The largest phase, in rad, that a time may take against an evaluator's
# rate: one ulp of a phase of 1e8 is 1.5e-8 rad, and far beyond it the
# sines and cosines carry no digit (at t = 1e17 a shift integral of -5.6e15
# on the README model), overflow to infinities or turn to NaN.
MAX_PHASE = 1e8


def require_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """``rho`` as a complex array if it is square, Hermitian, unit trace and
    positive semidefinite within ``tol``; ``ValueError`` otherwise.

    The three quantities checked are the Hermitian defect
    ``max |rho - rho^dag|``, the trace, and the smallest eigenvalue of the
    Hermitian part ``(rho + rho^dag) / 2``.  For a 2 x 2 ``rho`` they are
    scalar closed forms, cheap enough for a config parse: the eigenvalue of
    ``[[p, o], [conj(o), q]]`` is ``(p + q - hypot(p - q, 2 |o|)) / 2``.  A
    NaN entry fails, off the diagonal by the defect and on it by the trace.
    Other sizes take the eigenvalue from ``eigvalsh``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (2, 2):
        (a, b), (c, d) = rho.tolist()
        c = c.conjugate()
        # the off-diagonal term first: max keeps a NaN first argument
        defect = max(abs(b - c), 2.0 * abs(a.imag), 2.0 * abs(d.imag))
        trace = a + d
        min_eig = 0.5 * (trace.real - math.hypot(a.real - d.real, abs(b + c)))
    elif rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"initial state must be square, got shape {rho.shape}")
    else:
        defect = float(np.max(np.abs(rho - rho.conj().T)))
        trace = complex(np.trace(rho))
        min_eig = None
    if not defect <= tol:  # a NaN entry fails too
        raise ValueError(f"initial state is not Hermitian: max |A - A^dag| = {defect:.3e} "
                         f"> {tol:.1e}")
    if not abs(trace - 1.0) <= tol:
        raise ValueError(f"initial state trace {trace:.12g} is not 1")
    if min_eig is None:
        min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if min_eig < -tol:
        raise ValueError(f"initial state is not positive semidefinite: "
                         f"eigenvalue {min_eig:.3e}")
    return rho


def require_time_grid(times, rate: float = 0.0) -> np.ndarray:
    """``times`` as a float array if it is a non-empty, finite, strictly
    increasing 1-d grid within the phase rule at ``rate``
    (:func:`require_finite_times`); ``ValueError`` otherwise."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d grid")
    require_finite_times(times, rate)
    # two different finite floats have a nonzero difference (subnormals), so
    # comparing neighbours tests np.diff(times) > 0, at half the cost of
    # np.diff: every config parse checks its grid
    if (times[1:] <= times[:-1]).any():
        raise ValueError("times must be strictly increasing")
    return times


def require_finite_times(t, rate: float = 0.0) -> np.ndarray:
    """``t``, a scalar or an array of any shape, as a float array if every
    time in it is finite and its phases ``|t| x rate`` are at most
    ``MAX_PHASE``; ``ValueError`` otherwise, naming the first time that is
    not finite, or the largest time and its phase.  ``rate`` is the
    caller's bound on the frequencies it multiplies the times by, finite
    and non-negative; at 0 only finiteness is checked."""
    times = np.asarray(t, dtype=float)
    # one reduction for both tests: a NaN or infinite time makes the phase
    # NaN or infinite, at rate 0 too (in Python floats, without a warning)
    reach = float(np.abs(times).max(initial=0.0))
    if not reach * rate <= MAX_PHASE:
        if not math.isfinite(reach):
            raise ValueError(f"times must be finite, got {times[~np.isfinite(times)][0]}")
        raise ValueError(f"time {reach:g} at rate {rate:g} makes a phase of {reach * rate:g} "
                         f"rad, past MAX_PHASE = {MAX_PHASE:g}")
    return times


def require_count(value, name: str, minimum: int = 0) -> int:
    """``value`` as an ``int`` if it is an integer (a numpy one too) of at
    least ``minimum``, 0 or 1; ``ValueError`` naming ``name`` otherwise.  A
    bool or a float is no count, whatever its value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def require_factors(factors) -> np.ndarray:
    """``factors`` as a float array if it is a 1-d sequence of finite
    numbers, an empty one included; ``ValueError`` otherwise."""
    factors = np.asarray(factors, dtype=float)
    if factors.ndim != 1 or not np.all(np.isfinite(factors)):
        raise ValueError("coupling factors must be a 1-d sequence of finite numbers")
    return factors
