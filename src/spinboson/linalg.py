"""Input checks shared by the dynamics modules and the config parser.

Square, Hermitian and density matrices as plain ``numpy`` arrays
(``complex128``), finite, strictly increasing time grids, and counts.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "require_hermitian",
    "require_density_matrix",
    "require_time_grid",
    "require_count",
]


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def require_hermitian(a: np.ndarray, tol: float = 1e-10,
                      name: str = "matrix") -> np.ndarray:
    a = _as_square(a, name)
    defect = float(np.max(np.abs(a - a.conj().T)))
    if not defect <= tol:  # a NaN entry fails too
        raise ValueError(f"{name} is not Hermitian: max |A - A^dag| = {defect:.3e} > {tol:.1e}")
    return a


def require_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """``rho`` as a complex array if it is Hermitian, unit trace and positive
    semidefinite within ``tol``; ``ValueError`` otherwise."""
    rho = require_hermitian(rho, tol, "initial state")
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= tol:
        raise ValueError(f"initial state trace {trace:.12g} is not 1")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if min_eig < -tol:
        raise ValueError(f"initial state is not positive semidefinite: "
                         f"eigenvalue {min_eig:.3e}")
    return rho


def require_time_grid(times) -> np.ndarray:
    """``times`` as a float array if it is a non-empty, finite, strictly
    increasing 1-d grid; ``ValueError`` otherwise."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"times must be finite, got {times[~np.isfinite(times)][0]}")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def require_count(value, name: str, minimum: int = 0) -> int:
    """``value`` as an ``int`` if it is an integer (a numpy one too) of at
    least ``minimum``, 0 or 1; ``ValueError`` naming ``name`` otherwise.  A
    bool or a float is no count, whatever its value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)
