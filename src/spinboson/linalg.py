"""Dense complex linear algebra shared by the dynamics modules.

Everything operates on plain ``numpy`` arrays (``complex128``, square).  The
Hilbert spaces in this package stay small (a two-level system times a
truncated bosonic bath), so dense storage plus eigendecompositions beat any
sparse or iterative machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SubsystemShape",
    "partial_trace",
    "require_hermitian",
    "require_density_matrix",
    "require_time_grid",
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


@dataclass(frozen=True)
class SubsystemShape:
    """Tensor-factor layout of a composite Hilbert space.

    ``factor_dims`` lists the dimension of each factor in kron order and
    ``keep_index`` names the factor that survives a partial trace.
    """

    factor_dims: tuple[int, ...]
    keep_index: int

    def __post_init__(self):
        object.__setattr__(self, "factor_dims", tuple(int(d) for d in self.factor_dims))
        if not self.factor_dims or any(d < 1 for d in self.factor_dims):
            raise ValueError(f"factor dimensions must be positive, got {self.factor_dims}")
        if not 0 <= self.keep_index < len(self.factor_dims):
            raise ValueError(
                f"keep_index {self.keep_index} out of range for {len(self.factor_dims)} factors")

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims))


def partial_trace(rho: np.ndarray, shape: SubsystemShape) -> np.ndarray:
    """Trace out every tensor factor except ``shape.keep_index``.

    The trace of the input is preserved exactly (the operation is a plain
    index contraction).
    """
    rho = _as_square(rho, "rho")
    if rho.shape[0] != shape.total_dim:
        raise ValueError(
            f"state dimension {rho.shape[0]} does not match factor dims {shape.factor_dims}")
    dims = shape.factor_dims
    n = len(dims)
    reshaped = rho.reshape(dims + dims)
    # einsum sublist form: traced factors share one label between row and
    # column axes, the kept factor gets distinct row/column labels.
    row_labels = list(range(n))
    col_labels = [i if i != shape.keep_index else n + i for i in range(n)]
    out_labels = [shape.keep_index, n + shape.keep_index]
    return np.einsum(reshaped, row_labels + col_labels, out_labels)
