"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the CPU speed available to one process drifts by 20 % or
more between runs a few minutes apart, and every timing of the program
drifts with it.  The benchmark runs this kernel after each of the
program's invocations, for a fixed share of its time, and scales each op's
timings by ``REFERENCE_SECONDS`` over the mean time of the kernel calls
that followed that op.  The kernel is the benchmark's own code, so a
change to the program does not change it.  Its mix follows the program's:
interpreter loops, numpy calls on 2x2 and 400-element arrays, and a dense
complex matrix product.
"""

from __future__ import annotations

import numpy as np

# Mean time of one kernel call on the host this benchmark was built on, in
# a quiet period (2 shared cores, Python 3.11, OpenBLAS 0.3.31, numpy 2.4.6,
# one BLAS thread).  Scaled timings are seconds on a host where the kernel
# takes this long; only their scale depends on it, not their spread.
REFERENCE_SECONDS = 0.004

_rng = np.random.default_rng(20200428)
_STATE = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
_PROPAGATOR = np.array([[0.99, 0.05j], [0.05j, 0.99]])
_GRID = np.linspace(0.01, 10.0, 400)
_MATRIX = (_rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))) / 256


def reference_kernel() -> float:
    """One call of the fixed reference work; returns a checksum."""
    rho = _STATE
    for _ in range(180):
        rho = _PROPAGATOR @ rho @ _PROPAGATOR.conj().T
        rho = rho / np.trace(rho)
    total = 0.0
    for k in range(4500):
        total += k * 0.5
    for _ in range(30):
        total += float(np.sum(np.exp(-0.1 * _GRID) * np.cos(1.3 * _GRID) / _GRID))
    product = _MATRIX @ _MATRIX
    return total + float(rho[0, 0].real) + float(product[0, 0].real)

