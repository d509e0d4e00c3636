"""Brute-force reference dynamics on a truncated Fock space.

Each bosonic mode is capped at ``n_max`` quanta, which makes the full
system+bath space finite.  The coupling exchanges single quanta, so the
total Hamiltonian splits into excitation-number sectors, and one
eigendecomposition per sector gives the reduced dynamics exactly (within
the truncation) at every requested time.  One pass over the sectors serves
several coupling scales at once: the sector blocks and the bath weights are
built once, and each sector diagonalizes the stacked blocks of a chunk of
scales in one call.  The rest of the pass runs on buckets of consecutive
sectors, zero-padded to common shapes, so that many small sectors share
each array operation; a large sector is a bucket of its own.  A pass of
more than one bucket, in a process whose OpenBLAS is pinned to fewer
threads than it has CPUs (OPENBLAS_NUM_THREADS=1 on two CPUs, say), hands
its ``eigh`` calls to a background thread of its own, which works up to
two buckets ahead of the bucket whose products the calling thread forms
and is joined before the pass returns; the results are used in bucket
order, so every sum is the one the calling thread alone would form, bit
for bit.  Any other pass, as in a process with OpenBLAS at its default of
a thread per CPU, runs on the calling thread alone.  The series
terms of the evolution operator come from one exponential of a block
matrix built from the free energies and the coupling.  The exact reduced
map comes from the same sector pass, as a 4 x 4 matrix on row-major 2 x 2
states; the deviation of that map from the identity and the
alternating-sum inversion identity work with it alone.  All of them read
one table of product-basis matrix elements.  Each function takes the one
:class:`TruncatedBath`, which holds the model it truncates.

All reduced states returned here live in the frame co-rotating with the
uncoupled Hamiltonian, so they compare directly against the master-equation
trajectories.
"""

from __future__ import annotations

import collections
import os
import re
import threading
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .linalg import (require_count, require_density_matrix, require_factors,
                     require_time_grid)
from .master_eq import Trajectory
from .spin_boson import SpinBosonModel

__all__ = [
    "BathDimensionError",
    "TruncationError",
    "TruncatedBath",
    "full_hamiltonian",
    "thermal_bath_state",
    "interaction_unitary",
    "exact_reduced_dynamics",
    "exact_scaled_dynamics",
    "dyson_terms",
    "reduced_map_deviation",
    "map_inversion_residual",
]

# Sector pass (_sector_sums): a chunk takes max(1, _SECTOR_BUDGET // d**2)
# coupling factors, d the largest sector, and a bucket of consecutive sectors
# holds at most _SECTOR_BUDGET zero-padded eigenvector elements per factor.
# A chunk's bucket arrays thus hold up to chunk x _SECTOR_BUDGET elements and
# its phases 2 len(times) times that: the chunk bounds one bucket's memory,
# which for many small sectors exceeds the largest sector's alone.
_SECTOR_BUDGET = 4096

# Buckets that the worker thread diagonalizes ahead of the calling thread's
# (_sector_sums, _lookahead).
_LOOKAHEAD = 2

# The BLAS that numpy links, as its build records it ("" before numpy 1.26,
# whose builds record none): the worker runs only beside OpenBLAS, whose
# thread count _lookahead reads.
_BLAS = str(getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
            .get("blas", {}).get("name", "")).lower()

# check_truncation's one bound on the shift of a sampled element at twice n_max.
_TRUNCATION_BOUND = 1e-6


class BathDimensionError(ValueError):
    """Truncated Hilbert space would exceed the configured cap."""

    def __init__(self, dim: int, cap: int, n_max: int, n_modes: int, needed_by: str = ""):
        super().__init__(
            f"{needed_by}full Hilbert dimension 2*({n_max}+1)^{n_modes} = {dim} exceeds the "
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
    """A model and the Fock cutoff of its bath, with the dimension
    bookkeeping: the one argument every function here reads the model from.

    Thermal runs with beta * omega >= 1 are well served by the default
    ``n_max = 4``; hotter baths need a larger cutoff (check with
    ``exact_reduced_dynamics(bath, rho0, times, check_truncation=True)``).
    """

    model: SpinBosonModel
    n_max: int = 4
    dim_cap: int = 8192

    def __post_init__(self):
        require_count(self.n_max, "n_max")
        require_count(self.dim_cap, "dim_cap")
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

    def with_n_max(self, n_max: int) -> "TruncatedBath":
        return replace(self, n_max=n_max)


def _matrix_elements(bath: TruncatedBath):
    """Matrix elements of the total Hamiltonian in the product basis.

    Product state ``s * bath_dim + b`` is system level ``s`` (0 up, 1 down)
    with bath state ``b``; mode 0 is the most significant digit of ``b``.
    Returns the occupation table (bath_dim, n_modes), the diagonal energies
    (the uncoupled Hamiltonian, length 2 * bath_dim) and the coupling as
    ``(rows, cols, values)``: <up, n| H |down, n + e_k> = 2 g_k sqrt(n_k + 1)
    in the factor-two ladder convention, each pair listed once.
    """
    model = bath.model
    strides = bath.levels ** np.arange(bath.n_modes - 1, -1, -1)
    occupations = np.arange(bath.bath_dim)[:, None] // strides % bath.levels
    e_sys = np.array([0.5 * model.omega0, -0.5 * model.omega0])
    energies = np.add.outer(e_sys, occupations @ model.frequencies).ravel()
    rows, cols, values = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    for k, (_, g) in enumerate(model.modes):
        below = np.flatnonzero(occupations[:, k] < bath.n_max)
        rows.append(below)
        cols.append(bath.bath_dim + below + strides[k])
        values.append(2.0 * g * np.sqrt(occupations[below, k] + 1.0))
    return occupations, energies, tuple(map(np.concatenate, (rows, cols, values)))


def full_hamiltonian(bath: TruncatedBath) -> np.ndarray:
    """Total Hamiltonian on the truncated system+bath space.

    Level splitting plus free modes plus the excitation-exchanging coupling,
    in the module-wide factor-two ladder convention.
    """
    _, energies, (rows, cols, values) = _matrix_elements(bath)
    h = np.diag(energies).astype(complex)
    h[rows, cols] = values
    h[cols, rows] = values
    return h


def _sector_hamiltonians(bath: TruncatedBath):
    """Blocks of the total Hamiltonian in excitation-number sectors.

    The coupling only exchanges single quanta, so N = n_up + sum_k n_k is
    conserved (exactly, also under the per-mode Fock cutoff).  Sector N holds
    the states (up, n) with sum n = N - 1 and (down, n) with sum n = N.
    Yields one ``(states, energies, coupling)`` triple per N = 0, 1, ...:
    the product-basis indices of the sector in ascending order (its up
    states first), their uncoupled energies and the coupling restricted to
    them.  The block of the model with every coupling scaled by ``f`` is
    ``np.diag(energies) + f * coupling``.  Each block is built when it is
    asked for, so a pass that stops early never builds the later ones.
    """
    occupations, energies, (rows, cols, values) = _matrix_elements(bath)
    quanta = occupations.sum(axis=1)
    number = np.concatenate([quanta + 1, quanta])
    order = np.argsort(number, kind="stable")
    starts = np.searchsorted(number[order], np.arange(number.max() + 2))
    local = np.empty_like(order)
    local[order] = np.arange(len(order)) - starts[number[order]]
    # the coupled pairs grouped by sector, so that each sector takes a slice
    pair_number = number[rows]
    pairs = np.argsort(pair_number, kind="stable")
    bounds = np.searchsorted(pair_number[pairs], np.arange(number.max() + 2))
    rows, cols, values = local[rows[pairs]], local[cols[pairs]], values[pairs]
    for n in range(number.max() + 1):
        states = order[starts[n]:starts[n + 1]]
        v = np.zeros((len(states), len(states)))
        inside = slice(bounds[n], bounds[n + 1])
        r, c = rows[inside], cols[inside]
        v[r, c] = values[inside]
        v[c, r] = values[inside]
        yield states, energies[states], v


def _bath_weights(bath: TruncatedBath) -> np.ndarray:
    """Diagonal of the truncated thermal bath state, one weight per bath state."""
    model = bath.model
    weights = np.ones(1)
    for omega, _ in model.modes:
        if model.vacuum:
            mode = np.zeros(bath.levels)
            mode[0] = 1.0
        else:
            mode = np.exp(-np.arange(bath.levels) * model.beta * omega)
            mode /= mode.sum()
        weights = np.multiply.outer(weights, mode).ravel()
    return weights


def thermal_bath_state(bath: TruncatedBath) -> np.ndarray:
    """Product of per-mode truncated thermal states, diagonal, unit trace.

    Each mode carries geometric weights exp(-m beta omega) for m up to
    ``n_max``, normalized by the truncated sum; the vacuum (beta infinite)
    puts all weight on the ground level.
    """
    return np.diag(_bath_weights(bath)).astype(complex)


def interaction_unitary(bath: TruncatedBath, t: float) -> np.ndarray:
    """Exact co-rotating-frame propagator exp(+i H0 t) exp(-i H t), at a finite ``t``."""
    t = float(require_time_grid([t])[0])
    h = full_hamiltonian(bath)
    w, v = np.linalg.eigh(h)
    u_sch = (v * np.exp(-1j * w * t)) @ v.conj().T
    return _co_rotate(h, t, u_sch)


def _co_rotate(h: np.ndarray, t: float, op: np.ndarray) -> np.ndarray:
    """exp(+i H0 t) op, with H0 the diagonal of ``h``, at a checked time ``t``."""
    return np.exp(1j * np.diag(h).real * t)[:, None] * op


def exact_reduced_dynamics(bath: TruncatedBath, rho0: np.ndarray, times: Sequence[float],
                           check_truncation: bool = False) -> Trajectory:
    """Exact reduced dynamics of the system, rotated to the co-rotating frame.

    The one-factor case of :func:`exact_scaled_dynamics`, which describes
    the method and the arguments.
    """
    return exact_scaled_dynamics(bath, rho0, times, (1.0,), check_truncation=check_truncation)[0]


def exact_scaled_dynamics(bath: TruncatedBath, rho0: np.ndarray, times: Sequence[float],
                          factors: Sequence[float],
                          check_truncation: bool = False) -> list[Trajectory]:
    """Exact reduced dynamics of ``bath.model.scaled(f)`` for each ``f`` in ``factors``.

    Propagates ``rho0 (x) thermal bath`` one excitation-number sector at a
    time, in one pass for all factors: the sectors and the bath weights are
    built once, since scaling the couplings by f turns each block into
    ``diag(E) + f V`` and leaves the weights alone.  The bath state is
    diagonal, so the full state only has blocks (N, N), which give the
    populations, and (N, N - 1) and (N - 1, N), which give the coherences
    rho01 and rho10.  Each block is eigendecomposed once per factor, with
    the factors and sectors stacked as :func:`_sector_sums` describes; the
    reduced element it contributes is then a bilinear form in the phases
    exp(-i w t) of the two sectors, evaluated for all sample times in real
    arithmetic on their cosines and sines.  Every factor's result is the
    same, bit for bit, as that of a pass with that factor alone.  Sectors
    holding no bath weight (all but two for the vacuum) are never built or
    diagonalized.  The free system rotation is applied last, so the output
    is directly comparable to master-equation trajectories.  With
    ``check_truncation`` the pass is repeated at double the Fock cutoff,
    and the first factor whose sampled elements move by more than the fixed
    1e-6 raises TruncationError; a doubled cutoff over ``bath.dim_cap``
    raises before the first pass.  ``times`` must be a finite, strictly
    increasing grid.  Returns one checked :class:`Trajectory` per factor.
    """
    rho0 = require_density_matrix(rho0)
    times = require_time_grid(times)
    factors = require_factors(factors)
    if check_truncation:
        # the rerun must fit the cap too: say so before the first run, not after it
        try:
            fine = bath.with_n_max(2 * bath.n_max)
        except BathDimensionError as exc:
            raise BathDimensionError(exc.dim, exc.cap, 2 * bath.n_max, bath.n_modes,
                                     needed_by="check_truncation reruns at twice n_max: ") from None
    trajectories = [Trajectory(times, states,
                               metadata={"integrator": "exact-eig", "n_max": bath.n_max})
                    for states in _rotated_states(bath, rho0, times, factors)]
    if check_truncation:
        for traj, reference in zip(trajectories, _rotated_states(fine, rho0, times, factors)):
            shift = float(np.max(np.abs(traj.states - reference)))
            traj.metadata["truncation_shift"] = shift
            if shift > _TRUNCATION_BOUND:
                raise TruncationError(shift, _TRUNCATION_BOUND)
    return trajectories


def _rotated_states(bath: TruncatedBath, rho0: np.ndarray, times: np.ndarray,
                    factors: np.ndarray) -> np.ndarray:
    """The reduced states of :func:`exact_scaled_dynamics`, co-rotated, from
    checked arguments: shape ``(len(factors), len(times), 2, 2)``."""
    z = _sector_sums(bath, rho0.diagonal().real, times, factors)
    reduced = np.empty((len(factors), len(times), 2, 2), dtype=complex)
    reduced[:, :, 0, 0] = z[:, 0]
    reduced[:, :, 1, 1] = z[:, 1]
    reduced[:, :, 0, 1] = rho0[0, 1] * z[:, 2]
    reduced[:, :, 1, 0] = rho0[1, 0] * z[:, 3]

    omega0 = bath.model.omega0
    e_sys = np.array([0.5 * omega0, -0.5 * omega0])
    rot = np.exp(1j * np.outer(times, e_sys))
    return rot[:, :, None] * reduced * rot.conj()[:, None, :]


def _sector_sums(bath: TruncatedBath, populations: np.ndarray, times: np.ndarray,
                 factors: np.ndarray) -> np.ndarray:
    """Sector pass behind :func:`exact_scaled_dynamics`.

    ``populations`` holds the initial (rho00, rho11), shape ``(2,)``, or a
    stack of them, shape ``(k, 2)``.  Returns rho00 and rho11 from each
    initial pair in turn, then rho01 / rho0[0, 1] and rho10 / rho0[1, 0],
    before the free rotation: shape ``(len(factors), 2 k + 2, len(times))``,
    with k = 1 for a single pair.  Each is a sum over sectors of bilinear
    forms sum_ij phase[t, i] c[i, j] conj(phase'[t, j]) with real c and
    phase = exp(-i w t) = cos - i sin, accumulated as its four real cos/sin
    pairings, in sector order.  Every sector is diagonalized once per
    factor, whatever the number of initial pairs; each pair costs one
    d x d product more.

    The factors run in chunks of ``max(1, _SECTOR_BUDGET // d**2)``, d the
    largest diagonalized sector, and the sectors in buckets of consecutive
    sectors (:func:`_buckets`).  Each sector takes one ``eigh`` call per
    chunk, on its blocks stacked over the chunk's factors.  Its eigenvalues
    and eigenvectors are zero-padded into its bucket's stacked arrays, and
    the phases, the products and the pairings run once per bucket and
    chunk; the padding adds zeros only, and the sectors' sums are added in
    sector order.  The coherence across a bucket boundary pairs the
    bucket's first sector with the previous bucket's last.  Memory per
    chunk: each stacked array of a bucket holds at most ``chunk x
    _SECTOR_BUDGET`` elements, times the initial pairs for the population
    products and times ``2 len(times)`` for the phases and the products
    with them.  So small sectors share arrays larger than any one of them
    needs, and the chunk does not bound a pass's memory by that of its
    largest sector: on ``thermal_2mode`` the three-factor pass peaks at
    about 4.7 times the peak of its sectors run one at a time, on a grid
    of 201 or 1001 times.  A sector past the budget is a bucket of its own
    and costs what it would unbucketed.  Each factor's arithmetic is the
    same in any chunk.

    The chunks' buckets form one stream of ``eigh`` jobs.  A pass of more
    than one bucket, with more CPUs than OpenBLAS threads
    (:func:`_lookahead`), starts a worker thread that runs them up to
    ``_LOOKAHEAD`` = 2 buckets ahead, while the calling thread forms the
    phases, products and pairings of the bucket before; LAPACK releases
    the GIL.  The pass joins the thread before it returns.  Any other pass
    runs them inline and starts no thread.  The lookahead adds at most two
    buckets' eigensystems, and the blocks of the bucket being diagonalized,
    to the memory above: on ``fock_4mode`` the three-factor pass peaks at
    0.72 to 0.76 MB against 0.67 MB inline (tracemalloc).  An exception of
    an ``eigh`` call reaches the caller when its bucket is due, after the
    worker has stopped before the jobs it had not started and is joined.
    """
    populations = np.asarray(populations, dtype=float)
    # one weight per product state: its bath state's, for either level
    weights = np.tile(_bath_weights(bath), 2)
    sectors = []
    for states, energies, coupling in _sector_hamiltonians(bath):
        p = weights[states]
        if not p.any():
            break  # the weights fall with the quanta, so no later sector has any
        sectors.append((energies, coupling, int(np.searchsorted(states, bath.bath_dim)), p))
    n_t = len(times)
    column = times[:, None]
    sums = np.zeros((populations.size + 2, len(factors), 2, 2, n_t))
    chunk = max(1, _SECTOR_BUDGET // max(len(s[0]) for s in sectors) ** 2)
    firsts = range(0, len(factors), chunk)
    buckets = _buckets(sectors, populations)
    # every chunk's buckets form one stream, diagonalized ahead of its use
    systems = _eigensystems([(blocks, factors[first:first + chunk, None, None])
                             for first in firsts for blocks, *_ in buckets],
                            _lookahead(len(buckets)))
    with closing(systems):
        for first in firsts:
            _chunk_sums(sums[:, first:first + chunk], buckets, systems, column)
    z = (sums[..., 0, 0, :] + sums[..., 1, 1, :]) + 1j * (sums[..., 0, 1, :] - sums[..., 1, 0, :])
    return z.swapaxes(0, 1)


def _chunk_sums(part: np.ndarray, buckets: list, systems, column: np.ndarray) -> None:
    """Add one chunk's bucket pairings to its sums ``part``, taking each
    bucket's eigensystems from the stream ``systems`` in turn."""
    count, n_t = part.shape[1], len(column)
    diagonal, rho01, rho10 = part[:-2], part[-2], part[-1]
    previous = None
    for blocks, n_up, q, p_up in buckets:
        w, v = _padded(next(systems), blocks, n_up, q.shape[-1])
        n_s, columns = w.shape[1:]
        trig = np.empty((count, n_s, 2, n_t, columns))
        angles = np.multiply(column, w[:, :, None, :], out=trig[:, :, 1])
        np.cos(angles, out=trig[:, :, 0])
        np.sin(angles, out=angles)
        x = trig.reshape(count, n_s, 2 * n_t, columns)
        for level, pairings in enumerate(_population_pairings(v, n_up, q, x, trig)):
            diagonal[level::2] += pairings.reshape(diagonal[level::2].shape)
        # the up states of sector N pair with the down states of sector
        # N - 1, bath state by bath state in the same order: first across
        # the boundary with the previous bucket, then inside this one.
        # The two coherences share one matrix but are summed apart, so
        # their mismatch stays a measured hermiticity error
        up_t, down = v[..., :n_up, :].swapaxes(-1, -2), v[..., n_up:, :]
        if previous is not None:
            m = blocks[0][2]
            prev_down, prev_x, prev_trig = previous
            to, fro = _coherences(up_t[:, :1, :, :m], p_up[:1, :, :m], prev_down[:, :, :m],
                                  x[:, :1], prev_x, trig[:, :1], prev_trig)
            rho01 += to
            rho10 += fro
        if n_s > 1:
            m = min(n_up, down.shape[-2])
            to, fro = _coherences(up_t[:, 1:, :, :m], p_up[1:, :, :m], down[:, :-1, :m],
                                  x[:, 1:], x[:, :-1], trig[:, 1:], trig[:, :-1])
            rho01 += to
            rho10 += fro
        previous = down[:, -1:], x[:, -1:], trig[:, -1:]


def _buckets(sectors: list, populations: np.ndarray) -> list:
    """Consecutive sectors grouped into the zero-padded buckets of the sector pass.

    ``sectors`` holds one ``(energies, coupling, up count, weights)`` per
    sector, in order.  A sector joins the open bucket while the bucket's
    padded elements per factor, sectors x rows x columns, stay within
    ``_SECTOR_BUDGET``, so the buckets depend on the sector dimensions
    alone.  A bucket's rows are its largest up count and then its largest
    down count: sector N's up rows line up with sector N - 1's down rows.
    Returns one ``(blocks, up rows, q, p_up)`` per bucket: each sector's
    ``(energies, coupling, up count)``; the padded block (N, N) of each
    initial state, diagonal in the product basis, shape ``lead + (1,
    sectors, 1, rows)`` with ``lead`` the leading shape of ``populations``;
    and the padded up-state weights, ``(sectors, 1, up rows)``.
    """
    groups = []  # the sectors of each bucket and its (up rows, down rows, columns)
    for sector in sectors:
        d, up = len(sector[0]), sector[2]
        shape = (up, d - up, d)
        if groups:
            group, padded = groups[-1]
            grown = tuple(map(max, padded, shape))
            if (len(group) + 1) * (grown[0] + grown[1]) * grown[2] <= _SECTOR_BUDGET:
                groups[-1] = group + [sector], grown
                continue
        groups.append(([sector], shape))
    buckets = []
    for group, (n_up, n_down, _) in groups:
        p = np.zeros((len(group), n_up + n_down))
        for s, (_, _, up, weights) in enumerate(group):
            p[s, :up] = weights[:up]
            p[s, n_up:n_up + len(weights) - up] = weights[up:]
        q = p * np.repeat(populations, (n_up, n_down), axis=-1)[..., None, :]
        buckets.append(([sector[:3] for sector in group], n_up,
                        q[..., None, :, None, :], p[:, None, :n_up]))
    return buckets


def _diagonalized(blocks: list, scales: np.ndarray) -> list:
    """One ``eigh`` call per sector of a bucket, on its blocks ``diag(E) + f V``
    stacked over the factors ``scales``: each sector's ``(w, v)``."""
    systems = []
    for energies, coupling, _ in blocks:
        h = scales * coupling
        h.reshape(len(scales), -1)[:, ::len(energies) + 1] += energies
        systems.append(np.linalg.eigh(h))
    return systems


def _padded(systems: list, blocks: list, n_up: int,
            n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A bucket's eigenvalues and eigenvectors, zero-padded to common shapes.

    Returns ``w``, shape ``(factors, sectors, columns)``, and ``v``, shape
    ``(factors, sectors, n_rows, columns)``, each sector's up rows first and
    its down rows from row ``n_up``.  A bucket of one sector has its own
    shapes, so it takes views of its one system.
    """
    if len(systems) == 1:
        (w, v), = systems
        return w[:, None], v[:, None]
    count, columns = len(systems[0][0]), max(len(energies) for energies, _, _ in blocks)
    w = np.zeros((count, len(blocks), columns))
    v = np.zeros((count, len(blocks), n_rows, columns))
    for s, ((energies, _, up), (ws, vs)) in enumerate(zip(blocks, systems)):
        d = len(energies)
        w[:, s, :d] = ws
        v[:, s, :up, :d] = vs[:, :up]
        v[:, s, n_up:n_up + d - up, :d] = vs[:, up:]
    return w, v


def _eigensystems(jobs: list, ahead: int):
    """``_diagonalized(blocks, scales)`` of each job in ``jobs``, in order.

    With ``ahead`` = 0 each job runs on the calling thread when it is asked
    for.  Otherwise the first request starts a worker thread for this pass
    alone, which runs the jobs up to ``ahead`` beyond the one in use, so
    that at most ``ahead`` results wait besides it.  An exception of a job
    is raised when its result is asked for.  Closing the generator, as the
    end of the pass or an exception does, stops the thread before any job
    it has not started and joins it, so that no job outlives the pass.
    """
    if not ahead:
        for job in jobs:
            yield _diagonalized(*job)
        return
    results = collections.deque()
    free = threading.Semaphore(ahead + 1)  # the result in use and those ahead of it
    ready, stop = threading.Semaphore(0), threading.Event()

    def serve():
        for job in jobs:
            free.acquire()
            if stop.is_set():
                return
            try:
                results.append((_diagonalized(*job), None))
            except BaseException as exc:  # raised on the calling thread below
                results.append((None, exc))
            ready.release()

    thread = threading.Thread(target=serve, name="spinboson-eigh", daemon=True)
    thread.start()
    try:
        for _ in jobs:
            ready.acquire()
            value, error = results.popleft()
            if error is not None:
                raise error
            yield value
            free.release()
    finally:
        stop.set()
        free.release(len(jobs))
        thread.join()


def _lookahead(n_buckets: int) -> int:
    """How many buckets of a pass of ``n_buckets`` the worker diagonalizes
    ahead: ``_LOOKAHEAD`` when the pass has more than one bucket, numpy
    links OpenBLAS, and the process may run on more CPUs than an OpenBLAS
    call runs threads, else none.

    The OpenBLAS threads are read as OpenBLAS reads them at its start: the
    first positive count among OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, else one per CPU.  A count changed at runtime (through
    ``threadpoolctl``, say) is not seen.  Only a CPU that BLAS leaves idle
    lets the two threads overlap: on the ``fock_4mode`` passes the worker
    was 10 to 20 % faster with one BLAS thread on two CPUs, and 5 to 15 %
    slower on one CPU, or with two BLAS threads on two.  So in a process
    that leaves the thread count at its default no pass starts a thread.
    """
    if n_buckets < 2 or "openblas" not in _BLAS:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    counts = (int(re.match(r"\s*\+?(\d*)", os.environ.get(name, "")).group(1) or 0)
              for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    threads = next((count for count in counts if count > 0), cpus)
    return _LOOKAHEAD if cpus > threads else 0


def _population_pairings(v, n_up, q, x, trig) -> list[np.ndarray]:
    """The rho00 and rho11 pairings of a bucket, each summed over its sectors.

    The populations are tr(P_s U A U^dag), with P_s the projector on level
    s and A the initial block, both in the eigenbasis.  The levels run one
    after the other, so that only one level's products are held at a time.
    """
    vt = v.swapaxes(-1, -2)
    a = (vt * q) @ v
    return [_pairings(x @ (a * (vt[..., rows] @ v[..., rows, :])), trig)
            for rows in (slice(None, n_up), slice(n_up, None))]


def _coherences(up_t, p_up, prev_down, x, prev_x, trig, prev_trig):
    """The rho01 and rho10 pairings of sectors with the sectors before them."""
    b = (up_t @ prev_down) * ((up_t * p_up) @ prev_down)
    return _pairings(x @ b, prev_trig), _pairings(prev_x @ b.swapaxes(-1, -2), trig)


def _pairings(left: np.ndarray, trig: np.ndarray) -> np.ndarray:
    """sum_sj left[..., s, u, t, j] trig[..., s, u', t, j] for u, u' in (cos, sin).

    ``left`` holds, for each sector s of a bucket, the rows of cos @ c and
    then those of sin @ c, shape ``(..., sectors, 2 * times, j)``; ``trig``
    the cosines and sines of the sectors on the right of c, ``(...,
    sectors, 2, times, j)``, its leading axes broadcast against those of
    ``left``.  The sectors are summed in order.  Returns shape ``(..., 2,
    2, times)``.
    """
    halves = left.reshape(left.shape[:-2] + trig.shape[-3:])
    return np.einsum("...sutj,...svtj->...uvt", halves, trig)


def dyson_terms(bath: TruncatedBath, t: float, order: int = 2) -> list[np.ndarray]:
    """Series terms of the co-rotating evolution operator through ``order``.

    Term zero is the identity and term k is the k-fold time-ordered integral
    of (-i) times the co-rotating coupling.  All terms come from one matrix
    exponential (Van Loan, IEEE TAC 23, 395 (1978)): with H = H0 + V, the
    block matrix holding -i H0 on every diagonal block and -i V on the block
    superdiagonal exponentiates, at time t, to a first block row whose block
    k is exp(-i H0 t) times term k; ``t`` is finite and ``order`` 0, 1 or 2.
    Needs scipy, which nothing else in the package imports; install it with
    the ``dyson`` extra.
    """
    try:
        from scipy.linalg import expm  # here, to keep scipy off the import path
    except ImportError as exc:
        raise ImportError("dyson_terms needs scipy: pip install 'spinboson[dyson]'") from exc

    t = float(require_time_grid([t])[0])
    if require_count(order, "order") > 2:
        raise ValueError("only orders 0..2 are implemented")
    d, n = bath.full_dim, order + 1
    h = full_hamiltonian(bath)
    free = np.diag(np.diag(h))
    blocks = np.zeros((n, d, n, d), dtype=complex)
    for k in range(n):
        blocks[k, :, k] = free
        if k:
            blocks[k - 1, :, k] = h - free
    row = expm(-1j * t * blocks.reshape(n * d, n * d))[:d].reshape(d, n, d)
    return [np.eye(d, dtype=complex)] + [_co_rotate(h, t, row[:, k]) for k in range(1, n)]


def _reduced_map(bath: TruncatedBath, t: float) -> np.ndarray:
    """Exact reduced map Phi(t) as a 4 x 4 matrix on row-major 2 x 2 states.

    Built from the sector pass: the bath state is diagonal and the coupling
    conserves the excitation number, so populations map to populations and
    each coherence only to itself.  The population columns are those from
    the initial populations (1, 0) and (0, 1), stacked in one pass; the
    coherence entries are the per-unit rho01 and rho10 sums, with the free
    rotation exp(i (e_i - e_j) t) applied.
    """
    times = require_time_grid([t])
    z = _sector_sums(bath, np.eye(2), times, np.ones(1))[0, :, 0]
    rotation = np.exp(1j * bath.model.omega0 * times[0])
    phi = np.zeros((4, 4), dtype=complex)
    phi[[0, 3], 0] = z[0:2]
    phi[[0, 3], 3] = z[2:4]
    phi[1, 1] = z[4] * rotation
    phi[2, 2] = z[5] * rotation.conjugate()
    return phi


def _system_state(rho) -> np.ndarray:
    """``rho`` as a complex 4-vector, row-major; ``ValueError`` unless 2 x 2."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"rho must be a 2 x 2 system operator, got shape {rho.shape}")
    return rho.reshape(4)


def reduced_map_deviation(bath: TruncatedBath, rho: np.ndarray, t: float) -> np.ndarray:
    """Deviation of the exact reduced map from the identity at time ``t``.

    Returns (Phi(t) - I) applied to the 2 x 2 operator ``rho``.  Vanishes at
    t = 0 and as the couplings go to zero; for thermal baths its leading
    order is quadratic in the coupling.
    """
    vec = _system_state(rho)
    return ((_reduced_map(bath, t) - np.eye(4)) @ vec).reshape(2, 2)


def map_inversion_residual(bath: TruncatedBath, rho0: np.ndarray, t: float,
                           order: int) -> float:
    """Residual of the alternating-sum inversion identity at depth ``order``.

    The alternating sum of deviation-map compositions applied to the evolved
    state reconstructs the initial state exactly, up to one extra
    composition applied to the initial state with alternating sign.  The
    identity is exact, so the returned Frobenius residual measures pure
    floating-point error.
    """
    order = require_count(order, "order")
    rho0 = _system_state(rho0)
    eps = _reduced_map(bath, t) - np.eye(4)
    rho_t = rho0 + eps @ rho0

    total = rho_t.copy()
    current = rho_t
    sign = 1.0
    for _ in range(order):
        current = eps @ current
        sign = -sign
        total += sign * current

    tail = rho0
    for _ in range(order + 1):
        tail = eps @ tail
    tail_sign = -1.0 if (order + 1) % 2 else 1.0
    return float(np.linalg.norm(total - rho0 + tail_sign * tail))
