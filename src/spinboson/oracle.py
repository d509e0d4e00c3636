"""Brute-force reference dynamics on a truncated Fock space.

Each bosonic mode is capped at ``n_max`` quanta, which makes the full
system+bath space finite.  The coupling exchanges single quanta, so the
total Hamiltonian splits into excitation-number sectors, and one
eigendecomposition per sector gives the reduced dynamics exactly (within
the truncation) at every requested time.  One pass over the sectors serves
several coupling scales at once; :func:`_sector_sums` describes its chunks
of scales, its buckets of sectors and the thread that may run its ``eigh``
calls ahead without moving a bit of the result.
The series terms of the evolution operator come from one exponential of a
block matrix built from the free energies and the coupling.  The exact
reduced map comes from the same sector pass and the same co-rotation, as a
4 x 4 matrix on row-major 2 x 2 states; the deviation of that map from the
identity and the alternating-sum inversion identity work with it alone.  All
of them read one table of product-basis matrix elements.  Each function takes
the one :class:`TruncatedBath`, which holds the model it truncates.

All reduced states returned here live in the frame co-rotating with the
uncoupled Hamiltonian, so they compare directly against the master-equation
trajectories.
"""

from __future__ import annotations

import math
import os
import re
import threading
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .linalg import (require_count, require_density_matrix, require_factors,
                     require_time_grid)
from .master_eq import Trajectory
from .spin_boson import SpinBosonModel

__all__ = [
    "BathDimensionError",
    "TruncationError",
    "TruncatedBath",
    "phase_rate",
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

# Buckets that a pass's threads diagonalize ahead of the one in use (_eigensystems).
_LOOKAHEAD = 2

# check_truncation's one bound on the shift of a sampled element at twice n_max.
_TRUNCATION_BOUND = 1e-6

# The largest full system+bath dimension a TruncatedBath may have.
_DIM_CAP = 8192


class BathDimensionError(ValueError):
    """The full dimension 2 (n_max + 1)^n_modes exceeds the cap of 8192."""

    def __init__(self, n_max: int, n_modes: int, needed_by: str = ""):
        self.dim = 2 * (n_max + 1) ** n_modes
        self.cap = _DIM_CAP
        super().__init__(
            f"{needed_by}full Hilbert dimension 2*({n_max}+1)^{n_modes} = {_size(self.dim)} "
            f"exceeds the cap of {self.cap}; lower n_max or the mode count")


def _size(n: int) -> str:
    """The positive integer ``n`` in full up to 15 digits, else as ``about
    2.00e400``: no float holds every dimension a bath can ask for."""
    if n < 10 ** 15:
        return str(n)
    shift = int(math.log10(n)) - 2  # math.log10 takes any int, and is within one
    digits, exponent = f"{n / 10 ** shift:.2e}".split("e")
    return f"about {digits}e{shift + int(exponent)}"


class TruncationError(RuntimeError):
    """Doubling the Fock cutoff moved a reported element beyond the fixed bound."""

    def __init__(self, shift: float):
        super().__init__(
            f"truncation not converged: doubling n_max shifts elements by "
            f"{shift:.3e} > {_TRUNCATION_BOUND:.1e}")
        self.shift = shift


@dataclass(frozen=True)
class TruncatedBath:
    """A model and the Fock cutoff ``n_max`` of its bath, with the dimension
    bookkeeping: the one argument every function here reads the model from.

    The full dimension 2 (n_max + 1)^modes may not exceed 8192.  Only the
    vacuum is exact at every cutoff from ``n_max = 1`` on: at 0 no mode
    holds a quantum, so the coupling vanishes.  Against ``n_max = 30``, one
    thermal mode (omega = 1, g = 0.1, beta = 1, 21 samples on [0, 5]) errs
    by up to 8.7e-3 at ``n_max = 4``, 1.7e-4 at 8 and 3.3e-6 at 12; the
    modes 0.8:0.1 and 1.2:0.07 at beta = 1.25 by 7.4e-3 at 4.  Check with
    ``exact_reduced_dynamics(..., check_truncation=True)``.
    """

    model: SpinBosonModel
    n_max: int

    def __post_init__(self):
        require_count(self.n_max, "n_max")
        if self.full_dim > _DIM_CAP:
            raise BathDimensionError(self.n_max, self.n_modes)

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


def phase_rate(model: SpinBosonModel, n_max: int, factor: float = 1.0) -> float:
    """The rate of the phase rule (``linalg.MAX_PHASE``) for the exact
    reference of ``model`` at the Fock cutoff ``n_max``, its couplings
    scaled by ``factor``: a bound of every energy of the truncated
    Hamiltonian, which the sector pass, the propagator and the series terms
    multiply by times.  The free energies reach ``omega0 / 2 + n_max sum_k
    omega_k``, and mode k's coupling, ``2 g_k sqrt(n_k + 1)`` between pairs of
    states, has norm ``2 |g_k| sqrt(n_max)``."""
    return (0.5 * model.omega0 + n_max * float(model.frequencies.sum())
            + abs(factor) * 2.0 * math.sqrt(n_max) * float(np.abs(model.couplings).sum()))


def _grid(bath: TruncatedBath, times, factors=(1.0,)) -> np.ndarray:
    """``times`` through ``linalg.require_time_grid`` at the :func:`phase_rate`
    of ``bath`` at the largest of the coupling ``factors``: the one time check
    of every function here that takes a time."""
    # a Python float, so that a phase past the largest float is inf, not an overflow warning
    scale = float(np.abs(factors).max(initial=0.0))
    return require_time_grid(times, phase_rate(bath.model, bath.n_max, scale))


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
    """The excitation-number sectors that hold bath weight, one record each.

    The coupling only exchanges single quanta, so N = n_up + sum_k n_k is
    conserved (exactly, also under the per-mode Fock cutoff).  Sector N holds
    the states (up, n) with sum n = N - 1 and (down, n) with sum n = N, in
    product-basis order, so its up states first.  Yields one ``(energies,
    coupling, up count, weights)`` record per N = 0, 1, ...: the uncoupled
    energies, the coupling restricted to the sector, its number of up
    states, and each state's bath weight (its bath state's, for either
    level).  The block of the model with every coupling scaled by ``f`` is
    ``np.diag(energies) + f * coupling``.  The weights fall with the quanta,
    so the records end before the first sector with no weight (after N = 1
    for the vacuum), and neither its block nor a later one is built.
    """
    occupations, energies, (rows, cols, values) = _matrix_elements(bath)
    weights = np.tile(_bath_weights(bath), 2)
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
        p = weights[states]
        if not p.any():
            return
        v = np.zeros((len(states), len(states)))
        inside = slice(bounds[n], bounds[n + 1])
        r, c = rows[inside], cols[inside]
        v[r, c] = values[inside]
        v[c, r] = values[inside]
        yield energies[states], v, int(np.searchsorted(states, bath.bath_dim)), p


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
    """Exact co-rotating-frame propagator exp(+i H0 t) exp(-i H t), at a ``t``
    within the phase rule (:func:`_grid`)."""
    t = float(_grid(bath, [t])[0])
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
    rho01 and rho10.  Each block is eigendecomposed once per factor, and
    each reduced element is a bilinear form in the phases of two sectors,
    at all sample times at once (:func:`_sector_sums`).  Every factor's
    result is the same, bit for bit, as that of a pass with that factor
    alone.  Sectors holding no bath weight (all but two for the vacuum) are
    never built or diagonalized.  The free system rotation is applied last,
    so the output is directly comparable to master-equation trajectories.
    With ``check_truncation`` the pass is repeated at double the Fock cutoff,
    and the first factor whose sampled elements move by more than the fixed
    1e-6 raises TruncationError; a doubled cutoff over the cap of 8192
    dimensions raises before the first pass.  ``times`` must be a finite,
    strictly increasing grid within the phase rule (:func:`_grid`) of the
    largest factor, at twice the cutoff with ``check_truncation``.  Returns
    one checked :class:`Trajectory` per factor.
    """
    rho0 = require_density_matrix(rho0)
    factors = require_factors(factors)
    fine = bath
    if check_truncation:
        # the rerun must fit the cap too: say so before the first run, not after it
        try:
            fine = replace(bath, n_max=2 * bath.n_max)
        except BathDimensionError:
            raise BathDimensionError(2 * bath.n_max, bath.n_modes,
                                     "check_truncation reruns at twice n_max: ") from None
    # the finest pass forms the largest phases
    times = _grid(fine, times, factors)
    trajectories = [Trajectory(times, states,
                               metadata={"integrator": "exact-eig", "n_max": bath.n_max})
                    for states in _rotated_states(bath, rho0[None], times, factors)[:, 0]]
    if check_truncation:
        for traj, reference in zip(trajectories,
                                   _rotated_states(fine, rho0[None], times, factors)[:, 0]):
            shift = float(np.max(np.abs(traj.states - reference)))
            traj.metadata["truncation_shift"] = shift
            if shift > _TRUNCATION_BOUND:
                raise TruncationError(shift)
    return trajectories


def _rotated_states(bath: TruncatedBath, operators: np.ndarray, times: np.ndarray,
                    factors: np.ndarray) -> np.ndarray:
    """The reduced states of :func:`exact_scaled_dynamics`, co-rotated, from
    checked arguments and a stack of initial 2 x 2 ``operators``, all from
    one sector pass: shape ``(len(factors), len(operators), len(times), 2,
    2)``."""
    z = _sector_sums(bath, operators.diagonal(axis1=1, axis2=2).real, times, factors)
    reduced = np.empty((len(factors), len(operators), len(times), 2, 2), dtype=complex)
    reduced[..., 0, 0] = z[:, 0:-2:2]
    reduced[..., 1, 1] = z[:, 1:-2:2]
    reduced[..., 0, 1] = operators[:, 0, 1, None] * z[:, None, -2]
    reduced[..., 1, 0] = operators[:, 1, 0, None] * z[:, None, -1]

    omega0 = bath.model.omega0
    e_sys = np.array([0.5 * omega0, -0.5 * omega0])
    rot = np.exp(1j * np.outer(times, e_sys))
    return rot[:, :, None] * reduced * rot.conj()[:, None, :]


def _sector_sums(bath: TruncatedBath, populations: np.ndarray, times: np.ndarray,
                 factors: np.ndarray) -> np.ndarray:
    """Sector pass behind :func:`exact_scaled_dynamics`.

    ``populations`` is a stack of initial (rho00, rho11) pairs, shape
    ``(k, 2)``.  Returns rho00 and rho11 from each pair in turn, then
    rho01 / rho0[0, 1] and rho10 / rho0[1, 0], before the free rotation:
    shape ``(len(factors), 2 k + 2, len(times))``.  Each is a sum over
    sectors of bilinear forms sum_ij phase[t, i] c[i, j] conj(phase'[t, j])
    with real c and phase = exp(-i w t) = cos - i sin, accumulated as its
    four real cos/sin pairings, in sector order.  Every sector is
    diagonalized once per factor, whatever the number of pairs; each pair
    with a nonzero population runs through :func:`_population_pairings` on
    its own, level projectors included, so one pair carries no broadcast
    axis into the products, and the rows of an all-zero pair stay zero.

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
    _SECTOR_BUDGET`` elements, times ``2 len(times)`` for the phases and
    the products with them.  So small sectors share arrays larger than any
    one of them needs, and the chunk does not bound a pass's memory by that
    of its largest sector: on ``thermal_2mode`` the three-factor pass peaks
    at about 4.7 times the peak of its sectors run one at a time, on a grid
    of 201 or 1001 times.  A sector past the budget is a bucket of its own
    and costs what it would unbucketed.  Each factor's arithmetic is the
    same in any chunk.

    The chunks' buckets form one stream of ``eigh`` jobs
    (:func:`_eigensystems`).  Where :func:`_worker_wins`, a pass of more
    than one bucket starts a worker thread that shares the stream with the
    calling thread, up to ``_LOOKAHEAD`` = 2 buckets ahead of the one in
    use, while the calling thread also forms the phases, products and
    pairings; LAPACK releases the GIL.  The pass joins the thread before
    it returns.  Any other pass starts no thread: the calling thread runs
    each job when its result is due.  The lookahead adds at most two
    buckets' eigensystems, and the blocks of the buckets being
    diagonalized, to the memory above: on ``fock_4mode`` the three-factor
    pass peaks at 0.75 to 0.77 MB against 0.66 MB without the worker
    (tracemalloc).  An exception of an ``eigh`` call reaches the caller
    when its bucket is due, after any worker is joined.
    """
    sectors = list(_sector_hamiltonians(bath))
    n_t = len(times)
    column = times[:, None]
    sums = np.zeros((2 * len(populations) + 2, len(factors), 2, 2, n_t))
    chunk = max(1, _SECTOR_BUDGET // max(len(s[0]) for s in sectors) ** 2)
    buckets = _buckets(sectors, populations)
    # a pair with no population adds nothing: its rows stay zero
    live = np.flatnonzero(populations.any(axis=-1))
    # every chunk's buckets, in the order of their use, form one stream of jobs
    runs = [(first, b) for first in range(0, len(factors), chunk) for b in range(len(buckets))]
    systems = _eigensystems([(buckets[b][0], factors[first:first + chunk, None, None])
                             for first, b in runs], _WORKER and len(buckets) > 1)
    with closing(systems):
        for first, b in runs:
            blocks, n_up, q, p_up = buckets[b]
            part = sums[:, first:first + chunk]
            w, v = _padded(next(systems), blocks, n_up, q.shape[-1])
            count, n_s, columns = w.shape
            trig = np.empty((count, n_s, 2, n_t, columns))
            angles = np.multiply(column, w[:, :, None, :], out=trig[:, :, 1])
            np.cos(angles, out=trig[:, :, 0])
            np.sin(angles, out=angles)
            x = trig.reshape(count, n_s, 2 * n_t, columns)
            for pair in live:
                for level, pairings in enumerate(_population_pairings(v, n_up, q[pair], x, trig)):
                    part[2 * pair + level] += pairings
            # the up states of sector N pair with the down states of sector
            # N - 1, bath state by bath state in the same order: first across
            # the boundary with the chunk's previous bucket, then inside this
            # one.  The two coherences share one matrix but are summed apart,
            # so their mismatch stays a measured hermiticity error
            up_t, down = v[..., :n_up, :].swapaxes(-1, -2), v[..., n_up:, :]
            if b:
                m = blocks[0][2]
                prev_down, prev_x, prev_trig = previous
                to, fro = _coherences(up_t[:, :1, :, :m], p_up[:1, :, :m], prev_down[:, :, :m],
                                      x[:, :1], prev_x, trig[:, :1], prev_trig)
                part[-2] += to
                part[-1] += fro
            if n_s > 1:
                m = min(n_up, down.shape[-2])
                to, fro = _coherences(up_t[:, 1:, :, :m], p_up[1:, :, :m], down[:, :-1, :m],
                                      x[:, 1:], x[:, :-1], trig[:, 1:], trig[:, :-1])
                part[-2] += to
                part[-1] += fro
            previous = down[:, -1:], x[:, -1:], trig[:, -1:]
    z = (sums[..., 0, 0, :] + sums[..., 1, 1, :]) + 1j * (sums[..., 0, 1, :] - sums[..., 1, 0, :])
    return z.swapaxes(0, 1)


def _buckets(sectors: list, populations: np.ndarray) -> list:
    """Consecutive sectors grouped into the zero-padded buckets of the sector pass.

    ``sectors`` holds the records of :func:`_sector_hamiltonians`, in
    order.  A sector joins the open bucket while the bucket's padded
    elements per factor, sectors x rows x columns, stay within
    ``_SECTOR_BUDGET``, so the buckets depend on the sector dimensions
    alone.  A bucket's rows are its largest up count and then its largest
    down count: sector N's up rows line up with sector N - 1's down rows.
    Returns one ``(blocks, up rows, q, p_up)`` per bucket: each sector's
    ``(energies, coupling, up count)``; the padded block (N, N) of each
    of the k initial pairs of ``populations``, shape ``(k, 2)``, diagonal
    in the product basis, shape ``(k, 1, sectors, 1, rows)``; and the
    padded up-state weights, ``(sectors, 1, up rows)``.
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


def _eigensystems(jobs: list, worker: bool):
    """``_diagonalized(blocks, scales)`` of each job in ``jobs``, in order.

    A request for a result runs the next job that nobody has started, one
    at a time, until that result is done.  On the calling thread alone
    each job thus runs when its result is due, and only the result in use
    is held.  With ``worker`` the first request starts a worker thread for
    this pass alone, which takes the unstarted jobs too, up to
    ``_LOOKAHEAD`` beyond the one due, so that at most ``_LOOKAHEAD``
    results wait besides the one in use: the worker runs ahead, and the
    calling thread, when the result it asks for is not ready, runs the next
    unstarted job itself and waits only when every job of the window has
    started.  An exception of a job, on either thread, is raised when its
    result is due.  Closing the generator, as the end of the pass or an
    exception does, stops both threads before any job not yet started and
    joins the worker, so that no job outlives the pass.
    """
    done, lock = {}, threading.Condition()
    started = due = 0  # jobs started (or cancelled), and the job whose result is due

    def work(k=None):
        # run the window's unstarted jobs, one at a time, until result k is
        # done, and return it; the worker (k None) runs until none is left
        nonlocal started
        while True:
            with lock:
                while k not in done and started >= min(len(jobs), due + _LOOKAHEAD + 1):
                    if k is None and started == len(jobs):
                        return None
                    lock.wait()
                if k in done:
                    return done.pop(k)
                j, started = started, started + 1
            try:
                out = _diagonalized(*jobs[j]), None
            except BaseException as exc:  # raised on the calling thread when job j is due
                out = None, exc
            with lock:
                done[j] = out
                lock.notify_all()

    if worker:
        thread = threading.Thread(target=work, name="spinboson-eigh", daemon=True)
        thread.start()
    try:
        for k in range(len(jobs)):
            with lock:
                due = k
                lock.notify_all()  # the window moved on
            value, error = work(k)
            if error is not None:
                raise error
            yield value
    finally:
        with lock:
            started = len(jobs)  # no job starts after this
            lock.notify_all()
        if worker:
            thread.join()


def _worker_wins(environ: Mapping[str, str], cpus: int, blas: str) -> bool:
    """Whether a sector pass of more than one bucket runs its ``eigh``
    calls ahead on a worker thread: when ``blas``, the BLAS of numpy's
    build, is OpenBLAS and the process has more ``cpus`` than OpenBLAS
    threads.  OpenBLAS runs the first positive count among
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS in
    ``environ``, else one per CPU; another BLAS reads other variables, or
    none.  Only a CPU that BLAS leaves idle lets the threads overlap: on
    the ``fock_4mode`` passes the worker was 10 to 20 % faster with one
    BLAS thread on two CPUs, 5 to 15 % slower on one CPU, and nearly three
    times slower at a BLAS thread per CPU.  The rule runs once, at this
    module's import, when OpenBLAS has fixed its threads.  It cannot see a
    variable changed between numpy's import and this one, a later change
    of the variables or of the CPU affinity, or a thread count set at
    runtime (``threadpoolctl``, say).
    """
    counts = (int(re.match(r"\s*\+?(\d*)", environ.get(name, "")).group(1) or 0)
              for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    return "openblas" in blas.lower() and cpus > next((n for n in counts if n > 0), cpus)


# numpy's builds record their BLAS from numpy 1.26 on; a platform without CPU
# affinity counts its CPUs
_WORKER = _worker_wins(
    os.environ,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    str(getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
        .get("blas", {}).get("name", "")))


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


def dyson_terms(bath: TruncatedBath, t: float) -> list[np.ndarray]:
    """Series terms zero, one and two of the co-rotating evolution operator.

    Term zero is the identity and term k is the k-fold time-ordered integral
    of (-i) times the co-rotating coupling.  All terms come from one matrix
    exponential (Van Loan, IEEE TAC 23, 395 (1978)): with H = H0 + V, the
    block matrix holding -i H0 on every diagonal block and -i V on the block
    superdiagonal exponentiates, at time t, to a first block row whose block
    k is exp(-i H0 t) times term k; ``t`` is within the phase rule
    (:func:`_grid`).
    Needs scipy, which nothing else in the package imports; install it with
    the ``dyson`` extra.
    """
    try:
        from scipy.linalg import expm  # here, to keep scipy off the import path
    except ImportError as exc:
        raise ImportError("dyson_terms needs scipy: pip install 'spinboson[dyson]'") from exc

    t = float(_grid(bath, [t])[0])
    d = bath.full_dim
    h = full_hamiltonian(bath)
    free = np.diag(np.diag(h))
    blocks = np.zeros((3, d, 3, d), dtype=complex)
    for k in range(3):
        blocks[k, :, k] = free
    blocks[0, :, 1] = blocks[1, :, 2] = h - free
    row = expm(-1j * t * blocks.reshape(3 * d, 3 * d))[:d].reshape(d, 3, d)
    return [np.eye(d, dtype=complex), _co_rotate(h, t, row[:, 1]), _co_rotate(h, t, row[:, 2])]


def _reduced_map(bath: TruncatedBath, t: float) -> np.ndarray:
    """Exact reduced map Phi(t) as a 4 x 4 matrix on row-major 2 x 2 states.

    Column 2 i + j is the co-rotated reduced state at ``t`` from the initial
    operator |i><j|.  The four operators share one sector pass
    (:func:`_rotated_states`), as the states of :func:`exact_scaled_dynamics`
    do.  The bath state is diagonal and the coupling conserves the
    excitation number, so populations map to populations and each coherence
    only to itself: the columns of |0><1| and |1><0| have zero populations.
    """
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    states = _rotated_states(bath, basis, _grid(bath, [t]), np.ones(1))
    return states[0, :, 0].reshape(4, 4).T


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
    # the signed powers: term (-eps)^n rho_t for n <= order, tail (-eps)^(order+1) rho0
    total, term, tail = rho_t.copy(), rho_t, -(eps @ rho0)
    for _ in range(order):
        term, tail = -(eps @ term), -(eps @ tail)
        total += term
    return float(np.linalg.norm(total - rho0 + tail))
