"""Seeded run configurations for the three benchmark workloads.

Each workload is one config file plus the CLI verbs run on it.  Seed 0
writes the canonical config; any other seed jitters mode frequencies and
couplings by a small relative amount.  Mode count, time grid, Fock cutoff
(so the Hilbert dimension) and fixed substep counts never change with the
seed, so the work per run stays the same to within the jitter of the
automatic substep count, which the run records.

The program only ever sees the generated config files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Relative half-widths of the uniform jitter applied for seeds other than 0.
# They are small on purpose: the thermal workload sizes its RK4 step from the
# generator norm, which scales with the squared couplings, and the spread of
# a metric over seeds counts against its bound.
FREQUENCY_JITTER = 0.01
COUPLING_JITTER = 0.005

# Expected CLI exit code per verb.  compare exits 3 on every physical
# spin-boson config: its [6, 10] ratio window never contains the measured
# fourth-order ratios (about 16).
EXPECTED_EXIT = {"rates": 0, "evolve": 0, "exact": 0, "compare": 3, "limits": 0}

ALL_VERBS = ("rates", "evolve", "exact", "compare", "limits")


@dataclass(frozen=True)
class Workload:
    name: str
    verbs: tuple[str, ...]
    config_text: str
    rho00: float
    rho01: complex
    jitter: dict


def _jitter(rng: random.Random, value: float, width: float) -> float:
    return value * (1.0 + rng.uniform(-width, width))


def _fmt(x: float) -> str:
    return repr(float(x))


def _explicit_modes(name, verbs, rng, *, beta, modes, t_max, samples, n_max,
                    rk4_substeps=None, rho00=0.7, rho01=0.25 + 0.1j) -> Workload:
    factors = [(1.0, 1.0) if rng is None else
               (_jitter(rng, 1.0, FREQUENCY_JITTER), _jitter(rng, 1.0, COUPLING_JITTER))
               for _ in modes]
    jittered = [(w * fw, g * fg) for (w, g), (fw, fg) in zip(modes, factors)]
    lines = [
        "omega0 = 1.0",
        f"beta = {beta}",
        "modes = " + ", ".join(f"{_fmt(w)}:{_fmt(g)}" for w, g in jittered),
        f"t_max = {_fmt(t_max)}",
        f"samples = {samples}",
    ]
    if rk4_substeps is not None:
        lines.append(f"rk4_substeps = {rk4_substeps}")
    lines += [
        f"rho00 = {_fmt(rho00)}",
        f"rho01 = {rho01.real!r}+{rho01.imag!r}j",
        "oracle_enabled = true",
        f"n_max = {n_max}",
    ]
    return Workload(name, verbs, "\n".join(lines) + "\n", rho00, rho01,
                    {"modes": [[w, g] for w, g in jittered]})


def thermal_2mode(rng, tiny=False) -> Workload:
    # The README model at beta = 1 with automatic substeps (about 31 per
    # interval of 0.1): thousands of 2x2 generator calls per verb on the
    # thermal branch; the dimension-98 oracle is a small share.
    return _explicit_modes(
        "thermal_2mode", ALL_VERBS, rng, beta="1.0",
        modes=[(0.8, 0.1), (1.2, 0.07)],
        t_max=0.5 if tiny else 1.0, samples=6 if tiny else 11,
        n_max=2 if tiny else 6)


def fock_4mode(rng, tiny=False) -> Workload:
    # Four near-resonant modes at n_max = 3: dimension 512, where the exact
    # solver's per-sample reconstruction dominates.  The coupling is weak
    # enough that the master equation stays close to the reference
    # (final-time distance about 0.1), and the fixed 4 substeps keep the
    # master-equation share small.
    return _explicit_modes(
        "fock_4mode", ALL_VERBS, rng, beta="2.0",
        modes=[(0.9, 0.03), (0.95, 0.03), (1.05, 0.03), (1.1, 0.03)],
        t_max=2.5 if tiny else 5.0, samples=6 if tiny else 11, rk4_substeps=4,
        n_max=1 if tiny else 3)


def ohmic_400(rng, tiny=False) -> Workload:
    # The 400-mode ohmic discretization at zero temperature: every generator
    # call evaluates 400-mode rate kernels, half the commutator terms vanish,
    # and the closed-form population solution runs at scale.  The oracle is
    # idle: 2 * 5**400 states exceed any cap, so exact and compare are not run.
    # t_max = 50 is needed for the zero-temperature relaxation check; the
    # fixed 128 substeps per interval of 5 keep that check within its 1e-6
    # tolerance.
    eta, omega_c, omega_min, omega_max = 0.01, 5.0, 0.01, 10.0
    if rng is not None:
        eta = _jitter(rng, eta, COUPLING_JITTER)
        omega_c = _jitter(rng, omega_c, FREQUENCY_JITTER)
        omega_min = _jitter(rng, omega_min, FREQUENCY_JITTER)
        omega_max = _jitter(rng, omega_max, FREQUENCY_JITTER)
    # tiny keeps the grid and substep length (t_max cannot shrink) and thins
    # the modes
    samples, substeps, mode_count = 11, 128, 100 if tiny else 400
    rho00, rho01 = 0.5, 0.5 + 0.0j
    text = "\n".join([
        "omega0 = 1.0",
        "beta = vacuum",
        "density = ohmic",
        f"eta = {_fmt(eta)}",
        f"omega_c = {_fmt(omega_c)}",
        f"omega_min = {_fmt(omega_min)}",
        f"omega_max = {_fmt(omega_max)}",
        f"mode_count = {mode_count}",
        "t_max = 50.0",
        f"samples = {samples}",
        f"rk4_substeps = {substeps}",
        f"rho00 = {_fmt(rho00)}",
        f"rho01 = {_fmt(rho01.real)}",
    ]) + "\n"
    return Workload("ohmic_400", ("rates", "evolve", "limits"), text, rho00, rho01,
                    {"eta": eta, "omega_c": omega_c,
                     "omega_min": omega_min, "omega_max": omega_max})


WORKLOADS = {w.__name__: w for w in (thermal_2mode, fock_4mode, ohmic_400)}


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks it for the self-test."""
    rng = None if seed == 0 else random.Random(seed)
    return WORKLOADS[name](rng, tiny=tiny)
