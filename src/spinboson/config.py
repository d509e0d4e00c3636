"""Run configuration for the command-line tools.

Configs are flat ``key = value`` UTF-8 text files; ``#`` starts a
comment, blank lines are ignored.  Unknown or duplicate keys are hard
errors so that a typo in a physics parameter cannot silently fall back to
a default; so is omega_c with a flat density, which ignores it.  Every
count is a positive integer, by linalg.require_count.

Keys
----
model:       omega0, beta ("vacuum" or a positive float, not so small that
             the thermal occupation at omega0 or at a mode overflows), and
             exactly one of
             * modes            explicit list, "omega:g, omega:g, ..."
             * density (ohmic|flat), eta, omega_c (ohmic only),
               omega_min, omega_max, mode_count
simulation:  t_max (within the phase rule of linalg.MAX_PHASE at the
             master equation's rate, RateFunctions.rate_of(model.detunings),
             and with n_max also at the exact reference's, oracle.phase_rate,
             taken at twice n_max with check_truncation; with a density,
             below the recurrence time 2 pi
             mode_count / (omega_max - omega_min) of its evenly spaced
             modes, past which every bath correlation repeats and the run
             stands for no continuum: SpectralDiscretization.recurrence_time),
             samples (the grid linspace(0, t_max, samples) must pass
             linalg.require_time_grid, the one time rule, so a t_max so
             small that two times round together is refused), rk4_substeps
             (optional; by default sized from a step-doubling error
             estimate, see master_eq.propagate)
state:       rho00, rho01 (complex literal, e.g. "0.3+0.1j"); the state
             [[rho00, rho01], [conj(rho01), 1 - rho00]] must pass
             linalg.require_density_matrix at tol = 1e-15, the library's
             one initial-state rule, whose error names both keys
oracle:      oracle_enabled (true|false, default false), n_max (no default;
             exact and compare need it), check_truncation (true|false,
             default false: rerun the exact solver at twice n_max and abort
             if any element moves by more than the fixed bound 1e-6)
output:      output_path (optional if --out is given; the CLI refuses it,
             like --out, where the output would overwrite the config)
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

import numpy as np

from .linalg import (require_count, require_density_matrix, require_finite_times,
                     require_time_grid)
from .oracle import phase_rate
from .spin_boson import (RateFunctions, SpectralDiscretization, SpinBosonModel,
                         flat_density, ohmic_density)

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "load_config"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_DISCRETIZATION_KEYS = ("density", "eta", "omega_min", "omega_max", "mode_count")


def _parse_float(value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return out


def _parse_positive_float(value: str) -> float:
    out = _parse_float(value)
    if out <= 0:
        raise ConfigError(f"expected a positive number, got {value!r}")
    return out


def _parse_count(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}") from None
    return require_count(count, "the value", 1)


def _parse_beta(value: str) -> float:
    if value.lower() == "vacuum":
        return math.inf
    return _parse_positive_float(value)


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"expected true or false, got {value!r}")


def _parse_complex(value: str) -> complex:
    try:
        return complex(value.replace(" ", ""))
    except ValueError:
        raise ConfigError(f"expected a complex literal like 0.3+0.1j, got {value!r}") from None


def _parse_density(value: str) -> str:
    if value not in ("ohmic", "flat"):
        raise ConfigError(f"expected ohmic or flat, got {value!r}")
    return value


def _parse_modes(value: str) -> tuple[tuple[float, float], ...]:
    modes = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"mode entries are 'omega:g', got {item!r}")
        omega = _parse_positive_float(parts[0].strip())
        g = _parse_float(parts[1].strip())
        modes.append((omega, g))
    if not modes:
        raise ConfigError("mode list is empty")
    return tuple(modes)


def _key(parser, default=MISSING):
    """A config key's field: its parser, and its default if it is optional."""
    return field(metadata={"parser": parser, "default": default})


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run: each field is a config key, with its parser
    and, for an optional key, its default."""

    omega0: float = _key(_parse_positive_float)
    beta: float = _key(_parse_beta)
    modes: tuple[tuple[float, float], ...] | None = _key(_parse_modes, None)
    density: str | None = _key(_parse_density, None)
    eta: float | None = _key(_parse_positive_float, None)
    omega_c: float | None = _key(_parse_positive_float, None)
    omega_min: float | None = _key(_parse_float, None)
    omega_max: float | None = _key(_parse_positive_float, None)
    mode_count: int | None = _key(_parse_count, None)
    t_max: float = _key(_parse_positive_float)
    samples: int = _key(_parse_count)
    rk4_substeps: int | None = _key(_parse_count, None)
    rho00: float = _key(_parse_float)
    rho01: complex = _key(_parse_complex)
    oracle_enabled: bool = _key(_parse_bool, False)
    n_max: int | None = _key(_parse_count, None)
    check_truncation: bool = _key(_parse_bool, False)
    output_path: str | None = _key(str, None)

    def discretization(self) -> SpectralDiscretization | None:
        if self.density is None:
            return None
        if self.density == "ohmic":
            j = ohmic_density(self.eta, self.omega_c)
        else:
            j = flat_density(self.eta)
        return SpectralDiscretization(j, self.omega_min, self.omega_max,
                                      self.mode_count)

    def model(self) -> SpinBosonModel:
        """The model, built once per config (by the validation in
        :func:`parse_config_text`) and shared by every caller."""
        return self._model

    @cached_property
    def _model(self) -> SpinBosonModel:
        if self.modes is not None:
            return SpinBosonModel(self.omega0, self.modes, self.beta)
        return self.discretization().build_model(self.omega0, self.beta)

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.samples)

    def initial_state(self) -> np.ndarray:
        return np.array([[self.rho00, self.rho01],
                         [self.rho01.conjugate(), 1.0 - self.rho00]], dtype=complex)

    def model_tag(self) -> str:
        beta = "vacuum" if self.beta == math.inf else f"{self.beta:g}"
        n = len(self.modes) if self.modes is not None else self.mode_count
        return f"spin-boson(omega0={self.omega0:g},beta={beta},modes={n})"


# each key's parser and default, in the order of the fields, and the keys
# without a default
_FIELDS = {f.name: (f.metadata["parser"], f.metadata["default"]) for f in fields(RunConfig)}
_REQUIRED = tuple(key for key, (_, default) in _FIELDS.items() if default is MISSING)


def parse_config_text(text: str) -> RunConfig:
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {line_of[key]})")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
        line_of[key] = lineno

    def convert(key, parser, default):
        if key not in raw:
            return default
        try:
            return parser(raw[key])
        except ValueError as exc:
            raise ConfigError(f"line {line_of[key]}: field {key!r}: {exc}") from None

    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(sorted(missing))}")

    has_modes = "modes" in raw
    disc_present = [k for k in _DISCRETIZATION_KEYS + ("omega_c",) if k in raw]
    if has_modes and disc_present:
        raise ConfigError(
            f"give either an explicit mode list or a discretization, not both "
            f"(offending keys: {', '.join(sorted(disc_present))})")
    if not has_modes:
        missing_disc = [k for k in _DISCRETIZATION_KEYS if k not in raw]
        if missing_disc:
            raise ConfigError(
                f"no mode list given and the discretization block is incomplete: "
                f"missing {', '.join(missing_disc)}")
    if raw.get("density") == "ohmic" and "omega_c" not in raw:
        raise ConfigError("ohmic density requires omega_c")

    cfg = RunConfig(*[convert(key, parser, default)
                      for key, (parser, default) in _FIELDS.items()])
    if cfg.density == "flat" and cfg.omega_c is not None:
        raise ConfigError(f"line {line_of['omega_c']}: field 'omega_c': "
                          f"only density = ohmic takes a cutoff")

    try:
        require_time_grid(cfg.time_grid())
    except ValueError as exc:
        raise ConfigError(f"lines {line_of['t_max']} and {line_of['samples']}: "
                          f"fields 't_max' and 'samples': {exc}") from None
    try:
        require_density_matrix(cfg.initial_state(), tol=1e-15)
    except ValueError as exc:
        raise ConfigError(f"rho00, rho01: {exc}") from None
    # the model's own checks name their fields
    try:
        model = cfg.model()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.density is not None:
        recurrence = cfg.discretization().recurrence_time
        if cfg.t_max >= recurrence:
            raise ConfigError(
                f"lines {line_of['mode_count']} and {line_of['t_max']}: fields 'mode_count' "
                f"and 't_max': t_max = {cfg.t_max:g} reaches the recurrence time "
                f"2 pi / delta_omega = {recurrence:.6g} of {cfg.mode_count} modes, past "
                f"which the discretized bath revives; raise mode_count or lower t_max")
    rate = RateFunctions.rate_of(model.detunings)
    if cfg.n_max is not None:
        # the exact reference's last pass runs at twice n_max under check_truncation
        rate = max(rate, phase_rate(model, 2 * cfg.n_max if cfg.check_truncation else cfg.n_max))
    try:
        require_finite_times(cfg.t_max, rate)
    except ValueError as exc:
        raise ConfigError(f"line {line_of['t_max']}: field 't_max': {exc}") from None
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)!r}: not UTF-8 at byte "
                          f"offset {exc.start} ({exc.reason})") from None
    return parse_config_text(text)
