"""Scenario configuration, its derived electromagnetic constants, and antenna layouts.

A scenario is a user on the ground plane at ``[x_u, 0, 0]`` served by pinching
antennas activated along a dielectric waveguide that runs parallel to the
x-axis at height ``d``.  The signal enters the waveguide at the feed point
``x_0`` and accumulates in-waveguide phase at the guided wavenumber.

All lengths are in metres, frequencies in Hz, loss in dB/m.

Public: SPEED_OF_LIGHT, SystemConfig, AntennaLayout, symmetric_uniform_layout,
load_scenario.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Exact SI value, fixed for reproducibility.
SPEED_OF_LIGHT = 299_792_458.0  # m/s
_NORMAL_MIN = sys.float_info.min


@dataclass(frozen=True)
class SystemConfig:
    """Physical scenario for a single-waveguide pinching-antenna link.

    ``x_0_m is None`` means "auto": the feed point coincides with the leftmost
    antenna of whatever layout is being evaluated, except in the
    max-gain-versus-spacing sweep, which puts it at ``DEFAULT_FEED_X0_M``
    (-30 m).  ``alpha_wg_db_per_m`` is the
    waveguide propagation loss (0 for the lossless configuration).
    ``delta_p`` is the minimum inter-antenna spacing in carrier wavelengths.
    Every numeric field must be finite.

    Derived on construction, and neither arguments nor part of ``repr`` and
    ``==``: ``wavelength`` c/f_c (m), ``k0`` 2*pi/wavelength (rad/m) and the
    path-loss constant ``eta`` (wavelength/4pi)^2 (m^2).  A carrier whose
    wavelength squared or ``eta`` leaves the normal float range is a
    configuration error naming ``f_c_hz``; so is a height whose d^2, eta/d^2
    or 2 d^2 + wavelength^2/2 (the two-antenna coupling form's denominator at
    one wavelength) does, naming ``d_m``.
    """

    f_c_hz: float = 28e9
    d_m: float = 3.0
    n_eff: float = 1.44
    x_u_m: float = 0.0
    x_0_m: float | None = None
    alpha_wg_db_per_m: float = 0.08
    delta_p: float = 0.5
    wavelength: float = field(init=False, repr=False, compare=False)
    k0: float = field(init=False, repr=False, compare=False)
    eta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name, None)
            if not f.init or (f.name == "x_0_m" and value is None):
                continue  # derived below, or the "auto" feed
            if not math.isfinite(value):
                raise ConfigError(f"invalid-config: {f.name} must be finite, got {value}")
        if not self.f_c_hz > 0:
            raise ConfigError(f"invalid-config: f_c_hz must be > 0, got {self.f_c_hz}")
        if not self.d_m > 0:
            raise ConfigError(f"invalid-config: d_m must be > 0, got {self.d_m}")
        if not self.n_eff >= 1:
            raise ConfigError(f"invalid-config: n_eff must be >= 1, got {self.n_eff}")
        if not self.alpha_wg_db_per_m >= 0:
            raise ConfigError(
                f"invalid-config: alpha_wg_db_per_m must be >= 0, got {self.alpha_wg_db_per_m}"
            )
        if not self.delta_p > 0:
            raise ConfigError(f"invalid-config: delta_p must be > 0, got {self.delta_p}")
        lam = SPEED_OF_LIGHT / self.f_c_hz
        eta = (lam / (4.0 * math.pi)) ** 2 if lam * lam < math.inf else 0.0
        if not eta >= _NORMAL_MIN:
            raise ConfigError(f"invalid-config: f_c_hz = {self.f_c_hz:g} gives a wavelength of "
                              f"{lam:g} m, whose path-loss constant leaves the normal float range")
        d2 = self.d_m * self.d_m
        if not (d2 >= _NORMAL_MIN and _NORMAL_MIN <= eta / d2 < math.inf
                and 2.0 * d2 + lam * lam / 2.0 < math.inf):
            raise ConfigError(f"invalid-config: d_m = {self.d_m:g} at f_c_hz = {self.f_c_hz:g} "
                              f"takes d_m^2, eta / d_m^2 or 2 d_m^2 + wavelength^2 / 2 out of "
                              f"the normal float range")
        for name, value in (("wavelength", lam), ("k0", 2.0 * math.pi / lam), ("eta", eta)):
            object.__setattr__(self, name, value)


def _check_antenna_count(n: int, name: str = "antenna count") -> None:
    """Refuse a count ``n`` the model does not cover: it takes even counts >= 2."""
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"{name} must be even and >= 2, got {n}")


@dataclass(frozen=True, eq=False)
class AntennaLayout:
    """Antennas at signed ``offsets`` (m) from ``center``, the user's projection,
    so at ``positions = center + offsets``.  Layouts compare by identity.

    The offsets, kept as a read-only float64 copy, must be 1-D, finite, of even
    count and strictly increasing, each gap ``b - a`` at least ``min_spacing``
    (finite, >= 0) up to 1e-12 m plus 3 ulp of ``|a| + |b|``; ``center`` finite.
    """

    offsets: np.ndarray
    center: float
    min_spacing: float

    def __post_init__(self):
        offsets = np.array(self.offsets, dtype=float)
        offsets.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        if offsets.ndim != 1 or not np.isfinite(offsets).all() or not math.isfinite(self.center):
            raise ConfigError("layout offsets must be a finite 1-D array and center finite")
        if not 0.0 <= self.min_spacing < math.inf:
            raise ConfigError(f"layout min_spacing must be finite and >= 0, got {self.min_spacing}")
        _check_antenna_count(offsets.size)
        gaps, mag = np.diff(offsets), np.abs(offsets)
        if not np.all(gaps > 0):
            raise ConfigError("layout positions must be strictly increasing")
        short = gaps < self.min_spacing - (1e-12 + 3 * np.spacing(mag[:-1] + mag[1:]))
        if short.any():
            raise ConfigError(f"layout gap {gaps[short][0]:.3e} m below minimum spacing "
                              f"{self.min_spacing:.3e} m")

    @property
    def positions(self) -> np.ndarray:
        return self.center + self.offsets


def _uniform_spacings(n: int, spacing) -> np.ndarray:
    """``spacing`` (one value or a 1-D array) as a float array, after checking
    that the even-count model covers ``n`` antennas and every spacing is > 0."""
    _check_antenna_count(n)
    spacing = np.asarray(spacing, dtype=float)
    if not np.all(spacing > 0):
        raise ConfigError(f"spacing must be > 0, got {spacing[~(spacing > 0)].flat[0]}")
    return spacing


def _symmetric_offsets(n: int, spacing) -> np.ndarray:
    """Offsets ``+/-(k - 1/2) * spacing``, k = 1..n/2, of the equally spaced
    layout mirror-symmetric about the user, left to right: shape (n,) for one
    spacing and (S, n) for a 1-D array of S spacings."""
    half = (np.arange(1, n // 2 + 1) - 0.5) * _uniform_spacings(n, spacing)[..., None]
    return np.concatenate([-half[..., ::-1], half], axis=-1)


def symmetric_uniform_layout(cfg: SystemConfig, n: int, spacing: float) -> AntennaLayout:
    """Equally spaced layout mirror-symmetric about the user.

    Antenna k = 1..n/2 sits at ``x_u +/- (k - 1/2) * spacing``; the model only
    covers even antenna counts, so odd ``n`` is rejected.
    """
    return AntennaLayout(_symmetric_offsets(n, spacing), cfg.x_u_m, spacing)


def _resolve_feed(cfg: SystemConfig, leftmost):
    """Feed offset from the user's projection for layouts whose leftmost
    antennas sit at offsets ``leftmost`` (a float or an array) from it;
    "auto" puts the feed at each layout's own leftmost antenna.

    The feed must not sit to the right of any antenna, since in-waveguide
    distance is measured rightward from it.
    """
    if cfg.x_0_m is None:
        return leftmost
    feed = cfg.x_0_m - cfg.x_u_m
    inside = feed > np.asarray(leftmost) + 1e-12
    if inside.any():
        raise ConfigError(
            f"feed point x_0={cfg.x_0_m} m lies right of the leftmost antenna "
            f"at {cfg.x_u_m + np.asarray(leftmost)[inside].flat[0]} m"
        )
    return feed


_SCENARIO_KEYS = frozenset(f.name for f in fields(SystemConfig) if f.init)


def load_scenario(path: str | Path) -> SystemConfig:
    """Read a scenario from a flat key-value file.

    Format: one ``key = value`` pair per line; blank lines and ``#`` comments
    are ignored.  Allowed keys are exactly the :class:`SystemConfig` fields
    that are not derived; unknown or duplicate keys are an error.  ``x_0_m``
    accepts the literal value ``auto``.  Missing keys keep their defaults.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc

    values: dict[str, float | None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if key == "x_0_m" and value.lower() == "auto":
            values[key] = None
            continue
        try:
            values[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad number for {key!r}: {value!r}") from exc
    return SystemConfig(**values)
