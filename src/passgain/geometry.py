"""Scenario configuration, its derived electromagnetic constants, and antenna layouts.

A scenario is a user on the ground plane at ``[x_u, 0, 0]`` served by pinching
antennas activated along a dielectric waveguide that runs parallel to the
x-axis at height ``d``.  The signal enters the waveguide at the feed point
``x_0`` and accumulates in-waveguide phase at the guided wavenumber.  A
layout is the 1-D float64 array of its antennas' signed offsets from the
user's projection ``x_u``, left to right.

All lengths are in metres, frequencies in Hz, loss in dB/m.

Each input is checked where it enters: :class:`SystemConfig` checks the
scenario against the one range table of the scenario domain when it is
built, and each public function its own arguments, with
``_check_antenna_count``, ``_uniform_spacings`` (a count and spacings, and
the size of what is laid out for them) and ``_increasing_offsets``
(offsets), which also hold every length within ``_MAX_LENGTH_M``.  The
builders ``_half_offsets`` and ``_symmetric_offsets`` only compute, on a
count and spacings those checks accept or on the scenario's spacing
``delta_p * wavelength``, which :class:`SystemConfig` bounds.

Public: SPEED_OF_LIGHT, MAX_SWEEP_SIZE, SystemConfig,
symmetric_uniform_layout, load_scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Exact SI value, fixed for reproducibility.
SPEED_OF_LIGHT = 299_792_458.0  # m/s
# The scenario domain: the closed range of each SystemConfig field, in its units.
_DOMAIN = {"f_c_hz": (1e6, 1e15), "d_m": (1e-3, 1e4), "n_eff": (1.0, 10.0),
           "x_u_m": (-1e6, 1e6), "x_0_m": (-1e6, 1e6), "alpha_wg_db_per_m": (0.0, 1e6),
           "delta_p": (1e-3, 1e6)}
# The longest offset, spacing or refined offset the model takes, in metres.
_MAX_LENGTH_M = 1e11
# Largest array a sweep lays out: grid points, Monte Carlo trials, antenna
# pairs, refined antennas a side, coupling-matrix entries.  Larger inputs are
# rejected from their count, before anything is allocated.
MAX_SWEEP_SIZE = 10**6


def _check_domain(name: str, value) -> None:
    """Refuse a ``name`` value outside its ``_DOMAIN`` range, NaN and +-inf
    included; an ``x_0_m`` of None, the "auto" feed, passes."""
    lo, hi = _DOMAIN[name]
    if not (value is None and name == "x_0_m" or lo <= value <= hi):
        raise ConfigError(f"invalid-config: {name} must lie in [{lo:g}, {hi:g}], got {value}")


@dataclass(frozen=True)
class SystemConfig:
    """Physical scenario for a single-waveguide pinching-antenna link.

    ``x_0_m is None`` means "auto": the feed point coincides with the leftmost
    antenna of whatever layout is being evaluated, except in the
    max-gain-versus-spacing sweep, which puts it at ``DEFAULT_FEED_X0_M``
    (-30 m).  ``alpha_wg_db_per_m`` is the
    waveguide propagation loss (0 for the lossless configuration).
    ``delta_p`` is the minimum inter-antenna spacing in carrier wavelengths.

    Every numeric field must lie in its closed range of the scenario domain,
    or the scenario is a configuration error naming the field:

    =====================  =================
    ``f_c_hz``             [1e6, 1e15] Hz
    ``d_m``                [1e-3, 1e4] m
    ``n_eff``              [1, 10]
    ``x_u_m``, ``x_0_m``   [-1e6, 1e6] m
    ``alpha_wg_db_per_m``  [0, 1e6] dB/m
    ``delta_p``            [1e-3, 1e6]
    =====================  =================

    Positions stay within 1e6 m, where float64 resolves 1.2e-10 m: a feed the
    feed rule accepts then lies at most 2e-10 m right of an antenna, under
    1e-3 dB at the largest loss.  ``delta_p`` reaches 1e6 wavelengths, where
    rounding already decides the refinement walk's shifts, and its indices
    stay below 1.2e13 (:mod:`passgain.refine`).

    Derived on construction, and neither arguments nor part of ``repr`` and
    ``==``: ``wavelength`` c/f_c (m), ``k0`` 2*pi/wavelength (rad/m) and the
    path-loss constant ``eta`` (wavelength/4pi)^2 (m^2).  Over the domain no
    derived quantity leaves the normal float range, so none is checked:

    - the wavelength lies in [3.0e-7, 300] m and ``eta`` in [5.7e-16, 570] m^2;
    - d^2 lies in [1e-6, 1e8] m^2, ``eta / d^2`` in [5.7e-24, 5.7e8] and the
      two-antenna coupling form's denominator 2 d^2 + wavelength^2 / 2 below 2.1e8;
    - the spacing ``delta_p * wavelength`` lies in [3.0e-10, 3.0e8] m and the
      guided wavenumber ``k0 * n_eff`` in [0.021, 2.1e8] rad/m;
    - the fixed antenna at x = 0 lies at most 1e6 m from the user, so the
      square of that distance, at most 1e12 m^2, cannot overflow.

    Lengths are bounded apart from the scenario: public offsets and spacings
    (``_increasing_offsets``, ``_uniform_spacings``) and refined offsets lie
    within ``_MAX_LENGTH_M`` (1e11 m).  So every layout a sweep sums under loss
    (its uniform offsets lie inside the refined ones, which the walk bounds)
    spans at most 1e6 * 1e11 / 20 = 5e15 decades of loss, below 2^53, where
    float64 still resolves whole decades; and a phase ``k0 * n_eff * offset``
    stays below 2.1e19 rad, far from overflow.
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
        for name in _DOMAIN:
            _check_domain(name, getattr(self, name))
        lam = SPEED_OF_LIGHT / self.f_c_hz
        for name, value in (("wavelength", lam), ("k0", 2.0 * math.pi / lam),
                            ("eta", (lam / (4.0 * math.pi)) ** 2)):
            object.__setattr__(self, name, value)


def _check_antenna_count(n: int, name: str = "antenna count") -> None:
    """Refuse a count ``n`` the model does not cover: it takes even counts >= 2."""
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"{name} must be even and >= 2, got {n}")


def _increasing_offsets(offsets, what: str) -> np.ndarray:
    """``offsets`` as a float array, after checking that they lie within
    ``_MAX_LENGTH_M`` of 0, are at least 1-D and, along the last axis, non-empty
    and strictly increasing; :class:`ConfigError` names them as ``what``."""
    offsets = np.asarray(offsets, dtype=float)
    if offsets.ndim == 0 or offsets.shape[-1] == 0 or not (abs(offsets) <= _MAX_LENGTH_M).all():
        raise ConfigError(f"{what} must be finite, within {_MAX_LENGTH_M:g} m of 0, at least "
                          f"1-D and non-empty")
    if not (offsets[..., 1:] > offsets[..., :-1]).all():
        raise ConfigError(f"{what} must be strictly increasing")
    return offsets


def _check_size(what: str, count) -> None:
    """Refuse ``count`` array entries (``what``) past MAX_SWEEP_SIZE."""
    if count > MAX_SWEEP_SIZE:
        raise ConfigError(f"{count:.6g} {what} exceed the limit of {MAX_SWEEP_SIZE}")


def _uniform_spacings(n: int, spacing, per_spacing: int, what: str) -> np.ndarray:
    """``spacing`` (one value or a 1-D array) as a float array, after checking
    that the even-count model covers ``n`` antennas, every spacing lies in
    (0, ``_MAX_LENGTH_M``] and the ``per_spacing`` entries (``what``) the
    caller lays out for each spacing stay within MAX_SWEEP_SIZE in all."""
    _check_antenna_count(n)
    spacing = np.asarray(spacing, dtype=float)
    if not (ok := (spacing > 0) & (spacing <= _MAX_LENGTH_M)).all():
        raise ConfigError(f"spacing must be > 0 and at most {_MAX_LENGTH_M:g} m, "
                          f"got {spacing[~ok].flat[0]}")
    _check_size(what, spacing.size * per_spacing)
    return spacing


def _half_offsets(n: int, spacing) -> np.ndarray:
    """Right-half offsets ``(k - 1/2) * spacing``, k = 1..n/2, of the symmetric uniform
    layout, the package's one rounding of them: shape (n/2,), or (S, n/2) for S spacings.
    Unchecked: the caller passes what :func:`_uniform_spacings` accepts."""
    return (np.arange(1, n // 2 + 1) - 0.5) * np.asarray(spacing, dtype=float)[..., None]


def _symmetric_offsets(n: int, spacing) -> np.ndarray:
    """:func:`_half_offsets` mirrored about the user, left to right: shape (n,) or (S, n)."""
    half = _half_offsets(n, spacing)
    return np.concatenate([-half[..., ::-1], half], axis=-1)


def symmetric_uniform_layout(n: int, spacing) -> np.ndarray:
    """Offsets of the equally spaced layout mirror-symmetric about the user,
    left to right: antenna k = 1..n/2 sits at ``+/- (k - 1/2) * spacing``.
    The model only covers even antenna counts, so odd ``n`` is rejected; a 1-D
    array of S spacings gives shape (S, n), within MAX_SWEEP_SIZE pairs.
    """
    return _symmetric_offsets(n, _uniform_spacings(n, spacing, n // 2, "antenna pairs"))


def _resolve_feed(cfg: SystemConfig, leftmost):
    """Feed offset from the user's projection for layouts whose leftmost
    antennas sit at offsets ``leftmost`` (a float or an array) from it;
    "auto" puts the feed at each layout's own leftmost antenna.

    The feed must not sit to the right of any antenna, since in-waveguide
    distance is measured rightward from it; it is checked, with 1e-12 m of
    slack, in the user's coordinates, against the positions ``x_u + leftmost``.
    """
    if cfg.x_0_m is None:
        return leftmost
    left = cfg.x_u_m + np.asarray(leftmost)
    inside = cfg.x_0_m > left + 1e-12
    if inside.any():
        raise ConfigError(f"feed point x_0={cfg.x_0_m} m lies right of the leftmost antenna "
                          f"at {left[inside].flat[0]} m")
    return cfg.x_0_m - cfg.x_u_m


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
