"""Sequential antenna-position refinement that phase-aligns every antenna.

An antenna at signed offset ``delta`` from the user accumulates the combined
propagation path ``sqrt(d^2 + delta^2) + n_eff * delta`` (in-waveguide part
signed, measured relative to the user's projection on the waveguide; the
constant feed-to-user stretch is common to all antennas and drops out of the
gain).  The received contributions add fully coherently exactly when every
antenna's combined path is an integer number of wavelengths.

Right of the user the combined path grows with the offset, so each antenna is
nudged outward by ``v in [0, wavelength)`` until the path reaches the next
multiple ``wavelength * ceil(path / wavelength)``.  Left of the user the
combined path ``sqrt(d^2 + delta^2) - n_eff * delta`` is strictly decreasing
(n_eff >= 1), so the antenna is nudged outward until the path drops to
``wavelength * floor(path / wavelength)``; those shifts can reach
``wavelength / (n_eff - 1)``.  Each side is built sequentially from the inside
out, restoring the nominal ``delta_p * wavelength`` gap before every step, so
refinement only ever widens gaps.

A shifted antenna sits on the root u(j) of ``combined path = j * wavelength``,
so the index j' its successor aims for depends on j alone (at most
ceil((n_eff + 1) delta_p) + 1 above j on the right, ceil(n_eff delta_p) + 1
below it on the left).  :func:`refined_half_deltas` tabulates u(j) and j' with
numpy over a window of indices, walks only the integers in Python and repeats
the float steps ``delta = seed + max(0, u - seed)``, so its output is
bit-identical to the antenna-by-antenna recurrence.  The whole walk is then
checked at once: each seed must call for the index walked, each path must hit
its target to within 1e-9 m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError
from .geometry import AntennaLayout, DerivedConstants, SystemConfig

# Paths already on a multiple to within this snap do not trigger a shift.
_PATH_SNAP_M = 1e-9
# Wavelength indices tabulated per refill of the lattice walk's window.
_WINDOW = 2048


def combined_path(delta, cfg: SystemConfig, consts: DerivedConstants):
    """Free-space plus signed in-waveguide path of an antenna at offset ``delta``
    (a scalar or an array)."""
    return np.hypot(cfg.d_m, delta) + cfg.n_eff * delta


def _lattice_index(delta, cfg: SystemConfig, consts: DerivedConstants, side: str):
    """Index (as float) of the wavelength multiple an antenna seeded at offset
    ``delta`` aligns to: at or above its path on the right, at or below on the left."""
    with np.errstate(invalid="ignore", over="ignore"):
        if side == "right":
            return np.ceil((combined_path(delta, cfg, consts) - _PATH_SNAP_M) / consts.wavelength)
        return np.floor((combined_path(-delta, cfg, consts) + _PATH_SNAP_M) / consts.wavelength)


def _exact_index(x) -> int:
    if not abs(x) < 2.0**53:
        raise NumericsError(f"refinement lattice index {x:.6g} is not a finite exact integer")
    return int(x)


def _root(t, cfg: SystemConfig, side: str):
    """Offset whose combined path on ``side`` equals the target ``t`` (a scalar
    or an array); NaN or inf where none exists.  With s = sqrt(t^2 + d^2 (n^2 - 1)),
    (t^2 - d^2) / (t n + s) and (d^2 - t^2) / (s + t n) cancel nothing as n_eff -> 1;
    a left t <= 0 takes (s - t n) / (n^2 - 1), as the latter is 0/0 at t = -d."""
    ne, d, t = cfg.n_eff, cfg.d_m, np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sqrt(t * t + d * d * (ne * ne - 1.0))
        if side == "right":
            return ((t * t - d * d) / (t * ne + s))[()]
        return np.where(t > 0, (d * d - t * t) / (s + t * ne), (s - t * ne) / (ne * ne - 1.0))[()]


def target_path(delta_n: float, cfg: SystemConfig, consts: DerivedConstants) -> float:
    """Next wavelength multiple at or above the combined path (right side)."""
    if delta_n < 0:
        raise ConfigError("right-side offsets must be >= 0")
    return consts.wavelength * _lattice_index(delta_n, cfg, consts, "right")


def target_path_left(delta_n: float, cfg: SystemConfig, consts: DerivedConstants) -> float:
    """Next wavelength multiple at or below the combined path (left side)."""
    if delta_n < 0:
        raise ConfigError("left-side offsets must be >= 0")
    return consts.wavelength * _lattice_index(delta_n, cfg, consts, "left")


def _check_residual(path: float, target: float, where: str) -> None:
    if not abs(path - target) <= _PATH_SNAP_M:
        raise NumericsError(f"{where}: refined path misses target by {path - target:.3e} m")


def refine_shift(delta_n: float, cfg: SystemConfig, consts: DerivedConstants) -> float:
    """Outward shift aligning a right-side antenna: closed-form solution of
    sqrt(d^2 + (delta+v)^2) + n_eff (delta+v) = target."""
    d_n = target_path(delta_n, cfg, consts)
    v = max(0.0, _root(d_n, cfg, "right") - delta_n)
    _check_residual(combined_path(delta_n + v, cfg, consts), d_n, "refine_shift")
    return v


def refine_shift_left(delta_n: float, cfg: SystemConfig, consts: DerivedConstants) -> float:
    """Outward (leftward) shift aligning a left-side antenna: solves
    sqrt(d^2 + (delta+w)^2) - n_eff (delta+w) = target."""
    t = target_path_left(delta_n, cfg, consts)
    u = _root(t, cfg, "left")
    if not np.isfinite(u):
        raise NumericsError(f"left-side targets are exhausted (no offset has path {t:.3e} m)")
    w = max(0.0, u - delta_n)
    _check_residual(combined_path(-(delta_n + w), cfg, consts), t, "refine_shift_left")
    return w


def refined_half_deltas(
    n_half: int,
    cfg: SystemConfig,
    consts: DerivedConstants,
    side: str = "right",
):
    """Sequentially refined offsets for one side of the array.

    Starting from ``delta_1 = delta_p * wavelength / 2``, each antenna is
    shifted outward onto its wavelength multiple and the next one is seeded a
    nominal gap further out, by the lattice walk of the module docstring.
    Returns (deltas, shifts, targets) as arrays of length ``n_half``.
    """
    if n_half < 1:
        raise ConfigError("need at least one antenna per side")
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    sign, lam = (1 if side == "right" else -1), consts.wavelength
    step = cfg.delta_p * lam
    seed = step / 2.0
    j = base = _exact_index(_lattice_index(seed, cfg, consts, side))
    size = 0
    # typed buffers: no per-antenna Python objects, no regrowth
    walked, deltas = (memoryview(bytearray(8 * n_half)).cast(f) for f in "qd")
    for n in range(n_half):
        k = (j - base) * sign
        if not 0 <= k < size:
            # tabulate j, j + sign, ... up to the first non-finite successor,
            # freeing the old window first
            base, k, roots, succ = j, 0, (), ()
            u = _root(lam * (j + sign * np.arange(_WINDOW, dtype=float)), cfg, side)
            nxt = _lattice_index(u + step, cfg, consts, side)
            size = int(np.argmin(np.append(np.abs(nxt) < 2.0**53, False)))
            roots, succ = u[:size].tolist(), nxt[:size].astype(np.int64).tolist()
            if not size:
                break
        walked[n] = j
        v = roots[k] - seed
        if v > 0.0:
            seed += v  # seed + max(0, u - seed), bit for bit
            j = succ[k]
        else:  # unshifted: the seed lies off u(j), which the table assumes
            j = _exact_index(_lattice_index(seed + step, cfg, consts, side))
        deltas[n] = seed
        seed += step
    else:
        n = n_half

    walked, deltas = np.array(walked[:n], dtype=float), np.array(deltas[:n])
    targets = lam * walked
    seeds = np.concatenate(([step / 2.0], deltas + step))[:n]
    with np.errstate(invalid="ignore", over="ignore"):
        shifts = np.maximum(0.0, _root(targets, cfg, side) - seeds)
        miss = combined_path(sign * deltas, cfg, consts) - targets
    bad = (_lattice_index(seeds, cfg, consts, side) != walked) | ~(shifts >= 0.0)
    bad |= ~(np.abs(miss) <= _PATH_SNAP_M)
    if n == n_half and not bad.any():
        return deltas, shifts, targets
    i = int(np.argmax(np.append(bad, True)))  # first failed antenna, or where the walk stopped
    t = lam * (walked[i] if i < n else j)
    if side == "left" and t <= 0.0:
        raise NumericsError(f"left-side targets are exhausted at antenna {i + 1} (target {t:.3e} m)")
    how = f"by {miss[i]:.3e} m" if i < n else "(no finite lattice index)"
    raise NumericsError(f"{side}-side antenna {i + 1}: refined path misses target {t:.6e} m {how}")


@dataclass(frozen=True)
class RefinedLayout:
    """Phase-aligned layout plus the shifts and per-antenna path targets.

    ``shifts`` are the right-side (positive-index) nudges, each within one
    wavelength; ``shifts_left`` are the left-side ones, bounded by
    wavelength / (n_eff - 1).  ``targets`` holds every antenna's combined-path
    wavelength multiple, ordered like ``layout.positions``.
    """

    layout: AntennaLayout
    shifts: tuple[float, ...]
    shifts_left: tuple[float, ...]
    targets: tuple[float, ...]


def build_refined_layout(n: int, cfg: SystemConfig, consts: DerivedConstants) -> RefinedLayout:
    """Refined symmetric-count layout with N/2 antennas per side."""
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"antenna count must be even and >= 2, got {n}")
    n_half = n // 2
    d_right, v_right, t_right = refined_half_deltas(n_half, cfg, consts, side="right")
    d_left, v_left, t_left = refined_half_deltas(n_half, cfg, consts, side="left")

    positions = np.concatenate([cfg.x_u_m - d_left[::-1], cfg.x_u_m + d_right])
    layout = AntennaLayout(
        positions=tuple(positions),
        center=cfg.x_u_m,
        min_spacing=cfg.delta_p * consts.wavelength,
    )
    targets = np.concatenate([t_left[::-1], t_right])
    return RefinedLayout(
        layout=layout,
        shifts=tuple(v_right),
        shifts_left=tuple(v_left),
        targets=tuple(targets),
    )
