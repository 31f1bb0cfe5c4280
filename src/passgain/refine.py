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
and its successor aims for the index ceil(g(j)) past j, g smooth and monotone,
so each side is a few runs of indices j, j + c, j + 2c, ...  A numpy pass of
:func:`refined_half_deltas` takes u over such a run, guesses each seed as the
largest of the front's chain of unshifted seeds and the seeds one and two gaps
past a root, repeats ``delta = seed + max(0, u - seed)`` and keeps the antennas
up to the first guess that is not the true seed or calls for another index.
The next pass starts from that seed, so the output is bit-identical to the
antenna-by-antenna recurrence.  It stops before an antenna whose successor
index is 2**53 or more, past which float64 skips integers.  Near 1e6
wavelengths float rounding flips the increment every few antennas, and the
walk takes a pass per flip.  The whole walk is checked at once: each seed
must call for the index walked, each path must hit its target to within
1e-9 m or 4 ulp of its larger term ``sqrt(d^2 + delta^2) + n_eff |delta|``,
float64's resolution, which is coarser than 1e-9 m beyond about 2e6 m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError
from .geometry import AntennaLayout, SystemConfig, check_antenna_count

# Paths already on a multiple to within this snap do not trigger a shift.
_PATH_SNAP_M = 1e-9
# Warnings silenced in the walk and its checks, which report NaN and inf roots.
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


def combined_path(delta, cfg: SystemConfig):
    """Free-space plus signed in-waveguide path of an antenna at offset ``delta``
    (a scalar or an array)."""
    return np.hypot(cfg.d_m, delta) + cfg.n_eff * delta


def _lattice_index(delta, cfg: SystemConfig, side: str):
    """Index (as float) of the wavelength multiple an antenna seeded at offset
    ``delta`` aligns to: at or above its path on the right, at or below on the left."""
    if side == "right":
        return np.ceil((combined_path(delta, cfg) - _PATH_SNAP_M) / cfg.wavelength)
    return np.floor((combined_path(-delta, cfg) + _PATH_SNAP_M) / cfg.wavelength)


@np.errstate(**_QUIET)
def _root(t, cfg: SystemConfig, side: str):
    """Offset whose combined path on ``side`` equals the target ``t`` (a scalar
    or an array); NaN or inf where none exists.  With s = sqrt(t^2 + d^2 (n^2 - 1)),
    (t^2 - d^2) / (t n + s) and (d^2 - t^2) / (s + t n) cancel nothing as n_eff -> 1;
    a left t <= 0 takes (s - t n) / (n^2 - 1), as the latter is 0/0 at t = -d."""
    ne, dd, t = cfg.n_eff, cfg.d_m * cfg.d_m, np.asarray(t, dtype=float)
    tt = t * t
    s = np.sqrt(tt + dd * (ne * ne - 1.0))
    if side == "right":
        return ((tt - dd) / (t * ne + s))[()]
    return np.where(t > 0, (dd - tt) / (s + t * ne), (s - t * ne) / (ne * ne - 1.0))[()]


def _path_tolerance(delta, cfg: SystemConfig):
    """Largest accepted |path - target| at offset ``delta``: the snap, or 4 ulp
    of the path's larger term (on the left the path is a difference of two
    terms, and its rounding error scales with them, not with the path)."""
    return np.maximum(_PATH_SNAP_M,
                      4 * np.spacing(np.hypot(cfg.d_m, delta) + cfg.n_eff * np.abs(delta)))


@np.errstate(**_QUIET)
def refined_half_deltas(n_half: int, cfg: SystemConfig,
                        side: str = "right", reach: float = np.inf):
    """Sequentially refined offsets for one side of the array.

    Starting from ``delta_1 = delta_p * wavelength / 2``, each antenna is
    shifted outward onto its wavelength multiple and the next one is seeded a
    nominal gap further out, by the lattice walk of the module docstring.
    Returns (deltas, shifts, targets) as arrays of length ``n_half``, or up to
    the first antenna whose offset exceeds ``reach``, if that comes sooner.
    """
    if n_half < 1:
        raise ConfigError("need at least one antenna per side")
    if side not in ("right", "left"):
        raise ConfigError(f"side must be 'right' or 'left', got {side!r}")
    sign, lam = (1 if side == "right" else -1), cfg.wavelength
    step = cfg.delta_p * lam
    seed = step / 2.0
    j = _lattice_index(seed, cfg, side)
    if not abs(j) < 2.0**53:
        raise NumericsError(f"refinement lattice index {j:.6g} is not a finite exact integer")
    walked, deltas, chain = np.empty(n_half), np.empty(n_half), np.full(n_half, step)
    ramp = np.arange(n_half, dtype=float)
    n, inc, size = 0, sign, 16
    while n < n_half:  # one pass per run of antennas n, n + 1, ... at j, j + inc, ...
        m = min(size, n_half - n)
        idx = walked[n:n + m] = j + inc * ramp[:m]
        u = _root(lam * idx, cfg, side)
        chain[0] = seed  # guessed seeds, as the module docstring says
        guess = np.add.accumulate(chain[:m])
        after = u + step
        guess[1:] = np.maximum(guess[1:], after[:-1])
        after += step
        guess[2:] = np.maximum(guess[2:], after[:-2])
        d = deltas[n:n + m] = guess + np.maximum(u - guess, 0.0)  # seed + max(0, u - seed)
        nxt = d + step
        j_nxt = _lattice_index(nxt, cfg, side)
        exact = np.abs(j_nxt) < 2.0**53
        if not exact[0]:  # stop before the front: its successor has no exact index
            break
        # a run holds while guesses are true seeds calling for their index, with exact successors
        held = (nxt[:-1] == guess[1:]) & (j_nxt[:-1] == idx[1:]) & exact[1:]
        f = int(held.argmin()) if m > 1 else 0
        k = f + 1 if m > 1 and not held[f] else m  # antennas refined by this pass
        past = d[:k] > reach
        if past.any():  # the walk ends at the first antenna past the reach
            k = int(past.argmax()) + 1
            n_half = n + k
        n, seed, j = n + k, nxt[k - 1], j_nxt[k - 1]
        if k == 1:  # the increment broke at once: follow the one just seen
            inc = j - idx[0]
        size = 2 * k + 16
    if n < n_half and abs(_lattice_index(u[0] + step, cfg, side)) < 2.0**53:
        # the front is unshifted, and only its seed's successor is inexact
        raise NumericsError(f"refinement lattice index {j_nxt[0]:.6g} is not a finite exact integer")
    walked, deltas = walked[:n], deltas[:n]
    targets = lam * walked
    seeds = np.concatenate(([step / 2.0], deltas + step))[:n]
    shifts = np.maximum(0.0, _root(targets, cfg, side) - seeds)
    miss = combined_path(sign * deltas, cfg) - targets
    bad = (_lattice_index(seeds, cfg, side) != walked) | ~(shifts >= 0.0)
    bad |= ~(np.abs(miss) <= _path_tolerance(deltas, cfg))
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


def build_refined_layout(n: int, cfg: SystemConfig) -> RefinedLayout:
    """Refined symmetric-count layout with N/2 antennas per side."""
    check_antenna_count(n)
    n_half = n // 2
    d_right, v_right, t_right = refined_half_deltas(n_half, cfg, side="right")
    d_left, v_left, t_left = refined_half_deltas(n_half, cfg, side="left")

    positions = np.concatenate([cfg.x_u_m - d_left[::-1], cfg.x_u_m + d_right])
    layout = AntennaLayout(positions=tuple(positions), center=cfg.x_u_m,
                           min_spacing=cfg.delta_p * cfg.wavelength)
    targets = np.concatenate([t_left[::-1], t_right])
    return RefinedLayout(
        layout=layout,
        shifts=tuple(v_right),
        shifts_left=tuple(v_left),
        targets=tuple(targets),
    )
