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
antenna-by-antenna recurrence.  Passes are sized from the runs walked: the
first covers 256 antennas, one that holds all its k antennas is followed by
8k + 256, one that breaks early by half its size (at least 2k + 16).  After a
run of 32 or more the next pass follows the increment the break reveals;
after a shorter one it keeps the increment, and follows only after a
one-antenna pass.  Near 1e6 wavelengths float rounding flips the increment
every few antennas: the walk takes a pass per flip, and would take a fifth
more if it followed every flip.  It stops before an antenna whose successor
index is 2**53 or more, past which float64 skips integers.  The whole walk is
checked at once: each seed must call for the index walked, each path must hit
its target to within 1e-9 m or 4 ulp of its larger term
``sqrt(d^2 + delta^2) + n_eff |delta|``, float64's resolution, which is
coarser than 1e-9 m beyond about 2e6 m.

Public: combined_path, refined_half_deltas, build_refined_layout.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericsError
from .geometry import AntennaLayout, SystemConfig, _check_antenna_count

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


def _root(t, cfg: SystemConfig, side: str):
    """Offset whose combined path on ``side`` equals the target ``t`` (a scalar
    or an array); NaN or inf where none exists, quietly under ``_QUIET``.  With
    s = sqrt(t^2 + d^2 (n^2 - 1)), (t^2 - d^2) / (t n + s) and (d^2 - t^2) / (s + t n)
    cancel nothing as n_eff -> 1; a left t <= 0 takes (s - t n) / (n^2 - 1), as
    the latter is 0/0 at t = -d."""
    ne, dd, t = cfg.n_eff, cfg.d_m * cfg.d_m, np.asarray(t, dtype=float)
    tt = t * t
    s = np.sqrt(tt + dd * (ne * ne - 1.0))
    if side == "right":
        return ((tt - dd) / (t * ne + s))[()]
    return np.where(t > 0, (dd - tt) / (s + t * ne), (s - t * ne) / (ne * ne - 1.0))[()]


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
    # a walk ended at its reach writes, and so makes resident, only the
    # antennas it walked; the pass buffers grow with the window
    walked, deltas, ramp = np.empty(n_half), np.empty(n_half), np.empty(0)
    n, inc, size = 0, sign, 256
    while n < n_half:  # one pass per run of antennas n, n + 1, ... at j, j + inc, ...
        m = min(size, n_half - n)
        if m > ramp.size:
            ramp, chain = np.arange(m, dtype=float), np.full(m, step)
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
        if d[k - 1] > reach:  # the walk ends at the first antenna past the reach
            k = int(np.argmax(d[:k] > reach)) + 1
            n_half = n + k
        n, seed, j = n + k, nxt[k - 1], j_nxt[k - 1]
        if k == 1 or k >= 32:  # follow the increment the break reveals
            inc = j - idx[k - 1]
        size = 8 * k + 256 if k == m else max(size // 2, 2 * k + 16)
    if n < n_half and abs(_lattice_index(u[0] + step, cfg, side)) < 2.0**53:
        # the front is unshifted, and only its seed's successor is inexact
        raise NumericsError(f"refinement lattice index {j_nxt[0]:.6g} is not a finite exact integer")
    walked, deltas = walked[:n], deltas[:n]
    targets = lam * walked
    seeds = np.concatenate(([step / 2.0], deltas + step))[:n]
    shifts = np.maximum(0.0, _root(targets, cfg, side) - seeds)
    # the path's two terms; on the left it is their difference, whose rounding
    # error scales with them: 4 ulp of their sum or the snap is accepted
    h, nd = np.hypot(cfg.d_m, deltas), cfg.n_eff * deltas
    miss = h + sign * nd - targets
    bad = (_lattice_index(seeds, cfg, side) != walked) | ~(shifts >= 0.0)
    bad |= ~(np.abs(miss) <= np.maximum(_PATH_SNAP_M, 4 * np.spacing(h + nd)))
    if n == n_half and not bad.any():
        return deltas, shifts, targets
    i = int(np.argmax(np.append(bad, True)))  # first failed antenna, or where the walk stopped
    t = lam * (walked[i] if i < n else j)
    if side == "left" and t <= 0.0:
        raise NumericsError(f"left-side targets are exhausted at antenna {i + 1} (target {t:.3e} m)")
    how = f"by {miss[i]:.3e} m" if i < n else "(no finite lattice index)"
    raise NumericsError(f"{side}-side antenna {i + 1}: refined path misses target {t:.6e} m {how}")


def _refined_offsets(n_half: int, cfg: SystemConfig, reach: float = np.inf):
    """Refined offsets ``(d_right, d_left)`` of both sides: the left side walked
    first, up to the first antenna past ``reach``, then the right side to the
    left side's length.  A failing right side's error is raised first."""
    try:
        d_left, _, _ = refined_half_deltas(n_half, cfg, side="left", reach=reach)
    except NumericsError:  # name a failing right side first
        refined_half_deltas(n_half, cfg, side="right")
        raise
    d_right, _, _ = refined_half_deltas(d_left.size, cfg, side="right")
    return d_right, d_left


def build_refined_layout(n: int, cfg: SystemConfig) -> AntennaLayout:
    """Refined symmetric-count layout with N/2 antennas per side; each side's
    shifts and path targets are those :func:`refined_half_deltas` returns."""
    _check_antenna_count(n)
    d_right, d_left = _refined_offsets(n // 2, cfg)
    return AntennaLayout(np.append(-d_left[::-1], d_right), cfg.x_u_m, cfg.delta_p * cfg.wavelength)
