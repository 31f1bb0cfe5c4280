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
:func:`refined_half_deltas` takes u over such a run, starts from the true
seed, guesses every later seed one nominal gap past the previous antenna's
root, repeats ``delta = seed + max(0, u - seed)`` and keeps the antennas up to
the first guess that is not the true seed or calls for another index.  The
next pass starts from that seed and follows the increment the last kept
antenna calls for, so the output is bit-identical to the antenna-by-antenna
recurrence.  The first pass covers 256 antennas, and one after a pass that
kept k covers 8k + 256, or up to ``(reach - seed) / step + 2`` antennas: as
antenna i of a pass lies at or past ``seed + i * step``, that holds the first
antenna past the reach, with a gap of slack for rounding.  A side holds at
most ``MAX_SWEEP_SIZE`` (10^6) antennas, the sweeps' size limit of
:mod:`passgain.geometry`.  In the scenario domain one antenna moves the index
by at most ``(n_eff + 1) delta_p + 1``, 1.1e7, from a first index below
3.4e10, so every index stays below 1.2e13, exact in float64; the walk stops
where the successor's index is not finite, as where the left targets run out.

Each seed calls for the index walked by construction: a pass keeps antenna
i + 1 only where antenna i's successor index is the one walked, and the next
pass starts from the index the last kept antenna calls for.  Every kept
antenna has a finite successor index, so neither its root nor its offset is
NaN and its shift ``max(0, root - seed)`` is >= 0.  What the passes do not
construct is checked over the whole walk at once, reading the roots its
passes computed, and the check names every failure, a walk stopped short
included: each offset must lie within the length bound ``_MAX_LENGTH_M`` of
:mod:`passgain.geometry` (left offsets grow without bound as n_eff -> 1), and
each path must hit its target to within 1e-9 m or 4 ulp of its larger term
``sqrt(d^2 + delta^2) + n_eff |delta|``, float64's resolution, which is
coarser than 1e-9 m beyond about 2e6 m.

Public: combined_path, refined_half_deltas, build_refined_layout.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericsError
from .geometry import _MAX_LENGTH_M, MAX_SWEEP_SIZE, SystemConfig, _check_antenna_count

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
    tt, tn = t * t, t * ne
    s = np.sqrt(tt + dd * (ne * ne - 1.0))
    if side == "right":
        return ((tt - dd) / (tn + s))[()]
    return np.where(t > 0, (dd - tt) / (s + tn), (s - tn) / (ne * ne - 1.0))[()]


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
    if not 1 <= n_half <= MAX_SWEEP_SIZE:
        raise ConfigError(f"need at least one antenna per side and at most {MAX_SWEEP_SIZE}")
    if side not in ("right", "left"):
        raise ConfigError(f"side must be 'right' or 'left', got {side!r}")
    sign, lam = (1 if side == "right" else -1), cfg.wavelength
    step = cfg.delta_p * lam
    seed = step / 2.0
    j = _lattice_index(seed, cfg, side)
    # a walk ended at its reach writes, and so makes resident, only the
    # antennas it walked
    walked, deltas, roots = (np.empty(n_half) for _ in range(3))
    n, inc, k = 0, sign, 0
    while n < n_half:  # one pass per run of antennas at j, j + inc, ...
        m = int(min(8 * k + 256, n_half - n, max(1, (reach - seed) / step + 2)))  # to the reach
        idx = walked[n:n + m] = j + inc * np.arange(m, dtype=float)
        u = roots[n:n + m] = _root(lam * idx, cfg, side)
        g = np.concatenate(([seed], u[:-1] + step))  # seeds one gap past the previous root
        d = deltas[n:n + m] = g + np.maximum(u - g, 0.0)  # seed + max(0, u - seed)
        nxt = d + step
        j_nxt = _lattice_index(nxt, cfg, side)
        finite = np.isfinite(j_nxt)
        if not finite[0]:  # stop before the front: its successor has no index
            break
        # a run holds while guesses are true seeds calling for their index, with finite successors
        held = (nxt[:-1] == g[1:]) & (j_nxt[:-1] == idx[1:]) & finite[1:]
        k = m if held.all() else int(held.argmin()) + 1  # antennas refined by this pass
        if d[k - 1] > reach:  # the walk ends at the first antenna past the reach
            k = int(np.argmax(d[:k] > reach)) + 1
            n_half = n + k
        n, seed, j, inc = n + k, nxt[k - 1], j_nxt[k - 1], j_nxt[k - 1] - idx[k - 1]
    walked, deltas = walked[:n], deltas[:n]
    targets = lam * walked
    seeds = np.concatenate(([step / 2.0], deltas + step))[:n]
    shifts = np.maximum(0.0, roots[:n] - seeds)
    # the path's two terms; on the left it is their difference, whose rounding
    # error scales with them: 4 ulp of their sum or the snap is accepted
    h, nd = np.hypot(cfg.d_m, deltas), cfg.n_eff * deltas
    miss = h + sign * nd - targets
    tol = np.maximum(_PATH_SNAP_M, 4 * np.spacing(h + nd))
    bad = ~((deltas <= _MAX_LENGTH_M) & (np.abs(miss) <= tol))
    if n == n_half and not bad.any():
        return deltas, shifts, targets
    i = int(np.argmax(np.append(bad, True)))  # first failed antenna, or where the walk stopped
    if i < n and not deltas[i] <= _MAX_LENGTH_M:
        raise NumericsError(f"{side}-side antenna {i + 1} lies {deltas[i]:.3e} m out, past the "
                            f"{_MAX_LENGTH_M:g} m length bound")
    t = lam * (walked[i] if i < n else j)
    if side == "left" and t <= 0.0:
        raise NumericsError(f"left-side targets are exhausted at antenna {i + 1} (target {t:.3e} m)")
    how = f"by {miss[i]:.3e} m" if i < n else "(no finite lattice index)"
    raise NumericsError(f"{side}-side antenna {i + 1}: refined path misses target {t:.6e} m {how}")


def _refined_offsets(n_half: int, cfg: SystemConfig, reach: float = np.inf):
    """Refined offsets ``(d_right, d_left)`` of both sides, each walked once:
    the left side first, up to the first antenna past ``reach``, then the right
    side to the left side's length.  A failing side raises as its walk ends, so
    a failing left side is named before the right side is walked."""
    d_left, _, _ = refined_half_deltas(n_half, cfg, side="left", reach=reach)
    d_right, _, _ = refined_half_deltas(d_left.size, cfg, side="right")
    return d_right, d_left


def build_refined_layout(n: int, cfg: SystemConfig) -> np.ndarray:
    """Offsets from the user, left to right, of the refined layout with N/2
    antennas per side; each side's shifts and path targets are those
    :func:`refined_half_deltas` returns."""
    _check_antenna_count(n)
    d_right, d_left = _refined_offsets(n // 2, cfg)
    return np.append(-d_left[::-1], d_right)
