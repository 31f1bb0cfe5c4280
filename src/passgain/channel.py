"""Exact array gain over the line-of-sight spherical-wave channel.

An antenna at signed offset ``delta`` from the user's projection on the
waveguide (height ``d``) has the spherical-wave coefficient
``h = sqrt(eta) exp(-j k0 r) / r``, ``r = hypot(delta, d)``, and is reached
with the in-waveguide phase ``phi = k0 n_eff delta`` and, on a lossy
waveguide, the amplitude ``att = 10^(-alpha run / 20)`` of its run from the
feed.  The gain is ``|sum_n att_n h_n exp(-j phi_n)|^2 / N``.  Phase taken
from the feed instead differs by one unit-modulus factor, so the feed enters
only through the loss.  Two forms of the sum remain, rounding differently:
the direct one, :func:`gain_at_offsets`, and the pair one,
:func:`_pair_phasors` and :func:`_nested_gains`, which reads all nested
symmetric layouts off one prefix sum; the benchmark oracles mirror each.

The pair sum runs its loss from the user's projection, over which a left
antenna ``dl`` out gains ``alpha dl / 20`` decades, in blocks of 100 decades:
each block sums in units of 10^(its lower edge) and carries its total on by a
factor <= 1, so no factor exceeds 10^100; :func:`_at_feed` moves it to the feed.
Right-side factors fall outward, and only those of 10^-324 or more take a pow.

Public: gain_at_offsets, array_gain_exact.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import NumericsError
from .geometry import AntennaLayout, SystemConfig, _resolve_feed


def _antenna_terms(offsets, cfg: SystemConfig):
    """``(h, phi)`` of antennas at signed ``offsets`` (m, any shape) along the
    waveguide from the user's projection: the spherical-wave coefficients
    ``sqrt(eta) exp(-j k0 r) / r``, ``r = hypot(offset, d)``, and the
    in-waveguide phasors ``exp(-j k0 n_eff offset)``."""
    r = np.hypot(offsets, cfg.d_m)
    h = math.sqrt(cfg.eta) * np.exp(-1j * cfg.k0 * r) / r
    return h, np.exp(-1j * cfg.k0 * cfg.n_eff * offsets)


def gain_at_offsets(offsets, cfg: SystemConfig, alpha: float):
    """Exact gain ``|sum_n att_n h_n exp(-j phi_n)|^2 / N`` of layouts given by
    their antenna offsets from the user's projection, left to right along the
    last axis (shape (..., N), giving shape (...)), under waveguide loss
    ``alpha`` (dB/m).  The phase runs from the user's projection; the loss
    runs from the feed, as :func:`~passgain.geometry._resolve_feed` places it
    for each layout, so without loss the feed cannot move the gain."""
    offsets = np.asarray(offsets, dtype=float)
    att = 10.0 ** (-alpha * (offsets - _resolve_feed(cfg, offsets[..., :1])) / 20.0)
    h, phase = _antenna_terms(offsets, cfg)
    total = np.sum(att * h * phase, axis=-1)
    # np.square, not ** 2, which is libm pow on a numpy scalar but x * x on an array
    return np.square(np.abs(total)) / offsets.shape[-1]


def array_gain_exact(layout: AntennaLayout, cfg: SystemConfig) -> float:
    """Exact array gain (received SNR over transmit SNR) of a layout, equal
    power split over its N antennas, by :func:`gain_at_offsets` under the
    configured loss at the offsets ``layout.offsets + (layout.center - x_u)``
    from the user: exactly ``layout.offsets`` for a layout centred on ``x_u``.
    The feed enters only the loss, so without loss it cannot move the gain,
    but an explicit ``cfg.x_0_m`` right of the leftmost antenna raises
    :class:`~passgain.errors.ConfigError` at any loss.
    """
    offsets = layout.offsets + (layout.center - cfg.x_u_m)
    return float(gain_at_offsets(offsets, cfg, cfg.alpha_wg_db_per_m))


_PairPhasors = namedtuple("_PairPhasors", "dr dl rr rl er el")


def _pair_phasors(delta_right, delta_left, cfg: SystemConfig) -> _PairPhasors:
    """Per-side offsets ``dr``/``dl`` (``dl = dr`` if ``delta_left`` is None),
    distances ``rr``/``rl`` and phasors ``er``/``el`` (``exp(-j theta)``) of the
    pairs at ``+dr`` and ``-dl``: the loss-free part of their gains."""
    dr = np.asarray(delta_right, dtype=float)
    dl = dr if delta_left is None else np.asarray(delta_left, dtype=float)
    rr = np.hypot(cfg.d_m, dr)
    rl = rr if delta_left is None else np.hypot(cfg.d_m, dl)
    er = np.exp(-1j * (cfg.k0 * (rr + cfg.n_eff * dr)))
    el = np.exp(-1j * (cfg.k0 * (rl - cfg.n_eff * dl)))
    return _PairPhasors(dr, dl, rr, rl, er, el)


def _scaled_accumulate(ufunc, values, scale):
    """Running ``ufunc`` (``np.add``, ``np.maximum``) of ``values`` in units of
    ``10**scale``, ``scale`` nondecreasing: each run of equal scale accumulates
    in its own units, after the total before it times ``10**(previous - scale)``.

    Runs of one length accumulate as the rows of one array.  The carries into
    runs 2, 3, ... obey ``c[k] = ufunc(total[k-1], c[k-1]) * factor[k]``, taken
    in whole-array passes from ``c[k] = total[k-1] * factor[k]`` until a pass
    changes no bit.  Pass p fixes carry p, so there is at most one pass per
    run; in the sweeps' pair sums no carry moves the run total it meets, so
    the first pass changes nothing."""
    if scale[0] == scale[-1]:  # one run
        return ufunc.accumulate(values)
    starts = np.flatnonzero(np.diff(scale)) + 1
    bounds = np.concatenate(([0], starts, [values.size]))
    sizes = np.diff(bounds)
    out = values.copy()  # a run of one value is its own accumulate
    for n in np.flatnonzero(np.bincount(sizes)[2:]) + 2:
        rows = bounds[:-1][sizes == n, None] + np.arange(n)
        out[rows] = ufunc.accumulate(values[rows], axis=1)
    # numpy's scalar pow, once per distinct step: its array pow rounds per SIMD level
    step = scale[starts - 1] - scale[starts]
    steps = np.unique(step)
    factor = np.array([10.0 ** s for s in steps])[np.searchsorted(steps, step)]
    totals = out[starts - 1]
    carry = totals * factor
    while True:
        moved = np.concatenate((carry[:1], ufunc(totals[1:], carry[:-1]) * factor[1:]))
        if np.array_equal(moved.view(np.uint64), carry.view(np.uint64)):
            break
        carry = moved
    tail = out[starts[0]:]
    ufunc(tail, np.repeat(carry, sizes[1:]), out=tail)
    return out


def _nested_gains(phasors: _PairPhasors, cfg: SystemConfig, alpha: float):
    """Gains of the nested layouts of the innermost 1, 2, ... pairs (offsets
    growing outward), by prefix sums of their :func:`_pair_phasors`; with the
    phasors ``er`` and ``el`` set to 1, the phase-free upper bounds.

    Returns ``(gains, scale)``: with the loss run from the user's projection,
    layout m has gain ``gains[m-1] * 10**scale[m-1]``, summed in blocks of 100
    decades of ``alpha dl / 20`` (module docstring).  A loss past 2^53 decades,
    where float64 skips whole decades, raises NumericsError."""
    dr, dl, rr, rl, er, el = phasors
    m = np.arange(1, dl.size + 1)
    if alpha == 0.0:  # the loss factors are exactly 1
        return cfg.eta * np.abs(np.cumsum(er / rr + el / rl)) ** 2 / (2.0 * m), np.zeros(m.size)
    up = alpha * dl / 20.0
    if not up[-1] < 2.0**53:
        raise NumericsError(f"alpha_wg_db_per_m = {alpha:g}: {up[-1]:.3g} decades, beyond float64")
    lo, hi, block = -alpha * dr / 20.0, up, np.zeros(m.size)
    if up[-1] >= 100.0:  # in units of 10^(each block's lower edge)
        block = 100.0 * np.floor(up / 100.0)
        lo, hi = lo - block, hi - block
    p, right = lo.size - np.searchsorted(lo[::-1], -324.0), np.zeros(lo.size)
    np.power(10.0, lo[:p], out=right[:p])
    s = _scaled_accumulate(np.add, right * er / rr + 10.0 ** hi * el / rl, block)
    return cfg.eta * np.abs(s) ** 2 / (2.0 * m), 2.0 * block


def _at_feed(gains, scale, alpha: float, run):
    """Gains of :func:`_nested_gains` layouts fed ``run`` metres left of the
    user's projection: ``gains * 10**(scale - alpha run / 10)``, a factor <= 1
    for a feed at or left of the layout, taken in two steps below 1e-300 so
    that it underflows only with the gain."""
    if alpha == 0.0:
        return gains
    e = scale - alpha * run / 10.0
    if e.min() < -300.0:
        gains, e = gains * 10.0 ** np.maximum(e, -300.0), np.minimum(e + 300.0, 0.0)
    return gains * 10.0 ** e
