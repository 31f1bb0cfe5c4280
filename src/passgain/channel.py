"""Exact array gain over the line-of-sight spherical-wave channel.

An antenna at signed offset ``delta`` from the user's projection on the
waveguide (height ``d``) has the spherical-wave coefficient
``h = sqrt(eta) exp(-j k0 r) / r``, ``r = hypot(delta, d)``, and is reached
with the in-waveguide phase ``phi = k0 n_eff delta`` and, on a lossy
waveguide, the amplitude ``att = 10^(-alpha run / 20)`` of its run from the
feed.  The gain is ``|sum_n att_n h_n exp(-j phi_n)|^2 / N``.  Phase taken
from the feed instead differs by one unit-modulus factor, so the feed enters
only through the loss.  Two forms of the sum remain: the direct one,
:func:`gain_at_offsets`, and the pair one, :func:`pair_phasors` and
:func:`nested_gains`, which reads all nested symmetric layouts off one prefix
sum.  They round differently, and the benchmark oracles (``direct_gain``, and
``pair_phasors`` with ``nested_gains``) mirror each one's rounding, so
merging them waits for oracles set against the exact model.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .geometry import AntennaLayout, SystemConfig, resolve_feed


def los_channel(offsets, cfg: SystemConfig):
    """Spherical-wave coefficients ``sqrt(eta) exp(-j k0 r) / r`` of antennas at
    signed ``offsets`` (m, any shape) along the waveguide from the user's
    projection, ``r = hypot(offset, d)``."""
    r = np.hypot(offsets, cfg.d_m)
    return math.sqrt(cfg.eta) * np.exp(-1j * cfg.k0 * r) / r


def abs_squared(z):
    """``|z|^2`` of a complex array, rounded as ``abs(z) ** 2`` of a numpy scalar
    is (libm hypot, then libm pow), which keeps the CSV bits of the
    point-by-point sweeps; ``np.abs`` and ``** 2`` on arrays round otherwise."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


def gain_at_offsets(offsets, cfg: SystemConfig, alpha: float):
    """Exact gain ``|sum_n att_n h_n exp(-j phi_n)|^2 / N`` of layouts given by
    their antenna offsets from the user's projection, left to right along the
    last axis (shape (..., N), giving shape (...)), under waveguide loss
    ``alpha`` (dB/m).  The phase runs from the user's projection; the loss
    runs from the feed, as :func:`~passgain.geometry.resolve_feed` places it
    for each layout, so without loss the feed cannot move the gain."""
    offsets = np.asarray(offsets, dtype=float)
    att = 10.0 ** (-alpha * (offsets - resolve_feed(cfg, offsets[..., :1])) / 20.0)
    phase = np.exp(-1j * cfg.k0 * cfg.n_eff * offsets)
    total = np.sum(att * los_channel(offsets, cfg) * phase, axis=-1)
    return abs_squared(total) / offsets.shape[-1]


def array_gain_exact(
    layout: AntennaLayout,
    cfg: SystemConfig,
    alpha_wg: float | None = None,
) -> float:
    """Exact array gain (received SNR over transmit SNR) of a layout.

    Equal power split over the N antennas:
    ``a = |sum_n att_n h_n exp(-j phi_n)|^2 / N``, by :func:`gain_at_offsets`.
    The feed enters only the loss, so with zero loss the value does not
    depend on the feed position at all.  ``alpha_wg`` overrides the
    configured waveguide loss, so one layout can be scored under both the
    lossless and the lossy configuration.
    """
    alpha = cfg.alpha_wg_db_per_m if alpha_wg is None else alpha_wg
    return float(gain_at_offsets(np.asarray(layout.positions) - cfg.x_u_m, cfg, alpha))


PairPhasors = namedtuple("PairPhasors", "dr dl rr rl er el")


def pair_phasors(delta_right, delta_left, cfg: SystemConfig) -> PairPhasors:
    """Per-side offsets ``dr``/``dl``, distances ``rr``/``rl`` and phasors
    ``er``/``el`` (``exp(-j theta)``) of the antenna pairs at ``+dr`` and
    ``-dl``: the loss-free part of their gains, shared by all loss cases."""
    dr = np.asarray(delta_right, dtype=float)
    dl = np.asarray(delta_left, dtype=float)
    rr = np.hypot(cfg.d_m, dr)
    rl = np.hypot(cfg.d_m, dl)
    er = np.exp(-1j * (cfg.k0 * (rr + cfg.n_eff * dr)))
    el = np.exp(-1j * (cfg.k0 * (rl - cfg.n_eff * dl)))
    return PairPhasors(dr, dl, rr, rl, er, el)


def nested_gains(phasors: PairPhasors, cfg: SystemConfig, alpha: float):
    """Gains of the nested layouts of the innermost 1, 2, ... pairs, by prefix
    sums of their :func:`pair_phasors`, loss referenced to the user's
    projection (the caller applies the feed-to-projection factor); with the
    phasors ``er`` and ``el`` set to 1, the phase-free upper bounds."""
    dr, dl, rr, rl, er, el = phasors
    if alpha == 0.0:  # the loss factors are exactly 1
        z = er / rr + el / rl
    else:
        z = 10.0 ** (-alpha * dr / 20.0) * er / rr + 10.0 ** (alpha * dl / 20.0) * el / rl
    s = np.cumsum(z)
    m = np.arange(1, z.size + 1)
    return cfg.eta * np.abs(s) ** 2 / (2.0 * m)
