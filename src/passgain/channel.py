"""Exact array gain over the line-of-sight spherical-wave channel.

The spherical-wave coefficient of an antenna at ``[x_n, 0, d]`` seen from the
user at ``[x_u, 0, 0]`` is ``sqrt(eta) * exp(-j k0 r) / r`` with
``r = sqrt((x_u - x_n)^2 + d^2)``.  On top of that, the signal picks up the
in-waveguide phase ``2 pi (x_n - x_0) / lambda_g`` and, with lossy waveguides,
an amplitude attenuation ``10^(-alpha (x_n - x_0) / 20)`` accumulated from the
feed point.
"""

from __future__ import annotations

import math

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
    ``alpha`` (dB/m).  Phase and loss run from the feed, as
    :func:`~passgain.geometry.resolve_feed` places it for each layout."""
    offsets = np.asarray(offsets, dtype=float)
    run = offsets - resolve_feed(cfg, offsets[..., :1])
    phi = 2.0 * math.pi * run / cfg.lambda_g
    att = 10.0 ** (-alpha * run / 20.0)
    total = np.sum(att * los_channel(offsets, cfg) * np.exp(-1j * phi), axis=-1)
    return abs_squared(total) / offsets.shape[-1]


def array_gain_exact(
    layout: AntennaLayout,
    cfg: SystemConfig,
    alpha_wg: float | None = None,
) -> float:
    """Exact array gain (received SNR over transmit SNR) of a layout.

    Equal power split over the N antennas:
    ``a = |sum_n att_n h_n exp(-j phi_n)|^2 / N``.  With zero loss the value is
    independent of the feed position because the common in-waveguide phase from
    the feed to the array has unit modulus.  ``alpha_wg`` overrides the
    configured waveguide loss, so one layout can be scored under both the
    lossless and the lossy configuration.
    """
    alpha = cfg.alpha_wg_db_per_m if alpha_wg is None else alpha_wg
    return float(gain_at_offsets(np.asarray(layout.positions) - cfg.x_u_m, cfg, alpha))
