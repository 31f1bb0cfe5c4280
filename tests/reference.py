"""Test-only reference formulas that the library itself does not need."""

import math

import numpy as np

from passgain.errors import ConfigError
from passgain.channel import gain_at_offsets, nested_gains, pair_phasors
from passgain.geometry import resolve_feed


def pair_gains(delta_right, delta_left, cfg, alpha):
    """Exact gains of all nested symmetric-count layouts from the per-side
    offsets of antennas 1..M: entry m-1 is the gain of the innermost m pairs,
    loss referenced to the user's projection, while the outermost left antenna
    gains fewer than 100 decades there (one block of ``nested_gains``)."""
    gains, scale = nested_gains(pair_phasors(delta_right, delta_left, cfg), cfg, alpha)
    assert not scale.any(), "more than one block of loss"
    return gains


def direct_gains(delta_right, delta_left, cfg, alpha, counts):
    """Gains and phase-free bounds of the layouts of the innermost m pairs, for
    m in ``counts``, by the direct sum :func:`gain_at_offsets`, each layout
    fed where ``cfg`` puts its feed, so every loss factor is <= 1."""
    gains, bounds = [], []
    for m in counts:
        off = np.concatenate([-np.asarray(delta_left[:m])[::-1], delta_right[:m]])
        gains.append(gain_at_offsets(off, cfg, alpha))
        att = 10.0 ** (-alpha * (off - resolve_feed(cfg, off[0])) / 20.0)
        bounds.append(cfg.eta * np.sum(att / np.hypot(off, cfg.d_m)) ** 2 / off.size)
    return np.array(gains), np.array(bounds)


def gain_two_uncoupled(delta, cfg):
    """Coupling-free two-antenna gain 2 eta cos^2(n_eff k0 delta / 2) / (d^2 + delta^2/4);
    at delta = 0 this is exactly 2 eta / d^2."""
    if delta < 0:
        raise ConfigError("spacing must be >= 0")
    num = 2.0 * cfg.eta * math.cos(cfg.n_eff * cfg.k0 * delta / 2.0) ** 2
    return num / (cfg.d_m**2 + delta**2 / 4.0)
