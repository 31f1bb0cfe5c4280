"""Test-only reference formulas that the library itself does not need."""

import math

from passgain.errors import ConfigError
from passgain.experiments import _pair_phasors, _phasor_gains


def pair_gains(delta_right, delta_left, cfg, alpha):
    """Exact gains of all nested symmetric-count layouts from the per-side
    offsets of antennas 1..M: entry m-1 is the gain of the innermost m pairs,
    loss referenced to the user's projection (see ``_phasor_gains``)."""
    return _phasor_gains(_pair_phasors(delta_right, delta_left, cfg), cfg, alpha)


def gain_two_uncoupled(delta, cfg):
    """Coupling-free two-antenna gain 2 eta cos^2(n_eff k0 delta / 2) / (d^2 + delta^2/4);
    at delta = 0 this is exactly 2 eta / d^2."""
    if delta < 0:
        raise ConfigError("spacing must be >= 0")
    num = 2.0 * cfg.eta * math.cos(cfg.n_eff * cfg.k0 * delta / 2.0) ** 2
    return num / (cfg.d_m**2 + delta**2 / 4.0)
