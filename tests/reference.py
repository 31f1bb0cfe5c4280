"""Test-only reference formulas that the library itself does not need."""

import math

import numpy as np

from passgain.errors import ConfigError
from passgain.channel import _nested_gains as nested_gains
from passgain.channel import _pair_phasors as pair_phasors
from passgain.channel import array_gain_exact
from passgain.geometry import _resolve_feed as resolve_feed


def pair_gains(delta_right, delta_left, cfg, alpha):
    """Exact gains of all nested symmetric-count layouts from the per-side
    offsets of antennas 1..M: entry m-1 is the gain of the innermost m pairs,
    loss referenced to the user's projection, while the outermost left antenna
    gains fewer than 100 decades there (one block of ``nested_gains``)."""
    gains, scale = nested_gains(pair_phasors(delta_right, delta_left, cfg), cfg, alpha)
    assert not scale.any(), "more than one block of loss"
    return gains


def direct_gains(delta_right, delta_left, cfg, counts):
    """Gains and phase-free bounds of the layouts of the innermost m pairs, for
    m in ``counts``, by the direct sum :func:`array_gain_exact`, each layout
    fed where ``cfg`` puts its feed, so every loss factor is <= 1, under the
    loss ``cfg.alpha_wg_db_per_m``."""
    gains, bounds = [], []
    for m in counts:
        off = np.concatenate([-np.asarray(delta_left[:m])[::-1], delta_right[:m]])
        gains.append(array_gain_exact(off, cfg))
        att = 10.0 ** (-cfg.alpha_wg_db_per_m * (off - resolve_feed(cfg, off[0])) / 20.0)
        bounds.append(cfg.eta * np.sum(att / np.hypot(off, cfg.d_m)) ** 2 / off.size)
    return np.array(gains), np.array(bounds)


def scaled_accumulate_loop(ufunc, values, scale):
    """The running ``ufunc`` of ``_scaled_accumulate``, one run at a time: each
    run of equal scale accumulates in its own units, after the total before it
    times ``10**(previous - scale)``."""
    out = ufunc.accumulate(values)
    if scale[0] == scale[-1]:  # one run
        return out
    starts = np.flatnonzero(np.diff(scale)) + 1
    for a, b in zip(starts, [*starts[1:], values.size]):
        carry = out[a - 1] * 10.0 ** (scale[a - 1] - scale[a])
        out[a:b] = ufunc(ufunc.accumulate(values[a:b]), carry)
    return out


def mp_gain_mc(n, spacing, cfg, digits=50):
    """The coupling-aware gain |h^T C^(-1/2) phi|^2 / N of the uniform symmetric
    array at ``spacing`` (m), in mpmath at ``digits`` digits from the float
    inputs: the full sinc-Toeplitz C, its root by ``eigsy``, no floor."""
    import mpmath as mp
    with mp.workdps(digits):
        k0, s = mp.mpf(cfg.k0), mp.mpf(spacing)
        off = [(k - n // 2 + mp.mpf(1) / 2) * s for k in range(n)]
        c = mp.matrix(n, n)
        for a in range(n):
            for b in range(n):
                c[a, b] = mp.sin(k0 * s * abs(a - b)) / (k0 * s * abs(a - b)) if a != b else 1
        w, v = mp.eigsy(c)
        root = v * mp.diag([1 / mp.sqrt(e) for e in w]) * v.T
        r = [mp.sqrt(o * o + mp.mpf(cfg.d_m) ** 2) for o in off]
        h = mp.matrix([[mp.sqrt(mp.mpf(cfg.eta)) * mp.exp(-1j * k0 * ri) / ri for ri in r]])
        phi = mp.matrix([mp.exp(-1j * k0 * cfg.n_eff * o) for o in off])
        return float(abs((h * root * phi)[0]) ** 2 / n)


def gain_two_uncoupled(delta, cfg):
    """Coupling-free two-antenna gain 2 eta cos^2(n_eff k0 delta / 2) / (d^2 + delta^2/4);
    at delta = 0 this is exactly 2 eta / d^2."""
    if delta < 0:
        raise ConfigError("spacing must be >= 0")
    num = 2.0 * cfg.eta * math.cos(cfg.n_eff * cfg.k0 * delta / 2.0) ** 2
    return num / (cfg.d_m**2 + delta**2 / 4.0)
