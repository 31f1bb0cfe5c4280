"""Closed-form array gains, upper bounds, and the optimal antenna count.

For a layout mirror-symmetric about the user, the exact gain collapses to a
sum over the positive-side offsets ``delta_n``:

    a = (eta / N) | sum_n 2 exp(-j k0 r_n) cos(k0 n_eff delta_n) / r_n |^2,
    r_n = sqrt(d^2 + delta_n^2).

Dropping all phases gives the triangle-inequality upper bound
``(eta / N) (sum_n 2 / r_n)^2``.  Both are taken by the pair kernel of
:mod:`passgain.channel`, as the sweeps take them.  For uniform spacing the
bound has the closed form ``2 eta f_ub(L) / (delta_p d^2 eps)`` with
``eps = wavelength / d``, ``L = N delta_p eps / 2`` and
``f_ub(x) = asinh(x)^2 / x``.  The bound is maximized at x*, the exact root of
``2x / sqrt(1 + x^2) = asinh(x)`` (held as :data:`XSTAR`, the float nearest
it), where ``f_ub(x*) ~ 1.105``, which pins down the optimal antenna count and
the overall gain ceiling.

Public: XSTAR, gain_symmetric, uniform_deltas, gain_uniform, uniform_integrand,
gain_uniform_integral, upper_bound_sum, upper_bound_sum_uniform, f_ub,
closed_bound_value, BoundReport, upper_bound_closed, optimal_antenna_number,
max_gain_estimate, gain_limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import _nested_gains, _pair_phasors
from .errors import ConfigError, NumericsError
from .geometry import (SystemConfig, _check_antenna_count, _half_offsets, _increasing_offsets,
                       _uniform_spacings)

# The maximizer of f_ub: the float nearest the root of d f_ub / dx, that is of
# 2x / sqrt(1 + x^2) = asinh(x), 3.31982638639514843392... (mpmath, 40 digits).
XSTAR = 3.3198263863951483
# Bounds of the panel quadrature in gain_uniform_integral: the largest spread
# of its two Gauss orders, relative to the phase-free sum, and the most
# integrand evaluations it may make, which bounds its whole cost.
_QUAD_REL_TOL = 1e-10
_QUAD_MAX_EVALS = 10**6


def _half_phasors(deltas, cfg: SystemConfig):
    """:func:`~passgain.channel._pair_phasors` of the mirror-symmetric layout
    with positive-side offsets ``deltas``, after checking them."""
    deltas = _increasing_offsets(deltas, "positive-side offsets")
    if deltas.ndim != 1 or not deltas[0] >= 0:
        raise ConfigError("positive-side offsets must be 1-D and non-negative")
    return _pair_phasors(deltas, None, cfg)


def gain_symmetric(deltas, cfg: SystemConfig) -> float:
    """Exact gain of a mirror-symmetric, lossless layout from its positive-side
    offsets (strictly increasing, n = 1..N/2): the last of its
    :func:`~passgain.channel._nested_gains`."""
    return float(_nested_gains(_half_phasors(deltas, cfg), cfg, 0.0)[0][-1])


def uniform_deltas(n: int, cfg: SystemConfig) -> np.ndarray:
    """Positive-side offsets (k - 1/2) * (delta_p * wavelength), k = 1..n/2, as layouts
    have, within MAX_SWEEP_SIZE pairs."""
    spacing = _uniform_spacings(n, cfg.delta_p * cfg.wavelength, n // 2, "antenna pairs")
    return _half_offsets(n, spacing)


def gain_uniform(n: int, cfg: SystemConfig) -> float:
    """Exact gain of the equally spaced symmetric layout with N antennas."""
    return gain_symmetric(uniform_deltas(n, cfg), cfg)


def uniform_integrand(x, cfg: SystemConfig):
    """Complex integrand of the continuum form of the uniform-spacing gain.

    In the scaled coordinate x (antenna offset in units of delta_p * d):
    ``2 exp(-j k0 d sqrt(1 + delta_p^2 x^2)) cos(k0 d delta_p n_eff x)
    / sqrt(1 + delta_p^2 x^2)``.
    """
    root = np.sqrt(1.0 + (cfg.delta_p * x) ** 2)
    k0d = cfg.k0 * cfg.d_m
    return 2.0 * np.exp(-1j * k0d * root) * np.cos(k0d * cfg.delta_p * cfg.n_eff * x) / root


def _image_tail(a: float, k: int) -> float:
    """Sum over |m| > k of (-1)^m / (a + m), for |a| < k.

    Equals pi / sin(pi a) minus the terms |m| <= k.  Where a sits at an
    integer -m0, the pole of pi / sin(pi a) cancels against the m = m0 term;
    that pair is taken in limit form, pi / sin(pi t) - 1/t ~ pi^2 t / 6 with
    t = a + m0 the distance to the integer.
    """
    m0 = round(a)
    t = a - m0
    if abs(t) < 1e-3:
        paired = math.pi**2 * t / 6.0 + 7.0 * math.pi**4 * t**3 / 360.0
    else:
        paired = math.pi / math.sin(math.pi * t) - 1.0 / t
    rest = sum((-1) ** m / (a + m) for m in range(-k, k + 1) if m != -m0)
    return (-1) ** m0 * paired - rest


def gain_uniform_integral(n: int, cfg: SystemConfig) -> float:
    """Continuum approximation of :func:`gain_uniform`, aliased lobes included.

    By Poisson summation the midpoint sum over the N/2 positive-side antennas
    at x_k = (k - 1/2) eps is exactly

        sum_k f(x_k) = (1/eps) sum_m (-1)^m int_0^B f(x) exp(j 2 pi m x / eps) dx,

    with f = :func:`uniform_integrand`, B = N eps / 2 and eps = wavelength / d.
    The m = 0 term alone is the paper's single integral; an image m holds a
    stationary (aliased) lobe wherever the phase advance per antenna,
    a = delta_p (+/- n_eff - sin theta) cycles with sin theta = delta / r,
    equals -m.  Only the -n_eff component can do so on the array, where
    0 <= sin theta < 1: image m is stationary at sin theta = m / delta_p - n_eff,
    so a spacing aliases into image m for m / (n_eff + 1) < delta_p < m / n_eff,
    and the lobe rises once the layout reaches the offset
    delta = d tan theta, at N ~ 2 delta / (delta_p wavelength) antennas (at
    delta_p = 0.5 and n_eff = 1.44: image 1, sin theta = 0.56, N ~ 758, just
    below the peak of :func:`gain_uniform` at N = 832).  Images up to
    |m| <= K = ceil(delta_p (n_eff + 1)) + 1 are integrated explicitly: each
    antenna cell of width eps is split into ceil(K + delta_p (n_eff + 1)) equal
    Gauss-Legendre panels, at most one cycle of the fastest phase each.  Their
    image factor ``1 + 2 sum_{m=1..K} (-1)^m cos(2 pi m x / eps)`` is taken in
    closed form, ``sin((2K + 1) pi r) / sin(pi r)`` with r = x / eps + 1/2
    reduced to [-1/2, 1/2] (and 2K + 1 at r = 0), so a node costs the same at
    any K and ``_QUAD_MAX_EVALS`` bounds the whole cost.  Every
    further image contributes only its endpoint term; summed over |m| > K in
    closed form with sum_m (-1)^m / (a + m) = pi / sin(pi a), they give
    [exp(j phi) / (2 pi j sqrt(1 + delta_p^2 x^2)) * tail(a)] from 0 to B per
    cosine component (the image factors exp(j 2 pi m x / eps) are 1 at both
    ends).

    The panels are integrated at two Gauss orders; if they disagree by more
    than ``_QUAD_REL_TOL`` of the phase-free sum, or would need more than
    ``_QUAD_MAX_EVALS`` integrand evaluations, :class:`NumericsError` is raised.
    """
    _check_antenna_count(n)
    dp, ne = cfg.delta_p, cfg.n_eff
    k_img = math.ceil(dp * (ne + 1.0)) + 1
    eps = cfg.wavelength / cfg.d_m
    upper = n * eps / 2.0
    panels = (n // 2) * math.ceil(k_img + dp * (ne + 1.0))
    orders = (16, 24)
    if panels * sum(orders) > _QUAD_MAX_EVALS:
        raise NumericsError(
            f"panel quadrature for N={n} needs {panels * sum(orders)} evaluations, "
            f"above {_QUAD_MAX_EVALS}"
        )

    edges = np.linspace(0.0, upper, panels + 1)
    width = np.diff(edges)[:, None]
    estimates = []
    for order in orders:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        x = (edges[:-1, None] + width * (nodes + 1.0) / 2.0).ravel()
        r = x / eps + 0.5  # the image factor has period 1 in r: reduced to [-1/2, 1/2]
        r -= np.round(r)
        images = np.divide(np.sin((2 * k_img + 1) * math.pi * r), np.sin(math.pi * r),
                           out=np.full_like(r, 2.0 * k_img + 1), where=r != 0.0)
        values = (uniform_integrand(x, cfg) * images).reshape(panels, order)
        estimates.append(np.sum(values * weights * width) / (2.0 * eps))
    spread = abs(estimates[1] - estimates[0]) / (2.0 * math.asinh(dp * upper) / (dp * eps))
    if not spread <= _QUAD_REL_TOL:
        raise NumericsError(
            f"panel quadrature did not converge for N={n}: orders {orders} differ by "
            f"{spread:.1e} of the phase-free sum"
        )
    k0d = cfg.k0 * cfg.d_m

    def endpoint(x: float) -> complex:
        root = math.sqrt(1.0 + (dp * x) ** 2)
        total = 0j
        for sign in (1.0, -1.0):
            phi = k0d * (sign * dp * ne * x - root)
            a = dp * (sign * ne - dp * x / root)
            total += complex(math.cos(phi), math.sin(phi)) * _image_tail(a, k_img)
        return total / (2j * math.pi * root)

    summed = complex(estimates[1]) + endpoint(upper) - endpoint(0.0)
    return float(cfg.eta * abs(summed) ** 2 / (n * cfg.d_m**2))


def upper_bound_sum(deltas, cfg: SystemConfig) -> float:
    """Phase-free upper bound (eta / N) (sum_n 2 / r_n)^2 on the symmetric gain:
    :func:`gain_symmetric` with every pair phasor set to 1."""
    ph = _half_phasors(deltas, cfg)._replace(er=1.0, el=1.0)
    return float(_nested_gains(ph, cfg, 0.0)[0][-1])


def upper_bound_sum_uniform(n: int, cfg: SystemConfig) -> float:
    """Phase-free upper bound evaluated on the equally spaced layout."""
    return upper_bound_sum(uniform_deltas(n, cfg), cfg)


def f_ub(x):
    """Bound shape function asinh(x)^2 / x (= ln(sqrt(1+x^2)+x)^2 / x), x > 0."""
    x = np.asarray(x, dtype=float)
    if not np.all((x > 0) & (x < np.inf)):
        raise ConfigError("f_ub is defined for finite x > 0")
    out = np.arcsinh(x) ** 2 / x
    return float(out) if out.ndim == 0 else out


def closed_bound_value(n, cfg: SystemConfig):
    """Closed-form upper bound 2 eta f_ub(L) / (delta_p d^2 eps); vectorized in n."""
    n = np.asarray(n, dtype=float)
    eps = cfg.wavelength / cfg.d_m
    L = n * cfg.delta_p * eps / 2.0
    if not np.all((L > 0) & (L < np.inf)):
        raise ConfigError("antenna count must be positive, with a finite aperture")
    return 2.0 * cfg.eta * f_ub(L) / (cfg.delta_p * cfg.d_m**2 * eps)


@dataclass(frozen=True)
class BoundReport:
    """Uniform-spacing gain and its discrete and closed-form upper bounds."""

    a_uni: float
    a_hat_sum: float
    a_hat_closed: float

    def __post_init__(self):
        if self.a_uni > self.a_hat_sum * (1.0 + 1e-9):
            raise NumericsError(
                f"uniform gain {self.a_uni} exceeds its phase-free bound {self.a_hat_sum}"
            )


def upper_bound_closed(n: int, cfg: SystemConfig) -> BoundReport:
    """Exact uniform gain alongside its discrete and closed bounds at count N:
    :func:`gain_uniform` and :func:`upper_bound_sum_uniform` from one layout's
    phasors, the bound's set to 1."""
    ph = _half_phasors(uniform_deltas(n, cfg), cfg)
    sums = [float(_nested_gains(p, cfg, 0.0)[0][-1]) for p in (ph, ph._replace(er=1.0, el=1.0))]
    return BoundReport(*sums, a_hat_closed=float(closed_bound_value(n, cfg)))


def optimal_antenna_number(cfg: SystemConfig) -> int:
    """Even antenna count with the largest closed bound: of the even counts
    on either side of its real maximizer 2 x* d / (delta_p wavelength), at
    least 2, the one with the larger :func:`closed_bound_value` (the smaller on
    a tie).  The bound is unimodal in N, so no other even count does better."""
    lo = max(2, 2 * math.floor(XSTAR * cfg.d_m / (cfg.delta_p * cfg.wavelength)))
    below, above = closed_bound_value([lo, lo + 2], cfg)
    return lo + 2 if above > below else lo


def max_gain_estimate(cfg: SystemConfig) -> float:
    """Peak of the closed bound over N: 2 eta f_ub(x*) / (d delta_p wavelength)."""
    return 2.0 * cfg.eta * f_ub(XSTAR) / (cfg.d_m * cfg.delta_p * cfg.wavelength)


def gain_limit(cfg: SystemConfig) -> float:
    """Overall gain ceiling at the smallest coupling-free spacing (delta_p = 1/2):
    :func:`max_gain_estimate` there, about 4.42 eta / (d wavelength)."""
    return max_gain_estimate(replace(cfg, delta_p=0.5))
