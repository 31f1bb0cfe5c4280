"""Mutual-coupling-aware array gain for closely spaced pinching antennas.

Coupling between antennas on the common waveguide is modeled by the symmetric
Toeplitz matrix ``C`` with unit diagonal and entries
``J(n) = sinc(k0 * spacing * (n-1))`` (unnormalized sinc, sin x / x).  The
effective channel is ``C^(-1/2) h``, so the gain of the uniformly spaced
symmetric array becomes ``|h^T C^(-1/2) phi|^2 / N``.  At half-wavelength
spacing ``C`` is the identity and coupling vanishes; as the spacing shrinks
``C`` approaches a rank-one matrix and its small eigenvalues must be floored
before inversion.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .geometry import DerivedConstants, SystemConfig, symmetric_uniform_layout


def sinc_j0(x):
    """sin(x)/x with a series fallback 1 - x^2/6 + x^4/120 for |x| < 1e-4."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x**2 / 6.0 + x**4 / 120.0, np.sin(safe) / safe)
    return float(out) if out.ndim == 0 else out


def coupling_matrix(n: int, delta: float, consts: DerivedConstants) -> np.ndarray:
    """Symmetric Toeplitz coupling matrix for N antennas at uniform spacing
    ``delta`` (m)."""
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"antenna count must be even and >= 2, got {n}")
    if not delta > 0:
        raise ConfigError("spacing must be > 0; use the closed-form limit for delta = 0")
    i = np.arange(n)
    first_row = sinc_j0(consts.k0 * delta * i)
    return first_row[abs(i[:, None] - i)]


class InverseSqrt(NamedTuple):
    matrix: np.ndarray
    floored: int


def inv_sqrt(c: np.ndarray, eig_floor: float = 1e-10) -> InverseSqrt:
    """Inverse matrix square root via the spectral decomposition.

    Eigenvalues below ``eig_floor`` are floored before the -1/2 power; the
    count of floored eigenvalues is returned so near-singular coupling at tiny
    spacing is visible to the caller.
    """
    w, v = np.linalg.eigh(c)
    floored = int(np.sum(w < eig_floor))
    w_safe = np.maximum(w, eig_floor)
    return InverseSqrt(matrix=(v * w_safe**-0.5) @ v.T, floored=floored)


def gain_mc(
    n: int,
    delta: float,
    cfg: SystemConfig,
    consts: DerivedConstants,
    eig_floor: float = 1e-10,
) -> float:
    """Coupling-aware gain |h^T C^(-1/2) phi|^2 / N of the uniform symmetric array.

    In-waveguide phases are referenced to the array center; the reference only
    contributes a unit-modulus factor and leaves the magnitude unchanged.
    Warns when the coupling spectrum had to be floored.
    """
    layout = symmetric_uniform_layout(cfg, n, delta)
    x = np.asarray(layout.positions)
    r = np.hypot(cfg.x_u_m - x, cfg.d_m)
    h = math.sqrt(consts.eta) * np.exp(-1j * consts.k0 * r) / r
    phi_vec = np.exp(-1j * consts.k0 * cfg.n_eff * (x - cfg.x_u_m))

    root = inv_sqrt(coupling_matrix(n, delta, consts), eig_floor=eig_floor)
    if root.floored:
        warnings.warn(
            f"coupling matrix near-singular at spacing {delta:.3e} m: "
            f"{root.floored} eigenvalue(s) floored at {eig_floor:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(abs(h @ root.matrix @ phi_vec) ** 2 / n)


def gain_mc_two_closed(delta: float, cfg: SystemConfig, consts: DerivedConstants) -> float:
    """Closed-form coupling-aware gain of the two-antenna array:
    2 eta cos^2(n_eff k0 delta / 2) / ((d^2 + delta^2/4) (1 + j0(k0 delta)))."""
    if delta < 0:
        raise ConfigError("spacing must be >= 0")
    num = 2.0 * consts.eta * math.cos(cfg.n_eff * consts.k0 * delta / 2.0) ** 2
    den = (cfg.d_m**2 + delta**2 / 4.0) * (1.0 + sinc_j0(consts.k0 * delta))
    return num / den


def gain_mc_two_approx(delta: float, cfg: SystemConfig, consts: DerivedConstants) -> float:
    """Two-antenna coupling-aware gain with the spacing term dropped from the
    denominator (valid for delta << d): (2 eta / d^2) f_mc(delta / wavelength)."""
    if delta < 0:
        raise ConfigError("spacing must be >= 0")
    return 2.0 * consts.eta / cfg.d_m**2 * f_mc(delta / consts.wavelength, cfg.n_eff)


def gain_two_uncoupled(delta: float, cfg: SystemConfig, consts: DerivedConstants) -> float:
    """Coupling-free two-antenna gain 2 eta cos^2(n_eff k0 delta / 2) / (d^2 + delta^2/4);
    at delta = 0 this is exactly 2 eta / d^2."""
    if delta < 0:
        raise ConfigError("spacing must be >= 0")
    num = 2.0 * consts.eta * math.cos(cfg.n_eff * consts.k0 * delta / 2.0) ** 2
    return num / (cfg.d_m**2 + delta**2 / 4.0)


def f_mc(x, n_eff: float):
    """Coupling shape function cos^2(pi n_eff x) / (1 + j0(2 pi x)) of the
    spacing in wavelengths; f_mc(0) = 1/2."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("spacing must be >= 0")
    out = np.cos(math.pi * n_eff * x) ** 2 / (1.0 + sinc_j0(2.0 * math.pi * x))
    return float(out) if out.ndim == 0 else out
