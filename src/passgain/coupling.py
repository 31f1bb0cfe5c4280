"""Mutual-coupling-aware array gain for closely spaced pinching antennas.

Coupling between antennas on the common waveguide is modeled by the symmetric
Toeplitz matrix ``C`` with unit diagonal and entries
``J(n) = sinc(k0 * spacing * (n-1))`` (unnormalized sinc, sin x / x).  The
effective channel is ``C^(-1/2) h``, so the gain of the uniformly spaced
symmetric array becomes ``|h^T C^(-1/2) phi|^2 / N``.  At half-wavelength
spacing ``C`` is the identity and coupling vanishes; as the spacing shrinks
``C`` approaches a rank-one matrix and its small eigenvalues must be floored
before inversion.

:func:`coupling_matrix`, :func:`inv_sqrt` and :func:`gain_mc` take one spacing
or a 1-D array of S spacings.  An array is solved as one (S, N, N) stack: one
``eigh`` call, ``C^(-1/2) = (V W^(-1/2)) V^T`` by one stacked matmul, and the
channel taken at the offsets ``+/-(k - 1/2) delta`` from the user, so the
result does not depend on where the user stands.  A stack holds S N^2
entries; the caller picks S.

Public: EIG_FLOOR, coupling_matrix, inv_sqrt, gain_mc, gain_mc_two_closed, f_mc.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .channel import _abs_squared, _los_channel
from .errors import ConfigError
from .geometry import SystemConfig, _symmetric_offsets, _uniform_spacings

# Coupling-matrix eigenvalues below this are floored before the -1/2 power.
EIG_FLOOR = 1e-10


def _sinc_j0(x):
    """sin(x)/x, and 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x == 0, 1.0, x)
    out = np.where(x == 0, 1.0, np.sin(safe) / safe)
    return float(out) if out.ndim == 0 else out


def coupling_matrix(n: int, delta, cfg: SystemConfig) -> np.ndarray:
    """Symmetric Toeplitz coupling matrix for N antennas at uniform spacing
    ``delta`` (m); a 1-D array of S spacings gives the (S, N, N) stack."""
    i = np.arange(n)
    first_rows = _sinc_j0(cfg.k0 * _uniform_spacings(n, delta)[..., None] * i)
    return first_rows[..., abs(i[:, None] - i)]


class _InverseSqrt(NamedTuple):
    matrix: np.ndarray
    floored: int | np.ndarray


def inv_sqrt(c: np.ndarray) -> _InverseSqrt:
    """Inverse matrix square root via the spectral decomposition, of one
    matrix or of a stack (..., N, N) in a single ``eigh`` call.

    Eigenvalues below ``EIG_FLOOR`` are floored before the -1/2 power; the
    count of floored eigenvalues (an int for one matrix, an array for a
    stack) is returned so near-singular coupling at tiny spacing is visible
    to the caller.
    """
    w, v = np.linalg.eigh(c)
    floored = np.sum(w < EIG_FLOOR, axis=-1)
    w_safe = np.maximum(w, EIG_FLOOR)
    matrix = (v * w_safe[..., None, :] ** -0.5) @ np.swapaxes(v, -1, -2)
    return _InverseSqrt(matrix=matrix, floored=int(floored) if floored.ndim == 0 else floored)


def gain_mc(n: int, delta, cfg: SystemConfig):
    """Coupling-aware gain |h^T C^(-1/2) phi|^2 / N of the uniform symmetric array.

    ``delta`` is one spacing (m), giving a float, or a 1-D array of S
    spacings, giving an array: the S coupling matrices are solved as one
    (S, N, N) stack, so the caller bounds S N^2.  The channel is taken at the
    offsets ``+/-(k - 1/2) delta`` from the user and the in-waveguide phases
    are referenced to the array center; the model is translation-invariant
    and the reference only contributes a unit-modulus factor.  Warns once
    per call, with the number of spacings, when the coupling spectrum had to
    be floored.
    """
    root = inv_sqrt(coupling_matrix(n, delta, cfg))
    offsets = _symmetric_offsets(n, delta)
    h = _los_channel(offsets, cfg)
    phi_vec = np.exp(-1j * cfg.k0 * cfg.n_eff * offsets)
    h_root = (h[..., None, :] @ root.matrix)[..., 0, :]
    total = (h_root[..., None, :] @ phi_vec[..., :, None])[..., 0, 0]

    floored = np.asarray(root.floored) > 0
    if floored.any():
        hit = np.asarray(delta, dtype=float)[floored]
        warnings.warn(
            f"coupling matrix near-singular at {hit.size} of {floored.size} spacing(s) "
            f"(smallest {hit.min():.3e} m): eigenvalues floored at {EIG_FLOOR:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    gains = _abs_squared(total) / n
    return float(gains) if gains.ndim == 0 else gains


def gain_mc_two_closed(delta, cfg: SystemConfig):
    """Closed-form coupling-aware gain of the two-antenna array:
    2 eta cos^2(n_eff k0 delta / 2) / ((d^2 + delta^2/4) (1 + j0(k0 delta))),
    for one spacing (a float) or a 1-D array of them."""
    delta = np.asarray(delta, dtype=float)
    if not np.all((delta >= 0) & (delta < np.inf)):
        raise ConfigError("spacing must be finite and >= 0")
    # squares through libm pow, as Python's float ** 2, which keeps the CSV
    # bits of the point-by-point sweep (x * x can differ in the last bit)
    num = 2.0 * cfg.eta * np.float_power(np.cos(cfg.n_eff * cfg.k0 * delta / 2.0), 2)
    den = (cfg.d_m**2 + np.float_power(delta, 2) / 4.0) * (1.0 + _sinc_j0(cfg.k0 * delta))
    out = num / den
    return float(out) if out.ndim == 0 else out


def f_mc(x, n_eff: float):
    """Coupling shape function cos^2(pi n_eff x) / (1 + j0(2 pi x)) of the
    spacing x >= 0 in wavelengths, for finite n_eff >= 1; f_mc(0) = 1/2."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x < np.inf)):
        raise ConfigError("spacing must be finite and >= 0")
    if not 1.0 <= n_eff < math.inf:
        raise ConfigError(f"n_eff must be finite and >= 1, got {n_eff}")
    out = np.cos(math.pi * n_eff * x) ** 2 / (1.0 + _sinc_j0(2.0 * math.pi * x))
    return float(out) if out.ndim == 0 else out
