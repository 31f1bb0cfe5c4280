"""Mutual-coupling-aware array gain for closely spaced pinching antennas.

Coupling between antennas on the common waveguide is modeled by the symmetric
Toeplitz matrix ``C`` with unit diagonal and entries
``J(n) = sinc(k0 * spacing * (n-1))`` (unnormalized sinc, sin x / x).  The
effective channel is ``C^(-1/2) h``, so the gain of the uniformly spaced
symmetric array becomes ``|h^T C^(-1/2) phi|^2 / N``.  At half-wavelength
spacing ``C`` is the identity and coupling vanishes; as the spacing shrinks
``C`` approaches a rank-one matrix and its small eigenvalues must be floored
before inversion.

:func:`coupling_matrix` and :func:`gain_mc` take one spacing or a 1-D array
of S spacings.  ``h`` is even on the symmetric layout, so only ``Re phi`` and
the N/2 x N/2 block ``C_e[k, l] = J(|k - l| + 1) + J(k + l + 2)`` reach the
gain (Cantoni & Butler 1976), and the floor acts on ``C_e``.  An array is one
(S, N/2, N/2) stack: one ``eigh`` call, contracted against its eigenvectors,
with the channel at the offsets ``(k - 1/2) delta`` from the user, so the result
does not depend on where the user stands.  A stack holds S (N/2)^2 entries and
:func:`coupling_matrix` S N^2; the caller picks S, and either count past
``MAX_SWEEP_SIZE`` is refused before anything is allocated.  Both functions
check the count, the spacings and that size once, with
``geometry._uniform_spacings``; ``_sinc_rows`` and ``geometry._half_offsets``
take them unchecked.

Public: EIG_FLOOR, coupling_matrix, gain_mc, gain_mc_two_closed, f_mc.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .channel import _antenna_terms
from .errors import ConfigError
from .geometry import SystemConfig, _check_domain, _half_offsets, _uniform_spacings

# Coupling-matrix eigenvalues below this are floored before the -1/2 power.
EIG_FLOOR = 1e-10


def _sinc_rows(n: int, delta: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """``J(1..n)``: sin(k0 delta i) / (k0 delta i), numpy's sinc of 2 (delta / lambda) i,
    for spacings ``delta`` that :func:`~passgain.geometry._uniform_spacings` returned."""
    return np.sinc(2.0 * (delta / cfg.wavelength)[..., None] * np.arange(n))


def coupling_matrix(n: int, delta, cfg: SystemConfig) -> np.ndarray:
    """Symmetric Toeplitz coupling matrix for N antennas at uniform spacing
    ``delta`` (m); a 1-D array of S spacings gives the (S, N, N) stack, of at
    most ``MAX_SWEEP_SIZE`` entries."""
    delta = _uniform_spacings(n, delta, n * n, "coupling-matrix entries")
    i = np.arange(n)
    return _sinc_rows(n, delta, cfg)[..., abs(i[:, None] - i)]


def gain_mc(n: int, delta, cfg: SystemConfig):
    """Coupling-aware gain |h^T C^(-1/2) phi|^2 / N of the uniform symmetric array.

    ``delta`` is one spacing (m), giving a float, or a 1-D array of S
    spacings, giving an array: the S blocks ``C_e`` are solved as one
    (S, N/2, N/2) stack, so S (N/2)^2 may not pass ``MAX_SWEEP_SIZE``.  Over
    the eigenpairs (w_k, v_k) of ``C_e`` and the right halves h+, phi+ of the
    channel and phases the sum is ``2 sum_k (h+.v_k)(Re phi+.v_k) max(w_k, EIG_FLOOR)^-1/2``, with
    the offsets ``(k - 1/2) delta`` from the user and the phases referenced to
    the array center, a reference that only scales the sum by a unit modulus.
    Warns once per call, with the number of spacings, when ``C_e`` was floored.
    """
    delta = _uniform_spacings(n, delta, (n // 2) ** 2, "coupling-block entries")
    k, rows = np.arange(n // 2), _sinc_rows(n, delta, cfg)
    w, v = np.linalg.eigh(rows[..., abs(k[:, None] - k)] + rows[..., k[:, None] + k + 1])
    h, phi = _antenna_terms(_half_offsets(n, delta), cfg)
    terms = (h[..., None, :] @ v)[..., 0, :] * (phi.real[..., None, :] @ v)[..., 0, :]
    # not w ** -0.5: numpy's pow rounds per SIMD level, sqrt and division do not
    total = 2.0 * np.sum(terms / np.sqrt(np.maximum(w, EIG_FLOOR)), axis=-1)

    floored = np.any(w < EIG_FLOOR, axis=-1)
    if floored.any():
        hit = delta[floored]
        warnings.warn(f"coupling matrix near-singular at {hit.size} of {floored.size} spacing(s) "
                      f"(smallest {hit.min():.3e} m): eigenvalues floored at {EIG_FLOOR:g}",
                      RuntimeWarning, stacklevel=2)
    gains = np.square(np.abs(total)) / n
    return float(gains) if gains.ndim == 0 else gains


def gain_mc_two_closed(delta, cfg: SystemConfig):
    """Closed-form coupling-aware gain of the two-antenna array,
    2 eta f_mc(delta / lambda, n_eff) / (d^2 + delta^2/4), for one spacing
    (a float) or a 1-D array of them."""
    delta = np.asarray(delta, dtype=float)
    out = 2.0 * cfg.eta * f_mc(delta / cfg.wavelength, cfg.n_eff) / (cfg.d_m**2 + delta**2 / 4)
    return float(out) if out.ndim == 0 else out


def f_mc(x, n_eff: float):
    """Coupling shape function cos^2(pi n_eff x) / (1 + j0(2 pi x)) of the
    spacing x >= 0 in wavelengths, for n_eff in the scenario domain's range
    (:class:`~passgain.geometry.SystemConfig`); f_mc(0) = 1/2."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x < np.inf)):
        raise ConfigError("spacing must be finite and >= 0")
    _check_domain("n_eff", n_eff)
    out = np.square(np.cos(math.pi * n_eff * x)) / (1.0 + np.sinc(2.0 * x))
    return float(out) if out.ndim == 0 else out
