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
of S spacings.  An array is solved as one (S, N, N) stack: one ``eigh`` call,
contracted against its eigenvectors without forming ``C^(-1/2)``, and the
channel taken at the offsets ``+/-(k - 1/2) delta`` from the user, so the
result does not depend on where the user stands.  A stack holds S N^2
entries; the caller picks S.

Public: EIG_FLOOR, coupling_matrix, gain_mc, gain_mc_two_closed, f_mc.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .channel import _antenna_terms
from .errors import ConfigError
from .geometry import SystemConfig, _symmetric_offsets, _uniform_spacings

# Coupling-matrix eigenvalues below this are floored before the -1/2 power.
EIG_FLOOR = 1e-10


def coupling_matrix(n: int, delta, cfg: SystemConfig) -> np.ndarray:
    """Symmetric Toeplitz coupling matrix for N antennas at uniform spacing
    ``delta`` (m); a 1-D array of S spacings gives the (S, N, N) stack."""
    i = np.arange(n)
    # sin(k0 delta i) / (k0 delta i) is numpy's sinc of 2 (delta / lambda) i
    first_rows = np.sinc(2.0 * (_uniform_spacings(n, delta) / cfg.wavelength)[..., None] * i)
    return first_rows[..., abs(i[:, None] - i)]


def gain_mc(n: int, delta, cfg: SystemConfig):
    """Coupling-aware gain |h^T C^(-1/2) phi|^2 / N of the uniform symmetric array.

    ``delta`` is one spacing (m), giving a float, or a 1-D array of S
    spacings, giving an array: the S coupling matrices are solved as one
    (S, N, N) stack, so the caller bounds S N^2.  Over the eigenpairs
    (w_k, v_k) of C the sum is ``sum_k (h.v_k)(phi.v_k) max(w_k, EIG_FLOOR)^-1/2``.
    The channel is taken at the offsets ``+/-(k - 1/2) delta`` from the user
    and the in-waveguide phases are referenced to the array center; the model
    is translation-invariant and the reference only contributes a unit-modulus
    factor.  Warns once per call, with the number of spacings, when the
    coupling spectrum had to be floored.
    """
    w, v = np.linalg.eigh(coupling_matrix(n, delta, cfg))
    h, phi = _antenna_terms(_symmetric_offsets(n, delta), cfg)
    terms = (h[..., None, :] @ v)[..., 0, :] * (phi[..., None, :] @ v)[..., 0, :]
    # not w ** -0.5: numpy's pow rounds per SIMD level, sqrt and division do not
    total = np.sum(terms / np.sqrt(np.maximum(w, EIG_FLOOR)), axis=-1)

    floored = np.any(w < EIG_FLOOR, axis=-1)
    if floored.any():
        hit = np.asarray(delta, dtype=float)[floored]
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
    spacing x >= 0 in wavelengths, for finite n_eff >= 1; f_mc(0) = 1/2."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x < np.inf)):
        raise ConfigError("spacing must be finite and >= 0")
    if not 1.0 <= n_eff < math.inf:
        raise ConfigError(f"n_eff must be finite and >= 1, got {n_eff}")
    out = np.square(np.cos(math.pi * n_eff * x)) / (1.0 + np.sinc(2.0 * x))
    return float(out) if out.ndim == 0 else out
