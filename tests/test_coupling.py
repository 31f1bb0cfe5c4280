import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from passgain.channel import array_gain_exact
from passgain.coupling import (
    EIG_FLOOR,
    coupling_matrix,
    f_mc,
    gain_mc,
    gain_mc_two_closed,
)
from passgain.errors import ConfigError
from passgain.geometry import symmetric_uniform_layout
from reference import gain_two_uncoupled


def test_matrix_entries_are_sin_x_over_x(cfg):
    # J = sin(x)/x at x = k0 delta |m - n|; the argument's rounding moves it by
    # (1 + |x cot x|) ulps, so the bound is 1e-15 scaled by that condition number
    rng = np.random.default_rng(1)
    k = np.arange(1, 6)
    for spacing in rng.uniform(1e-3, 1.0, 100) * cfg.wavelength:
        c = coupling_matrix(6, spacing, cfg)
        assert np.all(np.diag(c) == 1.0)
        x = cfg.k0 * spacing * k
        cond = 1.0 + np.abs(x / np.tan(x))
        rel = np.abs(c[0, 1:] / (np.sin(x) / x) - 1.0)
        assert np.all(rel <= 1e-15 * cond), spacing
        assert np.all(rel[x <= 1.0] <= 1e-15), spacing


def test_half_wavelength_matrix_is_identity(cfg):
    lam = cfg.wavelength
    for n in (2, 4, 8):
        c = coupling_matrix(n, lam / 2, cfg)
        assert np.max(np.abs(c - np.eye(n))) < 1e-12


def test_two_antenna_matrix_structure(cfg):
    lam = cfg.wavelength
    c = coupling_matrix(2, lam / 4, cfg)
    assert c[0, 0] == 1.0 and c[1, 1] == 1.0
    assert c[0, 1] == c[1, 0] == pytest.approx(2 / math.pi, rel=1e-15)


def test_matrix_validation(cfg):
    with pytest.raises(ConfigError):
        coupling_matrix(3, 0.001, cfg)
    with pytest.raises(ConfigError):
        coupling_matrix(2, 0.0, cfg)


def channel_rows(n, spacing, cfg):
    """h and phi at the layout's antenna positions, as the model defines them."""
    pos = np.asarray(symmetric_uniform_layout(cfg, n, spacing).positions)
    r = np.hypot(cfg.x_u_m - pos, cfg.d_m)
    h = math.sqrt(cfg.eta) * np.exp(-1j * cfg.k0 * r) / r
    return h, np.exp(-1j * cfg.k0 * cfg.n_eff * (pos - cfg.x_u_m))


def test_half_wavelength_gain_has_the_identity_root(cfg):
    # C = I to 1e-12 at half a wavelength, so M = I is its inverse square root
    lam = cfg.wavelength
    c = coupling_matrix(4, lam / 2, cfg)
    m = np.eye(4)
    assert np.max(np.abs(m @ c @ m - np.eye(4))) < 1e-12
    h, phi = channel_rows(4, lam / 2, cfg)
    assert gain_mc(4, lam / 2, cfg) == pytest.approx(abs(h @ m @ phi) ** 2 / 4, rel=1e-12)


def test_two_antenna_gain_through_the_spectral_root(cfg):
    # C = [[1, J], [J, 1]] has eigenvalues 1 +/- J on (1, +/-1) / sqrt(2)
    lam = cfg.wavelength
    for x in (0.05, 0.25, 0.4, 0.7):
        c = coupling_matrix(2, x * lam, cfg)
        j2 = c[0, 1]
        sp, sm = 1 / math.sqrt(1 + j2), 1 / math.sqrt(1 - j2)
        m = np.array([[sp + sm, sp - sm], [sp - sm, sp + sm]]) / 2
        assert np.max(np.abs(m @ c @ m - np.eye(2))) < 1e-12
        h, phi = channel_rows(2, x * lam, cfg)
        assert gain_mc(2, x * lam, cfg) == pytest.approx(abs(h @ m @ phi) ** 2 / 2, rel=1e-12)


def test_gain_mc_against_a_30_digit_root(cfg):
    # M = C^(-1/2) built by mpmath at 30 digits from the float matrix; with
    # every eigenvalue above 1e-6 (none floored) gain_mc holds to 1e-12
    # relative (2e-13 seen at lambda_min = 8e-6)
    mp = pytest.importorskip("mpmath")
    lam = cfg.wavelength
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        n = int(rng.choice([4, 6, 8]))
        spacing = float(rng.uniform(0.05, 1.0)) * lam
        c = coupling_matrix(n, spacing, cfg)
        if np.linalg.eigvalsh(c).min() <= 1e-6:
            continue
        checked += 1
        h, phi = (mp.matrix([[mp.mpc(z.real, z.imag) for z in row]])
                  for row in channel_rows(n, spacing, cfg))
        with mp.workdps(30):
            cm = mp.matrix(c.tolist())
            w, v = mp.eigsy(cm)
            m = v * mp.diag([1 / mp.sqrt(e) for e in w]) * v.T
            assert mp.mnorm(m * cm * m - mp.eye(n), 1) < 1e-25
            want = float(abs((h * m * phi.T)[0]) ** 2 / n)
        assert abs(gain_mc(n, spacing, cfg) - want) <= 1e-12 * want


def test_eigenvalues_sum_to_count(cfg):
    lam = cfg.wavelength
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = 2 * int(rng.integers(1, 5))
        c = coupling_matrix(n, float(rng.uniform(0.02, 1.5)) * lam, cfg)
        assert np.linalg.eigvalsh(c).sum() == pytest.approx(n, rel=1e-12)


def test_matrix_path_matches_closed_form(cfg):
    lam = cfg.wavelength
    for x in np.linspace(0.05, 1.0, 50):
        a_matrix = gain_mc(2, float(x) * lam, cfg)
        a_closed = gain_mc_two_closed(float(x) * lam, cfg)
        assert abs(a_matrix - a_closed) / a_closed < 1e-9


def test_half_wavelength_equals_uncoupled_gain(cfg):
    lam = cfg.wavelength
    a_mc = gain_mc(2, lam / 2, cfg)
    lay = symmetric_uniform_layout(cfg, 2, lam / 2)
    a_free = array_gain_exact(lay, cfg)
    assert abs(a_mc - a_free) / a_free < 1e-9


def test_vanishing_spacing_limit(cfg):
    lam = cfg.wavelength
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a0 = gain_mc(2, 1e-6 * lam, cfg)
    assert any("floored" in str(w.message) for w in caught)
    assert a0 == pytest.approx(cfg.eta / cfg.d_m**2, rel=1e-3)


def test_closed_form_values(cfg):
    lam = cfg.wavelength
    # coupling halves the collapsed-pair gain
    assert gain_mc_two_closed(0.0, cfg) == pytest.approx(
        cfg.eta / cfg.d_m**2, rel=1e-12
    )
    assert gain_two_uncoupled(0.0, cfg) == 2 * cfg.eta / cfg.d_m**2
    # half-wavelength spacing: j0(pi) = 0, cos^2(0.72 pi) = 0.4063
    expected = 2 * cfg.eta * 0.4063 / (cfg.d_m**2 + lam**2 / 16)
    assert gain_mc_two_closed(lam / 2, cfg) == pytest.approx(expected, rel=1e-3)


def test_approximation_drops_spacing_term(cfg):
    lam = cfg.wavelength
    for x in (0.1, 0.5, 0.9):
        exact = gain_mc_two_closed(x * lam, cfg)
        # (2 eta / d^2) f_mc: the closed form with delta^2 / 4 dropped beside d^2
        approx = 2 * cfg.eta / cfg.d_m**2 * f_mc(x * lam / lam, cfg.n_eff)
        # spacing is centimetres against a 3 m height
        assert approx == pytest.approx(exact, rel=1e-5)
        assert approx == pytest.approx(
            2 * cfg.eta / cfg.d_m**2 * f_mc(x, cfg.n_eff), rel=1e-12
        )


def test_fmc_values():
    assert f_mc(0.0, 1.44) == 0.5
    xs = np.arange(1, 10001) * 1e-4
    vals = f_mc(xs, 1.44)
    i = int(np.argmax(vals))
    assert xs[i] == pytest.approx(0.70, abs=0.02)
    assert vals[i] == pytest.approx(1.27, abs=0.02)
    assert vals[i] > 1.0


def test_spacing_gain_not_monotone(cfg):
    # interior optimum of the coupling-aware pair beats both landmarks
    lam = cfg.wavelength
    xs = np.linspace(0.01, 1.0, 400)
    vals = np.array([gain_mc_two_closed(float(x) * lam, cfg) for x in xs])
    i = int(np.argmax(vals))
    assert 0 < i < len(xs) - 1
    a_half = gain_mc_two_closed(lam / 2, cfg)
    assert vals[i] > max(a_half, cfg.eta / cfg.d_m**2)
    # rises after an earlier fall somewhere on the interval
    assert np.any(np.diff(vals) < 0) and np.any(np.diff(vals) > 0)


def test_gain_mc_rejects_bad_input(cfg):
    with pytest.raises(ConfigError):
        gain_mc(5, 0.001, cfg)
    with pytest.raises(ConfigError):
        gain_mc_two_closed(-0.1, cfg)


# ------------------------------------------------------- stacked eigensolve


def spacing_grid(cfg, step=0.01):
    return (1e-3 + step * np.arange(0, 100)) * cfg.wavelength


@pytest.mark.parametrize("n", [2, 4, 6, 8, 16, 32])
def test_gain_mc_array_equals_scalar_calls(cfg, n):
    spacings = spacing_grid(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the floored region
        batched = gain_mc(n, spacings, cfg)
        single = np.array([gain_mc(n, float(s), cfg) for s in spacings])
    assert batched.shape == spacings.shape
    wide = spacings >= 0.5 * cfg.wavelength
    np.testing.assert_allclose(batched[wide], single[wide], rtol=1e-13, atol=0)
    if n < 8:
        np.testing.assert_allclose(batched[~wide], single[~wide], rtol=1e-10, atol=0)


def test_scalar_spacing_returns_float(cfg):
    lam = cfg.wavelength
    assert type(gain_mc(4, 0.6 * lam, cfg)) is float
    assert type(gain_mc_two_closed(0.6 * lam, cfg)) is float


def test_stacked_matrices_equal_single_ones(cfg):
    spacings = spacing_grid(cfg, step=0.1)
    stack = coupling_matrix(6, spacings, cfg)
    assert stack.shape == (spacings.size, 6, 6)
    for s, c in zip(spacings, stack):
        assert np.array_equal(c, coupling_matrix(6, float(s), cfg))


def test_closed_form_array_equals_scalar_calls(cfg):
    spacings = np.linspace(0.0, 1.0, 257) * cfg.wavelength
    closed = gain_mc_two_closed(spacings, cfg)
    assert np.array_equal(closed, [gain_mc_two_closed(float(s), cfg) for s in spacings])
    with pytest.raises(ConfigError):
        gain_mc_two_closed(np.array([0.1, -1e-9, 0.2]), cfg)


@pytest.mark.parametrize("bad", [0.0, -1e-3])
def test_array_with_bad_spacing_rejected(cfg, bad):
    spacings = spacing_grid(cfg)
    spacings[37] = bad
    with pytest.raises(ConfigError, match="spacing must be > 0"):
        gain_mc(4, spacings, cfg)
    with pytest.raises(ConfigError, match="spacing must be > 0"):
        coupling_matrix(4, spacings, cfg)


def test_array_with_odd_count_rejected(cfg):
    with pytest.raises(ConfigError, match="even"):
        gain_mc(5, spacing_grid(cfg), cfg)
    with pytest.raises(ConfigError, match="even"):
        coupling_matrix(7, spacing_grid(cfg), cfg)


def test_floor_warns_once_per_call_with_the_count(cfg):
    spacings = spacing_grid(cfg, step=0.005)[:40]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gain_mc(4, spacings, cfg)
    assert len(caught) == 1
    assert "floored" in str(caught[0].message)
    w = np.linalg.eigh(coupling_matrix(4, spacings, cfg))[0]
    floored = int(np.sum(np.any(w < EIG_FLOOR, axis=-1)))
    assert floored > 0 and f"at {floored} of 40 spacing(s)" in str(caught[0].message)


def test_gain_mc_ignores_the_user_position(cfg):
    # the channel is taken at offsets from the user: far out, where absolute
    # positions lose the sub-millimetre gaps, nothing changes
    spacings = spacing_grid(cfg)
    far = replace(cfg, x_u_m=1e5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.array_equal(gain_mc(4, spacings, far), gain_mc(4, spacings, cfg))
