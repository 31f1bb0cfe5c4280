import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from passgain.channel import array_gain_exact
from passgain.errors import ConfigError, NumericsError
from passgain.gain import gain_symmetric, upper_bound_sum
from passgain.geometry import AntennaLayout, SystemConfig, symmetric_uniform_layout
from passgain.geometry import _resolve_feed as resolve_feed
from passgain.refine import build_refined_layout


def pair(x_left, x_right):
    return AntennaLayout(offsets=(x_left, x_right), center=0.0, min_spacing=0.0)


def lone_antenna_power(x, cfg):
    """|h|^2 of an antenna at ``x`` fed where it stands: its partner 1 m
    further along a 1e4 dB/m waveguide keeps 10^-500 of its amplitude, which
    is exactly 0 in float64, so the pair's gain is |h|^2 / 2."""
    return 2.0 * array_gain_exact(pair(x, x + 1.0), replace(cfg, alpha_wg_db_per_m=1e4))


def test_overhead_antenna_power(cfg):
    # |h|^2 = eta / d^2 for the antenna directly above the user
    power = lone_antenna_power(cfg.x_u_m, cfg)
    assert power == pytest.approx(8.07e-8, rel=1e-3)
    assert power == pytest.approx(cfg.eta / cfg.d_m**2, rel=1e-12)


def test_overhead_antenna_phase(cfg):
    # The overhead antenna (phase -k0 d) and one m guided wavelengths further
    # on (in-waveguide phase 2 pi m, free-space phase -k0 r) interfere with
    # the phase difference k0 (r - d): law of cosines on the two phasors.
    for m in (1, 7, 40):
        s = m * cfg.wavelength / cfg.n_eff  # m guided wavelengths
        d, r = cfg.d_m, math.hypot(s, cfg.d_m)
        cross = 2 * math.cos(cfg.k0 * (r - d)) / (d * r)
        expected = cfg.eta / 2 * (1 / d**2 + 1 / r**2 + cross)
        got = array_gain_exact(pair(cfg.x_u_m, cfg.x_u_m + s), cfg)
        assert got == pytest.approx(expected, rel=1e-10)


def test_magnitude_even_in_offset(cfg):
    for off in (0.001, 0.5, 2.7):
        left = lone_antenna_power(cfg.x_u_m - off, cfg)
        right = lone_antenna_power(cfg.x_u_m + off, cfg)
        assert left == pytest.approx(right, rel=1e-15)


def test_inwaveguide_phase_values(cfg):
    # A pair mirrored about the user shares r, so only the in-waveguide phase
    # 2 pi s / lambda_g between them is left: 2 eta / r^2 cos^2(pi s / lambda_g).
    # One guided wavelength adds in phase, half of one cancels, and one
    # free-space wavelength covers n_eff guided wavelengths.
    lambda_g = cfg.wavelength / cfg.n_eff
    for s, cos2 in ((lambda_g, 1.0), (lambda_g / 2, 0.0),
                    (cfg.wavelength, math.cos(math.pi * 1.44) ** 2)):
        got = array_gain_exact(symmetric_uniform_layout(cfg, 2, s), cfg)
        expected = 2 * cfg.eta * cos2 / (cfg.d_m**2 + s**2 / 4)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * cfg.eta)


def test_feed_right_of_antenna_rejected():
    lay = pair(-1.0, 1.0)
    fed_at_origin = SystemConfig(x_0_m=0.0)
    with pytest.raises(ConfigError):
        resolve_feed(fed_at_origin, lay.positions[0] - fed_at_origin.x_u_m)
    with pytest.raises(ConfigError):
        array_gain_exact(lay, fed_at_origin)


def test_attenuation_values():
    # The feed-to-array run attenuates every antenna alike, so moving the feed
    # `run` metres left scales the gain by the power factor 10^(-alpha run / 10).
    lossy = SystemConfig(alpha_wg_db_per_m=0.08)
    lay = symmetric_uniform_layout(lossy, 8, 0.02)

    def gain_fed_from(run, alpha):
        fed = replace(lossy, x_0_m=lay.positions[0] - run, alpha_wg_db_per_m=alpha)
        return array_gain_exact(lay, fed)

    assert gain_fed_from(5.0, 0.0) == pytest.approx(gain_fed_from(0.0, 0.0), rel=1e-12)
    amplitude = math.sqrt(gain_fed_from(30.0, 0.08) / gain_fed_from(0.0, 0.08))
    assert amplitude == pytest.approx(0.7586, rel=1e-4)
    gains = [gain_fed_from(float(run), 0.08) for run in np.linspace(0.0, 50.0, 40)]
    assert all(b <= a for a, b in zip(gains, gains[1:]))


def test_exact_gain_matches_symmetric_form(cfg):
    # same value through the per-antenna route and the mirrored-pair route
    rng = np.random.default_rng(5)
    for _ in range(25):
        half = np.sort(rng.uniform(1e-4, 3.0, size=int(rng.integers(1, 30))))
        while np.any(np.diff(half) <= 0):
            half = np.sort(rng.uniform(1e-4, 3.0, size=half.size))
        offsets = np.concatenate([-half[::-1], half])
        lay = AntennaLayout(offsets=offsets, center=cfg.x_u_m, min_spacing=0.0)
        a_exact = array_gain_exact(lay, cfg)
        a_sym = gain_symmetric(half, cfg)
        assert a_exact == pytest.approx(a_sym, rel=1e-12)


def test_feed_invariance_without_loss(cfg):
    lay = symmetric_uniform_layout(cfg, 6, 0.01)
    base = array_gain_exact(lay, cfg)
    for x0 in (-0.1, -3.0, -123.456):
        shifted = SystemConfig(x_0_m=x0, alpha_wg_db_per_m=0.0)
        lay0 = symmetric_uniform_layout(shifted, 6, 0.01)
        assert array_gain_exact(lay0, shifted) == pytest.approx(
            base, rel=1e-12
        )


@pytest.mark.parametrize("x_u_m", [123.456, 1e9, 1e17])
def test_library_layout_gains_ignore_the_user_position(x_u_m):
    # layouts hold offsets from the user, so moving the user changes no bit
    # of either gain, even where absolute positions would lose every gap
    base = SystemConfig()
    far = replace(base, x_u_m=x_u_m)
    for build in (lambda c: symmetric_uniform_layout(c, 100, 0.5 * c.wavelength),
                  lambda c: build_refined_layout(100, c)):
        assert array_gain_exact(build(far), far) == array_gain_exact(build(base), base)


def test_two_antennas_half_wavelength(cfg):
    # evaluate the mirrored pair at spacing wavelength/2 by hand
    lam = cfg.wavelength
    lay = symmetric_uniform_layout(cfg, 2, lam / 2)
    got = array_gain_exact(lay, cfg)
    expected = (
        2
        * cfg.eta
        * math.cos(math.pi * cfg.n_eff / 2) ** 2
        / (cfg.d_m**2 + lam**2 / 16)
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_triangle_inequality_bound(cfg):
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = 2 * int(rng.integers(1, 25))
        spacing = float(rng.uniform(0.3, 3.0)) * cfg.wavelength
        lay = symmetric_uniform_layout(cfg, n, spacing)
        offsets = np.array(lay.positions) - lay.center
        bound = cfg.eta / n * np.sum(1.0 / np.hypot(offsets, cfg.d_m)) ** 2
        assert array_gain_exact(lay, cfg) <= bound * (1 + 1e-9)


def test_loss_never_raises_gain(cfg):
    lay = symmetric_uniform_layout(cfg, 8, 0.02)
    alphas = [0.0, 0.02, 0.08, 0.3, 1.0]
    gains = [array_gain_exact(lay, replace(cfg, alpha_wg_db_per_m=a)) for a in alphas]
    assert all(b <= a for a, b in zip(gains, gains[1:]))


# ------------------------------------------------ properties over the config space

configs = st.builds(
    SystemConfig,
    f_c_hz=st.floats(1e9, 1e11),
    d_m=st.floats(0.5, 20.0),
    n_eff=st.floats(1.0, 2.5),
    x_u_m=st.floats(-50.0, 50.0),
    alpha_wg_db_per_m=st.just(0.0),
    delta_p=st.floats(0.1, 5.0),
)
# positive-side offsets of a mirror-symmetric layout, from gaps wide enough
# to stay strictly increasing once placed around the user
half_offsets = st.lists(st.floats(1e-4, 3.0), min_size=1, max_size=40).map(np.cumsum)


def mirrored(half, cfg):
    half = np.asarray(half)
    offsets = np.concatenate([-half[::-1], half])
    return AntennaLayout(offsets=offsets, center=cfg.x_u_m, min_spacing=0.0)


@settings(max_examples=60, deadline=None)
@given(cfg=configs, half=half_offsets)
def test_phase_free_bound_dominates_symmetric_gain(cfg, half):
    assert gain_symmetric(half, cfg) <= upper_bound_sum(half, cfg) * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(cfg=configs, half=half_offsets)
def test_exact_gain_equals_symmetric_form_anywhere(cfg, half):
    # compared on the scale of the phase-free bound, as deep nulls have no
    # relative accuracy
    lay = mirrored(half, cfg)
    scale = upper_bound_sum(half, cfg)
    assert abs(array_gain_exact(lay, cfg) - gain_symmetric(half, cfg)) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(cfg=configs, half=half_offsets, gap=st.floats(0.0, 1e9))
def test_lossless_gain_ignores_the_feed(cfg, half, gap):
    # the phase runs from the user's projection, so a lossless feed changes
    # no bit, however far away it is
    lay = mirrored(half, cfg)
    fed = replace(cfg, x_0_m=lay.positions[0] - gap)
    assert array_gain_exact(lay, fed) == array_gain_exact(lay, cfg)


@settings(max_examples=40, deadline=None)
@given(
    cfg=configs,
    n=st.integers(1, 100).map(lambda k: 2 * k),
    alphas=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2).map(sorted),
    gap=st.none() | st.floats(0.0, 100.0),
)
def test_loss_never_raises_refined_gain(cfg, n, alphas, gap):
    # every antenna of a refined layout adds in phase, so attenuating any of
    # them can only lower the gain (an unaligned layout has no such guarantee)
    try:
        lay = build_refined_layout(n, cfg)
    except NumericsError as exc:
        # at n_eff = 1 the left-side path only tends to 0, so once it drops
        # below one wavelength no offset reaches the next multiple down
        if "exhausted" not in str(exc):
            raise
        reject()
    fed = cfg if gap is None else replace(cfg, x_0_m=lay.positions[0] - gap)
    low, high = (array_gain_exact(lay, replace(fed, alpha_wg_db_per_m=a)) for a in alphas)
    assert high <= low * (1 + 1e-12)
