import cmath
import itertools
import math

import numpy as np
import pytest

from passgain.coupling import f_mc, gain_mc_two_closed
from passgain.errors import ConfigError, NumericsError
from passgain.gain import (
    XSTAR,
    BoundReport,
    closed_bound_value,
    f_ub,
    gain_limit,
    gain_symmetric,
    gain_uniform,
    gain_uniform_integral,
    max_gain_estimate,
    optimal_antenna_number,
    uniform_deltas,
    uniform_integrand,
    upper_bound_closed,
    upper_bound_sum,
    upper_bound_sum_uniform,
)
from passgain.geometry import SystemConfig


def brute_force_symmetric_gain(half_deltas, cfg):
    """Independent oracle: explicit per-antenna complex summation."""
    total = 0j
    for delta in half_deltas:
        for signed in (delta, -delta):
            r = math.sqrt(cfg.d_m**2 + signed**2)
            total += cmath.exp(-1j * (cfg.k0 * r + cfg.k0 * cfg.n_eff * signed)) / r
    n = 2 * len(half_deltas)
    return cfg.eta / n * abs(total) ** 2


def test_symmetric_gain_against_brute_force(cfg):
    lam = cfg.wavelength
    deltas = [0.25 * lam, 0.75 * lam]
    assert gain_symmetric(deltas, cfg) == pytest.approx(
        brute_force_symmetric_gain(deltas, cfg), rel=1e-12
    )
    rng = np.random.default_rng(23)
    for _ in range(20):
        k = int(rng.integers(1, 12))
        d = np.sort(rng.uniform(1e-3, 2.0, size=k))
        if np.any(np.diff(d) <= 0):
            continue
        assert gain_symmetric(d, cfg) == pytest.approx(
            brute_force_symmetric_gain(list(d), cfg), rel=1e-11
        )


def test_collapsed_pair_limit(cfg):
    # both antennas on top of the user: 2 eta / d^2
    assert gain_symmetric([0.0], cfg) == pytest.approx(
        2 * cfg.eta / cfg.d_m**2, rel=1e-12
    )


def test_symmetric_gain_input_validation(cfg):
    with pytest.raises(ConfigError):
        gain_symmetric([0.3, 0.1], cfg)
    with pytest.raises(ConfigError):
        gain_symmetric([], cfg)
    with pytest.raises(ConfigError):
        gain_symmetric([-0.1, 0.2], cfg)


def test_gain_uniform_matches_symmetric(cfg):
    for n in (2, 4, 10, 50):
        assert gain_uniform(n, cfg) == pytest.approx(
            gain_symmetric(uniform_deltas(n, cfg), cfg), rel=1e-15
        )
    with pytest.raises(ConfigError):
        gain_uniform(3, cfg)


def test_uniform_integrand_at_origin(cfg):
    assert abs(uniform_integrand(0.0, cfg)) == pytest.approx(2.0, rel=1e-15)


def test_eps_scale(cfg):
    assert cfg.wavelength / cfg.d_m == pytest.approx(3.569e-3, rel=1e-3)


@pytest.mark.parametrize("delta_p", [0.1, 0.5, 1.0, 2.0])
def test_image_integral_matches_exact_sum(delta_p):
    # independent cross-check of the Poisson image form against the direct
    # sum over (N, delta_p, f_c, n_eff).  delta_p = 1 with n_eff = 1 puts the
    # phase advance per antenna at a whole cycle at x = 0, the pole of
    # pi / sin(pi a) that the image tail must take in limit form.
    # delta_p = 0.5 with n_eff = 1 makes every cos(pi (k - 1/2)) vanish, so
    # the exact sum is zero to rounding and is compared on the scale of the
    # phase-free bound instead
    for f_c, n_eff, n in itertools.product((3e9, 28e9, 60e9), (1.0, 1.44, 2.0), (2, 100, 1000)):
        c = SystemConfig(f_c_hz=f_c, n_eff=n_eff, delta_p=delta_p, alpha_wg_db_per_m=0.0)
        exact = gain_uniform(n, c)
        image = gain_uniform_integral(n, c)
        if delta_p == 0.5 and n_eff == 1.0:
            assert abs(image - exact) <= 1e-9 * upper_bound_sum_uniform(n, c)
        else:
            assert image == pytest.approx(exact, rel=1e-3), (f_c, n_eff, n)
    if delta_p == 2.0:
        # about 9,000 phase cycles (28 GHz, n_eff 2, N 3000), where adaptive
        # Gauss-Kronrod quadrature ran out of subintervals; N 6000 would need
        # more integrand evaluations than the panel quadrature allows
        c = SystemConfig(n_eff=2.0, delta_p=2.0, alpha_wg_db_per_m=0.0)
        assert gain_uniform_integral(3000, c) == pytest.approx(gain_uniform(3000, c), rel=1e-8)


def test_aliasing_rule_predicts_the_late_lobe():
    # the stationary-phase rule of gain_uniform_integral: delta_p = 0.5 lies in
    # (1 / (n_eff + 1), 1 / n_eff), image 1 is stationary at
    # sin theta = 1 / delta_p - n_eff, and a uniform layout reaches that offset
    # d tan theta at N ~ 758 antennas; the exact gain's aliased lobe peaks at
    # N = 832, above every gain of the smaller layouts
    c = SystemConfig(delta_p=0.5, alpha_wg_db_per_m=0.0)
    assert 1.0 / (c.n_eff + 1.0) < c.delta_p < 1.0 / c.n_eff
    sin_theta = 1.0 / c.delta_p - c.n_eff
    offset = c.d_m * sin_theta / math.sqrt(1.0 - sin_theta**2)
    predicted = 2.0 * offset / (c.delta_p * c.wavelength)
    assert 2 * round(predicted / 2) == 758
    counts = np.arange(2, 2001, 2)
    gains = np.array([gain_uniform(int(n), c) for n in counts])
    peak = int(counts[np.argmax(gains)])
    assert peak == 832
    assert predicted < peak
    assert gains[counts < predicted].max() < 0.5 * gains.max()


def test_image_integral_failures_raise(cfg, monkeypatch):
    # N = 10^5 needs 10^7 integrand evaluations, refused before any is made
    with pytest.raises(NumericsError, match="evaluations"):
        gain_uniform_integral(10**5, cfg)
    # a zero tolerance asks two Gauss orders to agree to the last bit
    monkeypatch.setattr("passgain.gain._QUAD_REL_TOL", 0.0)
    with pytest.raises(NumericsError, match="did not converge"):
        gain_uniform_integral(100, cfg)
    with pytest.raises(ConfigError):
        gain_uniform_integral(101, cfg)


def test_bound_dominates_symmetric_gain(cfg):
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        k = int(rng.integers(1, 40))
        d = np.sort(rng.uniform(1e-3, 5.0, size=k))
        if np.any(np.diff(d) <= 0):
            continue
        checked += 1
        assert gain_symmetric(d, cfg) <= upper_bound_sum(d, cfg) * (1 + 1e-9)


def test_minimal_spacing_maximizes_bound(cfg):
    # any offsets respecting the minimum spacing sit at or beyond the uniform
    # ones, so the phase-free bound of the uniform layout dominates
    rng = np.random.default_rng(31)
    step = cfg.delta_p * cfg.wavelength
    for _ in range(100):
        k = int(rng.integers(1, 30))
        gaps = step * (1.0 + rng.uniform(0.0, 2.0, size=k))
        deltas = np.cumsum(gaps) - gaps[0] + step / 2 * (1.0 + float(rng.uniform(0.0, 2.0)))
        uniform_bound = upper_bound_sum_uniform(2 * k, cfg)
        assert upper_bound_sum(deltas, cfg) <= uniform_bound * (1 + 1e-12)


def test_bound_single_pair_value(cfg):
    d1 = cfg.delta_p * cfg.wavelength / 2
    r = math.sqrt(cfg.d_m**2 + d1**2)
    assert upper_bound_sum([d1], cfg) == pytest.approx(
        cfg.eta / 2 * (2 / r) ** 2, rel=1e-12
    )


def test_discrete_vs_closed_bound(cfg):
    assert upper_bound_sum_uniform(500, cfg) == pytest.approx(
        closed_bound_value(500, cfg), rel=5e-3
    )
    for n in (100, 200, 1000, 5000):
        rel = abs(
            upper_bound_sum_uniform(n, cfg) - closed_bound_value(n, cfg)
        ) / closed_bound_value(n, cfg)
        assert rel <= 0.02


def test_fub_values():
    assert f_ub(3.32) == pytest.approx(1.105, abs=5e-3)
    assert f_ub(1.0) == pytest.approx(0.7768, rel=1e-3)
    assert 0.9e-6 <= f_ub(1e-6) <= 1.1e-6
    with pytest.raises(ValueError):
        f_ub(0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda cfg: f_ub(NAN),
    lambda cfg: f_ub(np.array([1.0, INF])),
    lambda cfg: f_mc(NAN, 1.44),
    lambda cfg: f_mc(np.array([0.5, INF]), 1.44),
    lambda cfg: f_mc(0.5, NAN),
    lambda cfg: f_mc(0.5, INF),
    lambda cfg: closed_bound_value(NAN, cfg),
    lambda cfg: closed_bound_value(np.array([100.0, NAN]), cfg),
    lambda cfg: gain_mc_two_closed(NAN, cfg),
    lambda cfg: gain_mc_two_closed(np.array([0.01, INF]), cfg),
    lambda cfg: gain_symmetric([NAN], cfg),
    lambda cfg: gain_symmetric([0.1, INF], cfg),
    lambda cfg: upper_bound_sum([0.1, NAN], cfg),
    lambda cfg: upper_bound_sum([NAN, 0.1], cfg),
], ids=["f_ub", "f_ub_inf", "f_mc", "f_mc_inf", "f_mc_n_eff", "f_mc_n_eff_inf", "closed_bound",
        "closed_bound_array", "mc_two_closed", "mc_two_closed_inf", "symmetric", "symmetric_inf",
        "bound_sum_last", "bound_sum_first"])
def test_non_finite_inputs_refused(cfg, call):
    # a NaN or inf input is a ConfigError, never a NaN returned in silence
    with pytest.raises(ConfigError):
        call(cfg)


def test_xstar_is_the_float_nearest_the_root():
    # the root of d f_ub / dx = 0, at 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda x: 2 * x / mpmath.sqrt(1 + x * x) - mpmath.asinh(x), 3.3)
    assert XSTAR == float(root)


def test_find_xstar():
    xstar, fstar = XSTAR, f_ub(XSTAR)
    assert xstar == pytest.approx(3.32, abs=0.01)
    assert fstar == pytest.approx(1.105, abs=0.005)
    # monotone increase up to the maximizer
    grid = np.linspace(1e-3, xstar, 1000)
    vals = f_ub(grid)
    assert np.all(np.diff(vals) > 0)


def test_optimal_antenna_number(cfg):
    n = optimal_antenna_number(cfg)
    assert n % 2 == 0
    assert abs(n - 3721) <= 1
    lam = cfg.wavelength
    assert (n - 1) * cfg.delta_p * lam == pytest.approx(6.64 * cfg.d_m, rel=0.01)

    cfg1 = SystemConfig(d_m=1.0, alpha_wg_db_per_m=0.0)
    n1 = optimal_antenna_number(cfg1)
    assert (n1 - 1) * cfg1.delta_p * cfg1.wavelength == pytest.approx(6.64, rel=0.01)


@pytest.mark.parametrize(
    "n_target,expected",
    [(100.8, 100), (101.2, 102), (101.000001, 102), (100.999999, 102), (100.99, 100),
     (100.998, 102), (2.9, 4), (4.9, 6), (6.99, 8), (1.5, 2), (0.5, 2)],
)
def test_even_rounding(n_target, expected):
    # pick a frequency making 2 x* d / (delta_p wavelength) land on n_target.
    # The bound falls more slowly above its maximizer than below, so the
    # bounds of 100 and 102 antennas tie at n_target = 100.99414..., not at
    # 101; at 2.9, 4.9 and 6.99 the count above has a bound 1.05 %, 0.07 % and
    # 0.13 % larger than the nearest even count below
    xstar = XSTAR
    cfg = SystemConfig(
        f_c_hz=n_target * 0.5 * 299792458.0 / (2.0 * xstar * 3.0),
        alpha_wg_db_per_m=0.0,
    )
    n_real = 2.0 * xstar * cfg.d_m / (cfg.delta_p * cfg.wavelength)
    assert n_real == pytest.approx(n_target, abs=1e-9)
    assert optimal_antenna_number(cfg) == expected


def test_optimal_antenna_number_is_the_argmax_over_even_counts():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cfg = SystemConfig(f_c_hz=10 ** rng.uniform(8.5, 10.5), d_m=rng.uniform(0.5, 10.0),
                           delta_p=rng.uniform(0.5, 2.0), alpha_wg_db_per_m=0.0)
        n = optimal_antenna_number(cfg)
        counts = np.arange(2, 2 * n + 10, 2)
        assert n == counts[np.argmax(closed_bound_value(counts, cfg))]


def test_max_gain_estimate(cfg):
    est = max_gain_estimate(cfg)
    assert est == pytest.approx(9.99e-5, rel=5e-3)
    half = SystemConfig(delta_p=0.25, alpha_wg_db_per_m=0.0)
    assert max_gain_estimate(half) == pytest.approx(2 * est, rel=1e-12)
    # delta_p = 1/2 is the smallest coupling-free spacing, so there the
    # estimate and the overall ceiling coincide
    assert est == pytest.approx(gain_limit(cfg), rel=1e-12)


def test_gain_limit_scaling(cfg):
    lim = gain_limit(cfg)
    doubled = SystemConfig(d_m=6.0, alpha_wg_db_per_m=0.0)
    assert gain_limit(doubled) == pytest.approx(lim / 2, rel=1e-12)


def test_closed_bound_below_limit(cfg):
    lim = gain_limit(cfg)
    ns = np.arange(2, 10001, 2)
    for dp in (0.5, 0.75, 1.0, 1.5, 2.0):
        c = SystemConfig(delta_p=dp, alpha_wg_db_per_m=0.0)
        assert np.all(closed_bound_value(ns, c) <= lim * (1 + 1e-9))


def test_closed_bound_unimodal(cfg):
    ns = np.arange(2, 20001, 2)
    vals = closed_bound_value(ns, cfg)
    peak = int(np.argmax(vals))
    assert 0 < peak < len(ns) - 1
    assert np.all(np.diff(vals[: peak + 1]) > 0)
    assert np.all(np.diff(vals[peak:]) < 0)


def test_uniform_gain_eventually_small(cfg):
    nstar = optimal_antenna_number(cfg)
    assert gain_uniform(10**4, cfg) < gain_uniform(nstar, cfg) / 2


def test_closed_bound_vanishes_at_huge_counts(cfg):
    # the closed bound vanishes as the count grows; the measured ratio at
    # N = 1e6 is 0.0569 of the peak, and 4e6 is comfortably below 1/20
    nstar = optimal_antenna_number(cfg)
    peak = closed_bound_value(nstar, cfg)
    assert closed_bound_value(1_000_000, cfg) < 0.06 * peak
    assert closed_bound_value(4_000_000, cfg) < 0.05 * peak


def test_bound_report(cfg):
    rep = upper_bound_closed(200, cfg)
    assert rep.a_uni <= rep.a_hat_sum * (1 + 1e-9)
    assert rep.eps == pytest.approx(cfg.wavelength / cfg.d_m, rel=1e-15)
    assert rep.l_eps == pytest.approx(200 * cfg.delta_p * rep.eps / 2, rel=1e-15)
    assert min(rep.a_uni, rep.a_hat_sum, rep.a_hat_closed) >= 0
    with pytest.raises(NumericsError):
        BoundReport(a_uni=1.0, a_hat_sum=0.5, a_hat_closed=0.5, l_eps=1.0, eps=1e-3)
