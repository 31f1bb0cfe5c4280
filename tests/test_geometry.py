import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from passgain.channel import array_gain_exact
from passgain.coupling import coupling_matrix, gain_mc
from passgain.errors import ConfigError
from passgain.gain import gain_uniform, uniform_deltas, upper_bound_closed, upper_bound_sum_uniform
from passgain.geometry import (
    _DOMAIN,
    SPEED_OF_LIGHT,
    SystemConfig,
    load_scenario,
    symmetric_uniform_layout,
)
from passgain.geometry import _resolve_feed as resolve_feed


def test_wavelength_at_28ghz(cfg):
    # c / f_c by hand calculator
    assert cfg.wavelength == pytest.approx(1.070687e-2, rel=1e-6)


def test_eta_at_28ghz(cfg):
    # (wavelength / 4 pi)^2 by hand calculator
    assert cfg.eta == pytest.approx(7.26e-7, rel=1e-3)


def test_constant_identities(cfg):
    assert cfg.k0 * cfg.wavelength == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert cfg.eta == pytest.approx(
        SPEED_OF_LIGHT**2 / (16 * math.pi**2 * cfg.f_c_hz**2), rel=1e-12
    )


def test_derive_constants_pure(cfg):
    # the constants follow from the scenario alone: a config built from the
    # same fields carries the same ones, replace() recomputes them, and they
    # can be neither passed in nor replaced, nor do they show in repr or ==
    twin = SystemConfig(**{f.name: getattr(cfg, f.name) for f in fields(cfg) if f.init})
    assert (twin.wavelength, twin.k0, twin.eta) == (cfg.wavelength, cfg.k0, cfg.eta)
    assert replace(cfg, f_c_hz=2 * cfg.f_c_hz).wavelength == cfg.wavelength / 2
    assert not hasattr(cfg, "lambda_g")  # no code read it
    with pytest.raises(TypeError):
        SystemConfig(eta=1.0)
    with pytest.raises(ValueError):
        replace(cfg, wavelength=1.0)
    assert "wavelength" not in repr(cfg)
    assert repr(twin) == repr(cfg) and twin == cfg


@pytest.mark.parametrize("f_c_hz", [1e-300, 1e-150, 1e300])
def test_carrier_beyond_the_float_range_names_f_c_hz(f_c_hz):
    # far outside the domain, where the wavelength (1e-300 Hz) or eta
    # (1e-150 Hz) would overflow, or eta underflow (1e300 Hz)
    with pytest.raises(ConfigError, match="f_c_hz"):
        SystemConfig(f_c_hz=f_c_hz)


@pytest.mark.parametrize("d_m", [1e-200, 1e-160, 1e154, 1e200])
def test_height_beyond_the_normal_float_range_names_d_m(d_m):
    # far outside the domain, where d^2 would underflow (1e-200) or be
    # subnormal (1e-160), or eta / d^2 subnormal (1e154) or d^2 overflow (1e200)
    with pytest.raises(ConfigError, match="d_m"):
        SystemConfig(d_m=d_m)


@pytest.mark.parametrize("delta_p", [5e-324, 1e308])
def test_spacing_outside_the_normal_float_range_names_delta_p(delta_p):
    # at 1 MHz, delta_p wavelengths would round to 0 m or to inf m; both lie
    # outside the domain's delta_p range
    with pytest.raises(ConfigError, match=r"^invalid-config: delta_p must lie in \[0\.001, "
                                          r"1e\+06\], got "):
        SystemConfig(f_c_hz=1e6, delta_p=delta_p)


def test_domain_keeps_the_derived_constants_normal():
    # over the corners of f_c_hz and d_m each derived constant lies in the
    # range the SystemConfig docstring states, far inside the normal floats
    for f_c in _DOMAIN["f_c_hz"]:
        for d in _DOMAIN["d_m"]:
            c = SystemConfig(f_c_hz=f_c, d_m=d)
            assert 5.6e-16 <= c.eta <= 570 and 5.6e-24 <= c.eta / d**2 <= 5.7e8
            assert 2 * d**2 + c.wavelength**2 / 2 < 2.1e8 and c.k0 * _DOMAIN["n_eff"][1] < 2.1e8


@pytest.mark.parametrize(
    "field,value",
    [("f_c_hz", 0.0), ("d_m", -1.0), ("n_eff", 0.99), ("alpha_wg_db_per_m", -0.1), ("delta_p", 0.0)],
)
def test_invalid_config_rejected(field, value):
    with pytest.raises(ConfigError):
        SystemConfig(**{field: value})


def test_two_antenna_layout_straddles_user():
    assert symmetric_uniform_layout(2, 0.01).tolist() == [-0.005, 0.005]


def test_four_antenna_offsets(cfg):
    spacing = cfg.delta_p * cfg.wavelength
    deltas = symmetric_uniform_layout(4, spacing)
    # outer antenna sits 1.5 spacings out
    assert deltas[-1] == pytest.approx(1.5 * spacing, rel=1e-15)
    # mirror symmetry about the user
    assert deltas[0] == pytest.approx(-deltas[-1], rel=1e-15)
    assert deltas[1] == pytest.approx(-deltas[2], rel=1e-15)


def test_odd_count_rejected():
    with pytest.raises(ConfigError):
        symmetric_uniform_layout(5, 0.01)
    with pytest.raises(ConfigError):
        symmetric_uniform_layout(0, 0.01)


def test_layout_spacing_property():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = 2 * int(rng.integers(1, 40))
        spacing = float(rng.uniform(1e-4, 0.5))
        lay = symmetric_uniform_layout(n, spacing)
        assert lay.shape == (n,) and lay.dtype == np.float64
        gaps = np.diff(lay)
        assert np.all(gaps > 0)
        assert abs(gaps.min() - spacing) < 1e-12
    # a stack of spacings gives a stack of layouts, one per row
    stack = symmetric_uniform_layout(4, np.array([0.01, 0.02]))
    assert np.array_equal(stack, [symmetric_uniform_layout(4, 0.01),
                                  symmetric_uniform_layout(4, 0.02)])


def test_layout_validation(cfg):
    # a layout is its offsets: the uniform builder refuses a spacing that
    # would make them fail to increase or leave the length bound, and the
    # exact gain refuses offsets that do not strictly increase
    for spacing in (0.0, -0.01, math.inf, math.nan, 2e11):
        with pytest.raises(ConfigError, match="spacing must be > 0"):
            symmetric_uniform_layout(4, spacing)
    with pytest.raises(ConfigError, match="strictly increasing"):
        array_gain_exact([0.0, 0.0], cfg)


S_PAST = np.full(250_001, 0.01)  # at 4 pairs or entries a spacing, 4 past the 10^6 bound


@pytest.mark.parametrize("call", [
    lambda c: symmetric_uniform_layout(10**13, 0.01),
    lambda c: symmetric_uniform_layout(8, S_PAST),
    lambda c: uniform_deltas(2 * 10**6 + 2, c),
    lambda c: gain_uniform(10**13, c),
    lambda c: upper_bound_sum_uniform(10**13, c),
    lambda c: upper_bound_closed(10**13, c),
    lambda c: coupling_matrix(10**6, 0.01, c),
    lambda c: coupling_matrix(2, S_PAST, c),
    lambda c: gain_mc(10**6, 0.01, c),
    lambda c: gain_mc(4, S_PAST, c),
], ids=["layout_count", "layout_stack", "uniform_deltas", "gain_uniform",
        "upper_bound_sum_uniform", "upper_bound_closed", "coupling_count", "coupling_stack",
        "gain_mc_count", "gain_mc_stack"])
def test_counts_past_the_sweep_bound_are_refused_before_allocating(cfg, call):
    # once numpy's MemoryError (36.4 TiB for gain_uniform(10**13), 7.28 TiB
    # for coupling_matrix(10**6, ...)) or a stack of tens of MB; now the
    # sweeps' bound on pairs and matrix entries, checked from the counts
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="exceed the limit of 1000000"):
            call(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21


def test_counts_at_the_sweep_bound_are_laid_out(cfg):
    assert uniform_deltas(2 * 10**6, cfg).shape == (10**6,)
    assert symmetric_uniform_layout(4, S_PAST[:-1]).shape == (250_000, 4)


def test_feed_resolution(cfg):
    # feeds are offsets from the user's projection, as the leftmost antennas are
    leftmost = symmetric_uniform_layout(2, 0.01)[0]
    assert resolve_feed(cfg, leftmost) == leftmost
    explicit = SystemConfig(x_0_m=-5.0, x_u_m=2.0, alpha_wg_db_per_m=0.0)
    assert resolve_feed(explicit, leftmost) == -5.0 - 2.0
    inside = SystemConfig(x_0_m=1.0, alpha_wg_db_per_m=0.0)
    with pytest.raises(ConfigError):
        resolve_feed(inside, leftmost)
    # one leftmost offset per layout: auto follows each, an explicit feed
    # must lie left of all of them
    stacked = np.array([[-0.5], [-2.0], [-1.0]])
    assert resolve_feed(cfg, stacked) is stacked
    assert resolve_feed(explicit, stacked) == -7.0
    # the message names the first layout the feed lies inside
    with pytest.raises(ConfigError, match="leftmost antenna at -2.0 m"):
        resolve_feed(replace(explicit, x_u_m=0.0, x_0_m=-0.75), stacked)


def test_load_scenario_roundtrip(tmp_path):
    f = tmp_path / "scenario.cfg"
    f.write_text(
        """
        # comment line
        f_c_hz = 10e9
        d_m = 2.5
        n_eff = 1.2     # inline comment
        x_u_m = 1.0
        x_0_m = auto
        alpha_wg_db_per_m = 0.05
        delta_p = 0.75
        """
    )
    cfg = load_scenario(f)
    assert cfg.f_c_hz == 10e9
    assert cfg.d_m == 2.5
    assert cfg.n_eff == 1.2
    assert cfg.x_u_m == 1.0
    assert cfg.x_0_m is None
    assert cfg.alpha_wg_db_per_m == 0.05
    assert cfg.delta_p == 0.75


def test_load_scenario_defaults_and_explicit_feed(tmp_path):
    f = tmp_path / "scenario.cfg"
    f.write_text("x_0_m = -30\n")
    cfg = load_scenario(f)
    assert cfg.x_0_m == -30.0
    assert cfg.f_c_hz == 28e9  # untouched default


@pytest.mark.parametrize(
    "text",
    ["unknown = 1\n", "eta = 1e-6\n", "f_c_hz = 1e9\nf_c_hz = 2e9\n", "f_c_hz 1e9\n", "d_m = three\n"],
)
def test_load_scenario_rejects_bad_files(tmp_path, text):
    f = tmp_path / "scenario.cfg"
    f.write_text(text)
    with pytest.raises(ConfigError):
        load_scenario(f)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "nope.cfg")
