import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from passgain.errors import ConfigError
from passgain.geometry import (
    _DOMAIN,
    SPEED_OF_LIGHT,
    AntennaLayout,
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


def test_two_antenna_layout_straddles_user(cfg):
    lay = symmetric_uniform_layout(cfg, 2, 0.01)
    assert tuple(lay.positions) == (cfg.x_u_m - 0.005, cfg.x_u_m + 0.005)
    assert lay.center == cfg.x_u_m


def test_four_antenna_offsets(cfg):
    spacing = cfg.delta_p * cfg.wavelength
    lay = symmetric_uniform_layout(cfg, 4, spacing)
    deltas = [x - lay.center for x in lay.positions]
    # outer antenna sits 1.5 spacings out
    assert deltas[-1] == pytest.approx(1.5 * spacing, rel=1e-15)
    # mirror symmetry about the user
    assert deltas[0] == pytest.approx(-deltas[-1], rel=1e-15)
    assert deltas[1] == pytest.approx(-deltas[2], rel=1e-15)


def test_odd_count_rejected(cfg):
    with pytest.raises(ConfigError):
        symmetric_uniform_layout(cfg, 5, 0.01)
    with pytest.raises(ConfigError):
        symmetric_uniform_layout(cfg, 0, 0.01)


def test_layout_spacing_property(cfg):
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = 2 * int(rng.integers(1, 40))
        spacing = float(rng.uniform(1e-4, 0.5))
        lay = symmetric_uniform_layout(cfg, n, spacing)
        pos = np.array(lay.positions)
        gaps = np.diff(pos)
        assert np.all(gaps > 0)
        assert abs(gaps.min() - spacing) < 1e-12


def test_layout_validation():
    with pytest.raises(ConfigError):
        AntennaLayout(offsets=(0.0, 0.0), center=0.0, min_spacing=0.0)
    with pytest.raises(ConfigError):
        AntennaLayout(offsets=(-0.1, 0.0, 0.1), center=0.1, min_spacing=0.05)
    with pytest.raises(ConfigError):
        AntennaLayout(offsets=(0.0, 0.01), center=0.0, min_spacing=0.1)
    # a gap between offsets a and b may fall short by 1e-12 m plus 3 ulp of |a| + |b|
    a, b = 5e7, 5e7 + 0.1
    slack = 1e-12 + 3 * math.ulp(a + b)
    AntennaLayout(offsets=(a, b), center=1.0, min_spacing=b - a + 0.9 * slack)
    with pytest.raises(ConfigError, match="below minimum spacing"):
        AntennaLayout(offsets=(a, b), center=1.0, min_spacing=b - a + 1.1 * slack)


@pytest.mark.parametrize("offsets,center,min_spacing,match", [
    ((0.0, math.inf), 0.0, 0.0, "finite"),
    ((-math.inf, 0.0), 0.0, 0.0, "finite"),
    ((0.0, math.nan), 0.0, 0.0, "finite"),
    ((0.0, 1.0), math.nan, 0.0, "finite"),
    ((0.0, 1.0), -math.inf, 0.0, "finite"),
    (((0.0, 1.0), (2.0, 3.0)), 0.0, 0.0, "1-D"),
    (0.5, 0.0, 0.0, "1-D"),
    ((0.0, 1.0), 0.0, math.nan, "min_spacing"),
    ((0.0, 1.0), 0.0, -0.5, "min_spacing"),
    ((0.0, 1.0), 0.0, math.inf, "min_spacing"),
])
def test_layout_refuses_non_finite_input(offsets, center, min_spacing, match):
    # such a layout would reach the gain as nan or inf with only a warning
    with pytest.raises(ConfigError, match=match):
        AntennaLayout(offsets=offsets, center=center, min_spacing=min_spacing)


def test_layout_holds_a_read_only_copy_of_its_offsets():
    offsets = np.array([-0.5, 0.25, 1.0, 2.0])
    lay = AntennaLayout(offsets=offsets, center=3.0, min_spacing=0.25)
    offsets[0] = -9.0
    assert lay.offsets.tolist() == [-0.5, 0.25, 1.0, 2.0]
    with pytest.raises(ValueError):
        lay.offsets[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        lay.offsets = offsets
    assert np.array_equal(lay.positions, 3.0 + lay.offsets)


def test_layouts_compare_by_identity(cfg):
    # an array field has no value ==, so layouts compare (and hash) by identity
    a, b = (symmetric_uniform_layout(cfg, 4, 0.01) for _ in range(2))
    assert np.array_equal(a.offsets, b.offsets) and a.center == b.center
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_feed_resolution(cfg):
    # feeds are offsets from the user's projection, as the leftmost antennas are
    lay = symmetric_uniform_layout(cfg, 2, 0.01)
    leftmost = lay.positions[0] - cfg.x_u_m
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
