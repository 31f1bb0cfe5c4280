import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from passgain import channel
from passgain.channel import _nested_gains as nested_gains
from passgain.channel import _pair_phasors as pair_phasors
from passgain.channel import _scaled_accumulate, array_gain_exact
from passgain.coupling import coupling_matrix, gain_mc
from passgain.errors import ConfigError, NumericsError
from passgain.gain import gain_symmetric, uniform_deltas, upper_bound_sum
from passgain.geometry import SystemConfig, symmetric_uniform_layout
from passgain.geometry import _resolve_feed as resolve_feed
from passgain.refine import build_refined_layout
from reference import scaled_accumulate_loop


def pair(x_left, x_right):
    return np.array([x_left, x_right])


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
        got = array_gain_exact(symmetric_uniform_layout(2, s), cfg)
        expected = 2 * cfg.eta * cos2 / (cfg.d_m**2 + s**2 / 4)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * cfg.eta)


def test_feed_right_of_antenna_rejected():
    lay = pair(-1.0, 1.0)
    fed_at_origin = SystemConfig(x_0_m=0.0)
    with pytest.raises(ConfigError):
        resolve_feed(fed_at_origin, lay[0])
    with pytest.raises(ConfigError):
        array_gain_exact(lay, fed_at_origin)


@pytest.mark.parametrize("offsets, match", [
    ([0.1, -0.1], "strictly increasing"),  # the feed check reads the first offset alone
    ([[-0.2, 0.1], [0.1, 0.1]], "strictly increasing"),
    ([], "non-empty"),
    ([np.nan, 0.1], "finite"),
    ([0.1, np.inf], "finite"),
    (0.1, "1-D"),
])
def test_direct_sum_refuses_offsets_it_cannot_sum(offsets, match):
    # once a NaN gain with a RuntimeWarning, or the gain of an antenna left of the feed
    with pytest.raises(ConfigError, match=match):
        array_gain_exact(offsets, SystemConfig(x_0_m=0.0))


@pytest.mark.parametrize("evaluate", [
    lambda offsets: array_gain_exact(offsets, SystemConfig()),
    lambda offsets: gain_symmetric(offsets, SystemConfig()),
], ids=["array_gain_exact", "gain_symmetric"])
def test_offsets_have_one_check(evaluate):
    for offsets, match in (([0.3, 0.1], "offsets must be strictly increasing"),
                           ([0.1, np.nan], "offsets must be finite")):
        with pytest.raises(ConfigError, match=match):
            evaluate(offsets)


@pytest.mark.filterwarnings("error")
def test_lengths_past_the_bound_are_refused_not_summed_to_nan():
    # past about 3e305 m the phases k0 (r +- n_eff delta) overflowed, and these
    # calls returned NaN with numpy warnings; lengths past 1e11 m are refused,
    # and the bound itself still sums to a finite gain
    cfg = SystemConfig()
    calls = [
        lambda: array_gain_exact([-3e305, 3e305], cfg),
        lambda: gain_symmetric([3e305], cfg),
        lambda: array_gain_exact([[-1.0, 1.0], [-1e306, 1e306]], cfg),
        lambda: gain_mc(2, 1e306, cfg),
        lambda: coupling_matrix(4, 1e306, cfg),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match=r"1e\+11 m"):
            call()
    assert np.isfinite(array_gain_exact([-1e11, 1e11], cfg))
    assert np.isfinite(gain_mc(2, 1e11, cfg))


@pytest.mark.parametrize("x_u_m", [0.0, 1e3, 1e6, 1e9, 1e17])
def test_feed_is_checked_where_the_antennas_are(x_u_m):
    # a feed at the layout's own leftmost position is accepted wherever in the
    # domain the user stands: the check does not round x_0 - x_u, it compares
    # in the user's coordinates.  Past the domain's 1e6 m the user is refused
    # before any feed is checked: float64 rounds positions there too coarsely
    # for the feed rule (at x_u = x_0 = 1e17 m and 1e6 dB/m the feed run
    # rounded to 0 m, left of an antenna, and the gains overflowed)
    if x_u_m > 1e6:
        with pytest.raises(ConfigError, match="^invalid-config: x_u_m must lie in "):
            SystemConfig(x_u_m=x_u_m)
        return
    cfg = SystemConfig(x_u_m=x_u_m)
    spacing = cfg.delta_p * cfg.wavelength
    for n in range(2, 17, 2):
        lay = symmetric_uniform_layout(n, spacing)
        leftmost = x_u_m + lay[0]
        at_leftmost = replace(cfg, x_0_m=leftmost)
        assert resolve_feed(at_leftmost, lay[0]) == at_leftmost.x_0_m - x_u_m
        assert array_gain_exact(lay, at_leftmost) > 0
        # half a spacing right of the leftmost antenna is still refused, and
        # the message tells the feed from the antenna
        inside = replace(cfg, x_0_m=leftmost + spacing / 2)
        with pytest.raises(ConfigError) as exc:
            array_gain_exact(lay, inside)
        feed, antenna = re.fullmatch(r"feed point x_0=(\S+) m lies right of the leftmost "
                                     r"antenna at (\S+) m", str(exc.value)).groups()
        assert feed != antenna and float(antenna) == leftmost


def test_attenuation_values():
    # The feed-to-array run attenuates every antenna alike, so moving the feed
    # `run` metres left scales the gain by the power factor 10^(-alpha run / 10).
    lossy = SystemConfig(alpha_wg_db_per_m=0.08)
    lay = symmetric_uniform_layout(8, 0.02)

    def gain_fed_from(run, alpha):
        fed = replace(lossy, x_0_m=lossy.x_u_m + lay[0] - run, alpha_wg_db_per_m=alpha)
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
        a_exact = array_gain_exact(offsets, cfg)
        a_sym = gain_symmetric(half, cfg)
        assert a_exact == pytest.approx(a_sym, rel=1e-12)


def test_exact_gain_of_a_stack_is_each_layouts_gain(cfg):
    # one layout gives a float, as gain_mc does; a stack of them an array
    stack = symmetric_uniform_layout(6, np.array([0.004, 0.01, 0.03]))
    gains = array_gain_exact(stack, cfg)
    assert type(array_gain_exact(stack[0], cfg)) is float
    assert gains.shape == (3,)
    assert gains.tolist() == [array_gain_exact(lay, cfg) for lay in stack]


def test_feed_invariance_without_loss(cfg):
    lay = symmetric_uniform_layout(6, 0.01)
    base = array_gain_exact(lay, cfg)
    for x0 in (-0.1, -3.0, -123.456):
        shifted = SystemConfig(x_0_m=x0, alpha_wg_db_per_m=0.0)
        assert array_gain_exact(lay, shifted) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("x_u_m", [123.456, 1e6, -1e6, 1e9, 1e17])
def test_library_layout_gains_ignore_the_user_position(x_u_m):
    # layouts hold offsets from the user, so moving the user changes no bit
    # of either gain, even where absolute positions round every gap to 1e-10 m;
    # a user past the domain's 1e6 m is refused as the scenario is built
    base = SystemConfig()
    if abs(x_u_m) > 1e6:
        with pytest.raises(ConfigError, match="^invalid-config: x_u_m must lie in "):
            replace(base, x_u_m=x_u_m)
        return
    far = replace(base, x_u_m=x_u_m)
    for build in (lambda c: symmetric_uniform_layout(100, 0.5 * c.wavelength),
                  lambda c: build_refined_layout(100, c)):
        assert array_gain_exact(build(far), far) == array_gain_exact(build(base), base)


def test_two_antennas_half_wavelength(cfg):
    # evaluate the mirrored pair at spacing wavelength/2 by hand
    lam = cfg.wavelength
    got = array_gain_exact(symmetric_uniform_layout(2, lam / 2), cfg)
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
        offsets = symmetric_uniform_layout(n, spacing)
        bound = cfg.eta / n * np.sum(1.0 / np.hypot(offsets, cfg.d_m)) ** 2
        assert array_gain_exact(offsets, cfg) <= bound * (1 + 1e-9)


def test_loss_never_raises_gain(cfg):
    lay = symmetric_uniform_layout(8, 0.02)
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


def mirrored(half):
    half = np.asarray(half)
    return np.concatenate([-half[::-1], half])


@settings(max_examples=60, deadline=None)
@given(cfg=configs, half=half_offsets)
def test_phase_free_bound_dominates_symmetric_gain(cfg, half):
    assert gain_symmetric(half, cfg) <= upper_bound_sum(half, cfg) * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(cfg=configs, half=half_offsets)
def test_exact_gain_equals_symmetric_form_anywhere(cfg, half):
    # compared on the scale of the phase-free bound, as deep nulls have no
    # relative accuracy
    lay = mirrored(half)
    scale = upper_bound_sum(half, cfg)
    assert abs(array_gain_exact(lay, cfg) - gain_symmetric(half, cfg)) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(cfg=configs, half=half_offsets, gap=st.floats(0.0, 9.99e5))
def test_lossless_gain_ignores_the_feed(cfg, half, gap):
    # the phase runs from the user's projection, so a lossless feed changes
    # no bit, however far away in the domain it is
    lay = mirrored(half)
    fed = replace(cfg, x_0_m=cfg.x_u_m + lay[0] - gap)
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
    fed = cfg if gap is None else replace(cfg, x_0_m=cfg.x_u_m + lay[0] - gap)
    low, high = (array_gain_exact(lay, replace(fed, alpha_wg_db_per_m=a)) for a in alphas)
    assert high <= low * (1 + 1e-12)


# ------------------------------------------------ the blockwise running sum

def same_bits(got, want):
    """Bit for bit, but for the sign of a zero, which adding 0.0 makes +: the
    loop's numpy-scalar complex-by-real product and the array one give an
    underflowing carry part opposite signs, and |s|^2 cannot tell them apart."""
    return got.dtype == want.dtype and (got + 0.0).tobytes() == (want + 0.0).tobytes()


@settings(max_examples=200, deadline=None)
@given(ufunc=st.sampled_from([np.add, np.maximum]), runs=st.sampled_from([1, 2, 7, 40, 300]),
       longest=st.sampled_from([1, 2, 60]), steps=st.sampled_from(["blocks", "fine", "any"]),
       origin=st.sampled_from([0.0, -300.0, 17.5]), decades=st.sampled_from([0.0, 2.0, 150.0]),
       zeros=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_scaled_accumulate_is_the_run_by_run_loop_bit_for_bit(ufunc, runs, longest, steps, origin,
                                                              decades, zeros, seed):
    # runs of 1 to `longest` values; steps between run scales of whole blocks
    # (100 decades, as the pair sums take them; 200 for the gains they square),
    # or fine enough that a total carries on over all 300 runs, or any;
    # values over up to 150 decades, or all of one size, so that they do
    rng = np.random.default_rng(seed)
    step = {"blocks": lambda: 100.0 * rng.integers(1, 4, runs - 1),
            "fine": lambda: rng.uniform(1e-4, 1e-2, runs - 1),
            "any": lambda: rng.uniform(1e-3, 400.0, runs - 1)}[steps]()
    scale = np.repeat(origin + np.cumsum([0.0, *step]), rng.integers(1, longest + 1, runs))
    magnitude = 10.0 ** rng.uniform(-50.0, decades - 50.0, scale.size)
    magnitude[rng.random(scale.size) < zeros] = 0.0
    values = magnitude * (np.exp(2j * np.pi * rng.random(scale.size)) if ufunc is np.add else 1.0)
    want = scaled_accumulate_loop(ufunc, values.copy(), scale)
    assert same_bits(_scaled_accumulate(ufunc, values, scale), want)


@pytest.mark.parametrize("alpha, blocks", [(10.0, 3), (100.0, 27), (1e4, 2677), (1e6, 100_000)])
def test_pair_sums_are_the_run_by_run_loop_bit_for_bit(cfg, alpha, blocks, monkeypatch):
    # the sweeps' own inputs: 100,000 uniform pairs over 3 to 100,000 blocks of
    # loss, their pair sums (np.add) and the running best of the gains (np.maximum)
    half = uniform_deltas(200_000, cfg)
    ph = pair_phasors(half, half, cfg)
    gains, scale = nested_gains(ph, cfg, alpha)
    assert np.unique(scale).size == blocks
    assert same_bits(_scaled_accumulate(np.maximum, gains, scale),
                     scaled_accumulate_loop(np.maximum, gains.copy(), scale))
    monkeypatch.setattr(channel, "_scaled_accumulate", scaled_accumulate_loop)
    assert same_bits(gains, nested_gains(ph, cfg, alpha)[0])
