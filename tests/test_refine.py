import math
from dataclasses import replace

import numpy as np
import pytest

from passgain import refine
from passgain.channel import array_gain_exact
from passgain.errors import ConfigError, NumericsError
from passgain.gain import gain_uniform, upper_bound_sum
from passgain.geometry import SystemConfig, derive_constants
from passgain.refine import (
    build_refined_layout,
    combined_path,
    refine_shift,
    refine_shift_left,
    refined_half_deltas,
    target_path,
    target_path_left,
)


def bisect_shift(delta, target, cfg, consts, sign=1.0, hi=None):
    """Oracle: root of the combined-path equation by plain bisection."""
    f = lambda v: combined_path(sign * (delta + v), cfg, consts) - target
    lo = 0.0
    if hi is None:
        hi = consts.wavelength if sign > 0 else consts.wavelength / (cfg.n_eff - 1) * 1.01
    assert f(lo) * f(hi) <= 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_target_path_quarter_wavelength(cfg, consts):
    lam = consts.wavelength
    d1 = target_path(0.25 * lam, cfg, consts)
    assert d1 / lam == pytest.approx(281.0, abs=1e-9)
    assert d1 == pytest.approx(3.00863, rel=1e-5)


def test_target_path_ceiling_bounds(cfg, consts):
    rng = np.random.default_rng(3)
    lam = consts.wavelength
    for delta in rng.uniform(0.0, 5.0, size=200):
        p = combined_path(delta, cfg, consts)
        d_n = target_path(float(delta), cfg, consts)
        assert d_n >= p - 1e-9
        assert d_n - p < lam


def test_refine_shift_quarter_wavelength(cfg, consts):
    lam = consts.wavelength
    v = refine_shift(0.25 * lam, cfg, consts)
    assert v == pytest.approx(3.313e-3, rel=1e-3)
    oracle = bisect_shift(0.25 * lam, target_path(0.25 * lam, cfg, consts), cfg, consts)
    assert v == pytest.approx(oracle, abs=1e-9)


def test_refine_shift_against_bisection(cfg, consts):
    rng = np.random.default_rng(17)
    for delta in rng.uniform(0.0, 4.0, size=100):
        v = refine_shift(float(delta), cfg, consts)
        target = target_path(float(delta), cfg, consts)
        assert v == pytest.approx(bisect_shift(float(delta), target, cfg, consts), abs=1e-9)
        assert 0.0 <= v <= consts.wavelength


def test_refine_shift_left_against_bisection(cfg, consts):
    rng = np.random.default_rng(18)
    for delta in rng.uniform(0.0, 4.0, size=100):
        w = refine_shift_left(float(delta), cfg, consts)
        target = target_path_left(float(delta), cfg, consts)
        assert w == pytest.approx(
            bisect_shift(float(delta), target, cfg, consts, sign=-1.0), abs=1e-9
        )
        assert 0.0 <= w <= consts.wavelength / (cfg.n_eff - 1.0) + 1e-9


def test_exact_multiple_needs_no_shift(cfg, consts):
    # construct an offset whose combined path is already a wavelength multiple
    lam = consts.wavelength
    d_n = 285.0 * lam
    ne, d = cfg.n_eff, cfg.d_m
    u = (d_n * ne - math.sqrt(d_n**2 + d**2 * (ne**2 - 1.0))) / (ne**2 - 1.0)
    assert combined_path(u, cfg, consts) == pytest.approx(d_n, abs=1e-9)
    assert refine_shift(u, cfg, consts) == 0.0


def test_unit_index_branch(consts):
    # synthetic n_eff = 1 case, verified against the same bisection oracle
    cfg1 = SystemConfig(n_eff=1.0, alpha_wg_db_per_m=0.0)
    c1 = derive_constants(cfg1)
    rng = np.random.default_rng(29)
    for delta in rng.uniform(0.0, 2.0, size=50):
        v = refine_shift(float(delta), cfg1, c1)
        target = target_path(float(delta), cfg1, c1)
        # closed form for n_eff = 1: (d_n^2 - d^2) / (2 d_n) - delta
        explicit = (target**2 - cfg1.d_m**2) / (2.0 * target) - float(delta)
        assert v == pytest.approx(max(0.0, explicit), abs=1e-12)
        assert v == pytest.approx(bisect_shift(float(delta), target, cfg1, c1), abs=1e-9)


def test_refined_layout_paths_are_wavelength_multiples(cfg, consts):
    lam = consts.wavelength
    for n in (2, 10, 100, 200):
        rl = build_refined_layout(n, cfg, consts)
        for x, target in zip(rl.layout.positions, rl.targets):
            p = combined_path(x - cfg.x_u_m, cfg, consts)
            assert abs(p - lam * round(p / lam)) <= 1e-9
            assert p == pytest.approx(target, abs=1e-9)
        # phase coherence in radians
        for x in rl.layout.positions:
            p = combined_path(x - cfg.x_u_m, cfg, consts)
            phase = consts.k0 * p
            err = abs(phase - 2 * math.pi * round(phase / (2 * math.pi)))
            assert err <= 1e-6


def test_refined_beats_uniform_everywhere(cfg, consts):
    for n in range(2, 201, 2):
        rl = build_refined_layout(n, cfg, consts)
        a_ref = array_gain_exact(rl.layout, cfg, consts, alpha_wg=0.0)
        assert a_ref >= gain_uniform(n, cfg, consts)


def test_refined_tracks_phase_free_bound(cfg, consts):
    for n in range(2, 201, 2):
        rl = build_refined_layout(n, cfg, consts)
        half = np.asarray(rl.layout.positions[n // 2 :]) - cfg.x_u_m
        bound = upper_bound_sum(half, cfg, consts)
        a_ref = array_gain_exact(rl.layout, cfg, consts, alpha_wg=0.0)
        assert a_ref >= 0.90 * bound


def test_refined_spacing_preserved(cfg, consts):
    lam = consts.wavelength
    rl = build_refined_layout(120, cfg, consts)
    gaps = np.diff(rl.layout.positions)
    assert gaps.min() >= cfg.delta_p * lam - 1e-12


def test_shift_magnitudes_and_running_sum(cfg, consts):
    lam = consts.wavelength
    rl = build_refined_layout(200, cfg, consts)
    shifts = np.asarray(rl.shifts)
    assert np.all(shifts >= 0.0)
    assert np.all(shifts <= lam)
    for k in range(1, len(shifts) + 1):
        assert shifts[:k].sum() <= k * lam
    left = np.asarray(rl.shifts_left)
    assert np.all(left >= 0.0)
    assert np.all(left <= lam / (cfg.n_eff - 1.0) + 1e-12)


def test_sequential_construction_prefix_stable(cfg, consts):
    # offsets for a small array are the prefix of a larger one
    d20, _, _ = refined_half_deltas(20, cfg, consts, side="right")
    d100, _, _ = refined_half_deltas(100, cfg, consts, side="right")
    assert np.array_equal(d20, d100[:20])
    l20, _, _ = refined_half_deltas(20, cfg, consts, side="left")
    l100, _, _ = refined_half_deltas(100, cfg, consts, side="left")
    assert np.array_equal(l20, l100[:20])


def test_build_refined_layout_validation(cfg, consts):
    with pytest.raises(ConfigError):
        build_refined_layout(3, cfg, consts)
    with pytest.raises(ConfigError):
        build_refined_layout(0, cfg, consts)


# ------------------------------------------------------------- lattice walk


def sequential_half_deltas(n_half, cfg, consts, side):
    """Oracle: the per-antenna recurrence the lattice walk replaced, built from
    the public per-antenna functions.  Returns (deltas, shifts, targets) of
    the antennas refined before the first NumericsError, and the number of
    antennas refined (n_half when none was raised)."""
    shift_fn, sign = (refine_shift, 1.0) if side == "right" else (refine_shift_left, -1.0)
    lam = consts.wavelength
    step = cfg.delta_p * lam
    deltas, shifts, targets = [], [], []
    delta = step / 2.0
    for _ in range(n_half):
        try:
            v = shift_fn(delta, cfg, consts)
        except NumericsError:
            break
        delta += v
        deltas.append(delta)
        shifts.append(v)
        targets.append(lam * round(combined_path(sign * delta, cfg, consts) / lam))
        delta += step
    return np.array(deltas), np.array(shifts), np.array(targets), len(deltas)


N_HALVES = (1, 7, 3000)


@pytest.mark.filterwarnings("error")  # no NaN index is ever cast or compared
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("n_eff", [1.0, 1.1, 1.44, 2.0])
def test_lattice_walk_matches_sequential_recurrence(n_eff, side):
    raised = 0
    for delta_p in (0.1, 0.5, 1.0, 1.5, 2.0, 7.3):
        cfg = SystemConfig(n_eff=n_eff, delta_p=delta_p, alpha_wg_db_per_m=0.0)
        consts = derive_constants(cfg)
        *expected, refined = sequential_half_deltas(max(N_HALVES), cfg, consts, side)
        edge = {refined, refined + 1} - {0} if refined < max(N_HALVES) else set()
        for n_half in sorted({*N_HALVES, *edge}):
            if refined < n_half:
                raised += 1
                with pytest.raises(NumericsError, match="exhausted" if side == "left" else ""):
                    refined_half_deltas(n_half, cfg, consts, side=side)
                continue
            got = refined_half_deltas(n_half, cfg, consts, side=side)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b[:n_half])
    # with n_eff = 1 the left path falls below one wavelength after 128-280
    # antennas; the walk's windows reach past index 0 well before a target
    # does, and only the antenna after the last refined one raises
    assert (raised > 0) == ((n_eff, side) == (1.0, "left"))


def test_lattice_walk_keeps_the_sequential_rounding():
    # setting delta = u(j) directly, instead of seed + (u(j) - seed), is one
    # ulp off at the first antenna here
    cfg = SystemConfig(n_eff=1.1, delta_p=0.1, alpha_wg_db_per_m=0.0)
    consts = derive_constants(cfg)
    deltas, _, targets = refined_half_deltas(7, cfg, consts, side="left")
    assert deltas[0] != refine._root(targets[0], cfg, "left")
    assert np.array_equal(deltas, sequential_half_deltas(7, cfg, consts, "left")[0])


@pytest.mark.parametrize("side", ["right", "left"])
def test_lattice_walk_seed_within_snap_of_a_multiple(side):
    # delta_p puts the first seed 2e-10 m outside the offset whose path is a
    # multiple, so its path is within the 1e-9 m snap: that antenna keeps its
    # seed (shift 0), which lies off the root u(j)
    base = SystemConfig(alpha_wg_db_per_m=0.0)
    consts = derive_constants(base)
    lam = consts.wavelength
    j = 290 if side == "right" else 270
    cfg = replace(base, delta_p=2.0 * (refine._root(j * lam, base, side) + 2e-10) / lam)
    deltas, shifts, targets = refined_half_deltas(200, cfg, consts, side=side)
    assert shifts[0] == 0.0 and targets[0] == j * lam
    for a, b in zip((deltas, shifts, targets), sequential_half_deltas(200, cfg, consts, side)):
        assert np.array_equal(a, b)


def test_walk_rejects_non_finite_lattice_index():
    cfg = SystemConfig(d_m=1e300)
    with pytest.raises(NumericsError, match="lattice index"):
        refined_half_deltas(10, cfg, derive_constants(cfg), side="right")


# ------------------------------------------------------------ stable roots


@pytest.mark.parametrize("n_eff", [1.0, 1.0 + 1e-12, 1.0000001, 1.001, 1.44, 2.0])
def test_roots_hold_the_path_near_unit_index(n_eff):
    cfg = SystemConfig(n_eff=n_eff, alpha_wg_db_per_m=0.0)
    consts = derive_constants(cfg)
    lam = consts.wavelength
    j = np.arange(1, 20001)
    right = cfg.d_m + lam * j
    u = refine._root(right, cfg, "right")
    assert np.max(np.abs(combined_path(u, cfg, consts) - right)) <= 1e-12
    left = cfg.d_m * j / j.size  # targets in (0, d]
    u = refine._root(left, cfg, "left")
    assert np.max(np.abs(combined_path(-u, cfg, consts) - left)) <= 1e-12


def test_left_root_at_negative_target():
    # the rationalized left form is 0/0 at t = -d; the direct one holds t <= 0
    cfg = SystemConfig(alpha_wg_db_per_m=0.0)
    consts = derive_constants(cfg)
    t = -cfg.d_m * (1.0 + 1e-9)
    u = refine._root(t, cfg, "left")
    assert abs(combined_path(-u, cfg, consts) - t) <= 1e-12


def test_nearly_unit_index_refines_right_and_exhausts_left():
    cfg = SystemConfig(n_eff=1.0000001, alpha_wg_db_per_m=0.0)
    consts = derive_constants(cfg)
    deltas, _, targets = refined_half_deltas(3000, cfg, consts, side="right")
    assert np.max(np.abs(combined_path(deltas, cfg, consts) - targets)) <= 1e-9
    # left: every antenna with a positive target refines; past them the walk
    # runs through chains of unshifted antennas at 1e5..1e7 m, like the
    # recurrence, until float64 cannot hold 1e-9 m there
    *expected, refined = sequential_half_deltas(3000, cfg, consts, "left")
    assert np.sum(expected[2] > 0.0) > 250 and np.any(np.diff(expected[2]) == 0.0)
    for a, b in zip(refined_half_deltas(refined, cfg, consts, side="left"), expected):
        assert np.array_equal(a, b)
    with pytest.raises(NumericsError, match="left-side targets are exhausted"):
        refined_half_deltas(refined + 1, cfg, consts, side="left")
