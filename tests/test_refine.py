import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from passgain import refine
from passgain.channel import array_gain_exact
from passgain.errors import ConfigError, NumericsError
from passgain.experiments import MAX_SWEEP_SIZE, run_gain_vs_n
from passgain.gain import gain_uniform, uniform_deltas, upper_bound_sum
from passgain.geometry import SystemConfig
from passgain.refine import build_refined_layout, combined_path, refined_half_deltas

# ------------------------------------------------ per-antenna recurrence
#
# The antenna-by-antenna form of the refinement, one closed-form root per
# antenna.  It is the oracle the lattice walk of refined_half_deltas is held
# to, bit for bit, in sequential_half_deltas below.


@np.errstate(**refine._QUIET)
def target_path(delta_n, cfg):
    """Next wavelength multiple at or above the combined path (right side)."""
    if delta_n < 0:
        raise ConfigError("right-side offsets must be >= 0")
    return cfg.wavelength * refine._lattice_index(delta_n, cfg, "right")


@np.errstate(**refine._QUIET)
def target_path_left(delta_n, cfg):
    """Next wavelength multiple at or below the combined path (left side)."""
    if delta_n < 0:
        raise ConfigError("left-side offsets must be >= 0")
    return cfg.wavelength * refine._lattice_index(delta_n, cfg, "left")


def path_tolerance(delta, cfg):
    """Largest |path - target| the walk accepts at offset ``delta``: the 1e-9 m
    snap, or 4 ulp of the path's larger term (on the left the path is a
    difference of two terms, and its rounding error scales with them)."""
    return np.maximum(refine._PATH_SNAP_M,
                      4 * np.spacing(np.hypot(cfg.d_m, delta) + cfg.n_eff * np.abs(delta)))


def _check_residual(delta, target, cfg, where):
    miss = combined_path(delta, cfg) - target
    if not abs(miss) <= path_tolerance(delta, cfg):
        raise NumericsError(f"{where}: refined path misses target by {miss:.3e} m")


@np.errstate(**refine._QUIET)
def refine_shift(delta_n, cfg):
    """Outward shift aligning a right-side antenna: closed-form solution of
    sqrt(d^2 + (delta+v)^2) + n_eff (delta+v) = target."""
    d_n = target_path(delta_n, cfg)
    v = max(0.0, refine._root(d_n, cfg, "right") - delta_n)
    _check_residual(delta_n + v, d_n, cfg, "refine_shift")
    return v


@np.errstate(**refine._QUIET)
def refine_shift_left(delta_n, cfg):
    """Outward (leftward) shift aligning a left-side antenna: solves
    sqrt(d^2 + (delta+w)^2) - n_eff (delta+w) = target."""
    t = target_path_left(delta_n, cfg)
    u = refine._root(t, cfg, "left")
    if not np.isfinite(u):
        raise NumericsError(f"left-side targets are exhausted (no offset has path {t:.3e} m)")
    w = max(0.0, u - delta_n)
    _check_residual(-(delta_n + w), t, cfg, "refine_shift_left")
    return w


def bisect_shift(delta, target, cfg, sign=1.0, hi=None):
    """Oracle: root of the combined-path equation by plain bisection."""
    f = lambda v: combined_path(sign * (delta + v), cfg) - target
    lo = 0.0
    if hi is None:
        hi = cfg.wavelength if sign > 0 else cfg.wavelength / (cfg.n_eff - 1) * 1.01
    assert f(lo) * f(hi) <= 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_target_path_quarter_wavelength(cfg):
    lam = cfg.wavelength
    d1 = target_path(0.25 * lam, cfg)
    assert d1 / lam == pytest.approx(281.0, abs=1e-9)
    assert d1 == pytest.approx(3.00863, rel=1e-5)


def test_target_path_ceiling_bounds(cfg):
    rng = np.random.default_rng(3)
    lam = cfg.wavelength
    for delta in rng.uniform(0.0, 5.0, size=200):
        p = combined_path(delta, cfg)
        d_n = target_path(float(delta), cfg)
        assert d_n >= p - 1e-9
        assert d_n - p < lam


def test_refine_shift_quarter_wavelength(cfg):
    lam = cfg.wavelength
    v = refine_shift(0.25 * lam, cfg)
    assert v == pytest.approx(3.313e-3, rel=1e-3)
    oracle = bisect_shift(0.25 * lam, target_path(0.25 * lam, cfg), cfg)
    assert v == pytest.approx(oracle, abs=1e-9)


def test_refine_shift_against_bisection(cfg):
    rng = np.random.default_rng(17)
    for delta in rng.uniform(0.0, 4.0, size=100):
        v = refine_shift(float(delta), cfg)
        target = target_path(float(delta), cfg)
        assert v == pytest.approx(bisect_shift(float(delta), target, cfg), abs=1e-9)
        assert 0.0 <= v <= cfg.wavelength


def test_refine_shift_left_against_bisection(cfg):
    rng = np.random.default_rng(18)
    for delta in rng.uniform(0.0, 4.0, size=100):
        w = refine_shift_left(float(delta), cfg)
        target = target_path_left(float(delta), cfg)
        assert w == pytest.approx(
            bisect_shift(float(delta), target, cfg, sign=-1.0), abs=1e-9
        )
        assert 0.0 <= w <= cfg.wavelength / (cfg.n_eff - 1.0) + 1e-9


def test_exact_multiple_needs_no_shift(cfg):
    # construct an offset whose combined path is already a wavelength multiple
    lam = cfg.wavelength
    d_n = 285.0 * lam
    ne, d = cfg.n_eff, cfg.d_m
    u = (d_n * ne - math.sqrt(d_n**2 + d**2 * (ne**2 - 1.0))) / (ne**2 - 1.0)
    assert combined_path(u, cfg) == pytest.approx(d_n, abs=1e-9)
    assert refine_shift(u, cfg) == 0.0


def test_unit_index_branch():
    # synthetic n_eff = 1 case, verified against the same bisection oracle
    cfg1 = SystemConfig(n_eff=1.0, alpha_wg_db_per_m=0.0)
    rng = np.random.default_rng(29)
    for delta in rng.uniform(0.0, 2.0, size=50):
        v = refine_shift(float(delta), cfg1)
        target = target_path(float(delta), cfg1)
        # closed form for n_eff = 1: (d_n^2 - d^2) / (2 d_n) - delta
        explicit = (target**2 - cfg1.d_m**2) / (2.0 * target) - float(delta)
        assert v == pytest.approx(max(0.0, explicit), abs=1e-12)
        assert v == pytest.approx(bisect_shift(float(delta), target, cfg1), abs=1e-9)


def test_refined_layout_paths_are_wavelength_multiples(cfg):
    lam = cfg.wavelength
    for n in (2, 10, 100, 200):
        layout = build_refined_layout(n, cfg)
        _, _, t_right = refined_half_deltas(n // 2, cfg, side="right")
        _, _, t_left = refined_half_deltas(n // 2, cfg, side="left")
        for x, target in zip(layout, np.concatenate([t_left[::-1], t_right])):
            p = combined_path(x, cfg)
            assert abs(p - lam * round(p / lam)) <= 1e-9
            assert p == pytest.approx(target, abs=1e-9)
        # phase coherence in radians
        for x in layout:
            p = combined_path(x, cfg)
            phase = cfg.k0 * p
            err = abs(phase - 2 * math.pi * round(phase / (2 * math.pi)))
            assert err <= 1e-6


def test_refined_beats_uniform_everywhere(cfg):
    for n in range(2, 201, 2):
        a_ref = array_gain_exact(build_refined_layout(n, cfg), cfg)
        assert a_ref >= gain_uniform(n, cfg)


def test_refined_tracks_phase_free_bound(cfg):
    for n in range(2, 201, 2):
        layout = build_refined_layout(n, cfg)
        half = layout[n // 2 :]
        bound = upper_bound_sum(half, cfg)
        a_ref = array_gain_exact(layout, cfg)
        assert a_ref >= 0.90 * bound


def test_refined_spacing_preserved(cfg):
    lam = cfg.wavelength
    gaps = np.diff(build_refined_layout(120, cfg))
    assert gaps.min() >= cfg.delta_p * lam - 1e-12


def test_shift_magnitudes_and_running_sum(cfg):
    lam = cfg.wavelength
    _, shifts, _ = refined_half_deltas(100, cfg, side="right")
    assert np.all(shifts >= 0.0)
    assert np.all(shifts <= lam)
    for k in range(1, len(shifts) + 1):
        assert shifts[:k].sum() <= k * lam
    _, left, _ = refined_half_deltas(100, cfg, side="left")
    assert np.all(left >= 0.0)
    assert np.all(left <= lam / (cfg.n_eff - 1.0) + 1e-12)


def test_sequential_construction_prefix_stable(cfg):
    # offsets for a small array are the prefix of a larger one
    d20, _, _ = refined_half_deltas(20, cfg, side="right")
    d100, _, _ = refined_half_deltas(100, cfg, side="right")
    assert np.array_equal(d20, d100[:20])
    l20, _, _ = refined_half_deltas(20, cfg, side="left")
    l100, _, _ = refined_half_deltas(100, cfg, side="left")
    assert np.array_equal(l20, l100[:20])


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("n_eff", [1.001, 1.44, 2.0])
def test_refined_prefix_and_uniform_floor(n_eff, side):
    # the Monte Carlo sweep lays out only the pairs its draws can reach: a
    # shorter walk, or one ending at the first antenna past a reach, must give
    # the bits of a longer one's prefix, and no refined offset may lie inside
    # the uniform offset of its index
    for delta_p in (0.3, 0.5, 1.0, 2.0, 3.7):
        cfg = SystemConfig(n_eff=n_eff, delta_p=delta_p, alpha_wg_db_per_m=0.0)
        walk = refined_half_deltas(3000, cfg, side=side)
        full = walk[0]
        for m in (1, 2, 17, 640, 2999):
            assert np.array_equal(refined_half_deltas(m, cfg, side=side)[0], full[:m])
            cut = refined_half_deltas(3000, cfg, side=side, reach=full[m - 1])
            assert all(np.array_equal(a, b[:m + 1]) for a, b in zip(cut, walk))
        assert np.all(full >= uniform_deltas(6000, cfg))


@settings(max_examples=200, deadline=None)
@given(
    cfg=st.builds(SystemConfig, f_c_hz=st.floats(1e9, 3e11), d_m=st.floats(0.03, 30.0),
                  n_eff=st.just(1.0) | st.floats(1.0, 3.0), delta_p=st.floats(0.1, 10.0)),
    side=st.sampled_from(["right", "left"]),
    n_half=st.integers(1, 3000),
)
def test_refined_offsets_hold_their_bounds_anywhere(cfg, side, n_half):
    # every path on its target, every shift within its side's bound, and no
    # gap below the nominal spacing by more than 1e-12 m plus 3 ulp of the two
    # offsets (beyond 8192 m float64 cannot resolve 1e-12 m), nor any offset
    # inside its rounded seed
    try:
        deltas, shifts, targets = refined_half_deltas(n_half, cfg, side=side)
    except NumericsError as exc:
        # near n_eff = 1 the left path only tends to 0, so its targets run out
        if "left-side targets are exhausted" not in str(exc):
            raise
        reject()
    lam, sign = cfg.wavelength, 1 if side == "right" else -1
    miss = combined_path(sign * deltas, cfg) - targets
    assert np.all(np.abs(miss) <= path_tolerance(deltas, cfg))
    assert np.all(shifts >= 0.0)
    if side == "right":
        assert np.all(shifts < lam)
    elif cfg.n_eff > 1.0:
        assert np.all(shifts <= lam / (cfg.n_eff - 1.0))
    step = cfg.delta_p * lam
    slack = 1e-12 + 3 * np.spacing(deltas[:-1] + deltas[1:])
    assert np.all(np.diff(deltas) >= step - slack)
    assert np.all(deltas[1:] >= deltas[:-1] + step)


@pytest.mark.parametrize("x_u_m", [0.0, 123.456, -1e4])
def test_refined_layout_far_out_keeps_its_gaps(x_u_m):
    # at n_eff one ulp above 1 the left side reaches 4.7e7 m, where float64
    # cannot resolve 1e-12 m: the gaps hold the spacing to its rounding, each
    # antenna at or past its rounded seed, the previous one plus the spacing
    cfg = SystemConfig(f_c_hz=1e9, d_m=1.0, n_eff=1.0000000000000002, delta_p=0.5,
                       x_u_m=x_u_m)
    offsets, step = build_refined_layout(10, cfg), cfg.delta_p * cfg.wavelength
    assert offsets[0] < -4.7e7
    for side in (-offsets[4::-1], offsets[5:]):
        assert side[0] >= step / 2 and np.all(side[1:] >= side[:-1] + step)


def test_walk_to_a_reach_leaves_out_the_targets_beyond_it():
    # with n_eff = 1 the left path sqrt(d^2 + delta^2) - delta tends to 0, and
    # at delta_p = 0.3 the left targets run out at antenna 281, 52 m out
    cfg = SystemConfig(n_eff=1.0, delta_p=0.3)
    with pytest.raises(NumericsError, match="exhausted at antenna 281"):
        refined_half_deltas(5000, cfg, side="left")
    walk = refined_half_deltas(280, cfg, side="left")
    cut = refined_half_deltas(5000, cfg, side="left", reach=45.0)
    m = cut[0].size
    assert walk[0][m - 2] <= 45.0 < walk[0][m - 1]
    assert all(np.array_equal(a, b[:m]) for a, b in zip(cut, walk))
    with pytest.raises(NumericsError, match="exhausted at antenna 281"):
        refined_half_deltas(5000, cfg, side="left", reach=walk[0][-1])


def test_build_refined_layout_validation(cfg):
    with pytest.raises(ConfigError):
        build_refined_layout(3, cfg)
    with pytest.raises(ConfigError):
        build_refined_layout(0, cfg)
    with pytest.raises(ConfigError, match="at least one antenna per side"):
        refined_half_deltas(0, cfg)
    with pytest.raises(ConfigError, match="side must be 'right' or 'left', got 'up'"):
        refined_half_deltas(5, cfg, side="up")


def test_refined_layout_raises_the_left_side_failure_when_the_right_side_walks():
    # at n_eff = 1 the left targets run out at antenna 168; the right side,
    # walked only to name its own failure first, has none
    cfg = SystemConfig(n_eff=1.0, delta_p=4.0)
    assert refined_half_deltas(168, cfg, side="right")[0].size == 168
    with pytest.raises(NumericsError, match="^left-side targets are exhausted at antenna 168 "):
        build_refined_layout(336, cfg)


# ------------------------------------------------------------- lattice walk


def sequential_half_deltas(n_half, cfg, side):
    """Oracle: the per-antenna recurrence the lattice walk replaced, built from
    the per-antenna functions above.  Returns (deltas, shifts, targets) of
    the antennas refined before the first NumericsError, and the number of
    antennas refined (n_half when none was raised)."""
    shift_fn, sign = (refine_shift, 1.0) if side == "right" else (refine_shift_left, -1.0)
    lam = cfg.wavelength
    step = cfg.delta_p * lam
    deltas, shifts, targets = [], [], []
    delta = step / 2.0
    for _ in range(n_half):
        try:
            v = shift_fn(delta, cfg)
        except NumericsError:
            break
        delta += v
        deltas.append(delta)
        shifts.append(v)
        targets.append(lam * round(combined_path(sign * delta, cfg) / lam))
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
        *expected, refined = sequential_half_deltas(max(N_HALVES), cfg, side)
        edge = {refined, refined + 1} - {0} if refined < max(N_HALVES) else set()
        for n_half in sorted({*N_HALVES, *edge}):
            if refined < n_half:
                raised += 1
                with pytest.raises(NumericsError, match="exhausted" if side == "left" else ""):
                    refined_half_deltas(n_half, cfg, side=side)
                continue
            got = refined_half_deltas(n_half, cfg, side=side)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b[:n_half])
    # with n_eff = 1 the left path falls below one wavelength after 128-280
    # antennas; the walk's windows reach past index 0 well before a target
    # does, and only the antenna after the last refined one raises
    assert (raised > 0) == ((n_eff, side) == (1.0, "left"))


@settings(max_examples=100, deadline=None)
@given(log_dp=st.floats(math.log10(0.05), 6.0), n_eff=st.floats(1.0, 2.5), coarse=st.booleans(),
       side=st.sampled_from(["right", "left"]), n_half=st.integers(1, 1500),
       reach=st.none() | st.floats(0.0, 2.0))
@example(log_dp=6.0, n_eff=1.44, coarse=True, side="right", n_half=1500, reach=1.9)
@example(log_dp=6.0, n_eff=1.44, coarse=True, side="left", n_half=1500, reach=None)
def test_lattice_walk_matches_sequential_recurrence_anywhere(log_dp, n_eff, coarse, side,
                                                             n_half, reach):
    # pass boundaries land anywhere; two-digit spacings and indices make
    # (1 + n_eff) delta_p nearly whole, and at large spacings rounding then
    # flips the increment every few antennas.  A finite reach is a fraction
    # of twice the uniform extent.  Both give the recurrence's bits, or both
    # fail before the walk ends
    delta_p = 10.0**log_dp
    if coarse:
        delta_p, n_eff = float(f"{delta_p:.2g}"), round(n_eff, 2)
    cfg = SystemConfig(n_eff=n_eff, delta_p=delta_p, alpha_wg_db_per_m=0.0)
    reach = np.inf if reach is None else reach * n_half * cfg.delta_p * cfg.wavelength
    *expected, refined = sequential_half_deltas(n_half, cfg, side)
    past = np.flatnonzero(expected[0] > reach)
    if past.size == 0 and refined < n_half:
        with pytest.raises(NumericsError):
            refined_half_deltas(n_half, cfg, side=side, reach=reach)
        return
    stop = past[0] + 1 if past.size else n_half
    for a, b in zip(refined_half_deltas(n_half, cfg, side=side, reach=reach), expected):
        assert np.array_equal(a, b[:stop])


def test_lattice_walk_keeps_the_sequential_rounding():
    # setting delta = u(j) directly, instead of seed + (u(j) - seed), is one
    # ulp off at the first antenna here
    cfg = SystemConfig(n_eff=1.1, delta_p=0.1, alpha_wg_db_per_m=0.0)
    deltas, _, targets = refined_half_deltas(7, cfg, side="left")
    assert deltas[0] != refine._root(targets[0], cfg, "left")
    assert np.array_equal(deltas, sequential_half_deltas(7, cfg, "left")[0])


@pytest.mark.parametrize("side", ["right", "left"])
def test_lattice_walk_seed_within_snap_of_a_multiple(side):
    # delta_p puts the first seed 2e-10 m outside the offset whose path is a
    # multiple, so its path is within the 1e-9 m snap: that antenna keeps its
    # seed (shift 0), which lies off the root u(j)
    base = SystemConfig(alpha_wg_db_per_m=0.0)
    lam = base.wavelength
    j = 290 if side == "right" else 270
    cfg = replace(base, delta_p=2.0 * (refine._root(j * lam, base, side) + 2e-10) / lam)
    deltas, shifts, targets = refined_half_deltas(200, cfg, side=side)
    assert shifts[0] == 0.0 and targets[0] == j * lam
    for a, b in zip((deltas, shifts, targets), sequential_half_deltas(200, cfg, side)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("delta_p", [1e3, 1e6])
def test_lattice_walk_matches_sequential_recurrence_at_huge_spacing(delta_p, side):
    # near 1e6 wavelengths float rounding decides both the increment and
    # whether an antenna shifts at all, so runs end every few antennas, on
    # unshifted ones too; the successor of an unshifted antenna must come from
    # its seed, not from the root its index calls for
    cfg = SystemConfig(delta_p=delta_p, alpha_wg_db_per_m=0.0)
    *expected, refined = sequential_half_deltas(1500, cfg, side)
    assert refined == 1500
    for a, b in zip(refined_half_deltas(1500, cfg, side=side), expected):
        assert np.array_equal(a, b)
    shifts, inc = expected[1], np.diff(np.round(expected[2] / cfg.wavelength))
    run_ends_unshifted = (shifts[1:-1] == 0.0) & (inc[1:] != inc[:-1])
    if delta_p == 1e6:
        assert np.sum(shifts == 0.0) > 200 and run_ends_unshifted.any()
    else:
        assert np.all(shifts > 0.0)


def walk_roots(monkeypatch, run):
    """``(passes, roots)`` of the walks that ``run`` makes: its calls of
    ``refine._root``, one per numpy pass, and the roots they evaluate."""
    counts = {"calls": 0, "roots": 0}
    root = refine._root

    def counted_root(t, cfg, side):
        counts["calls"] += 1
        counts["roots"] += np.size(t)
        return root(t, cfg, side)

    monkeypatch.setattr(refine, "_root", counted_root)
    run()
    return counts["calls"], counts["roots"]


def cli_run(argv, tmp_path):
    from passgain.cli import main
    return lambda: main([*argv, "--seed", "1", "--out", str(tmp_path / "out.csv")])


MC_TRIALS = ["maxgain-vs-spacing", "--trials", "2000", "--delta-p", "0.5,1,1.5,2", "--case", "both"]
README_GAIN_VS_N = ["gain-vs-n", "--delta-p", "0.5,1", "--case", "both", "--n-max", "6000"]


@pytest.mark.parametrize("argv, most", [(MC_TRIALS, 32), (README_GAIN_VS_N, 15)])
def test_walk_sizes_its_passes_from_the_runs_walked(monkeypatch, tmp_path, argv, most):
    # each side is 1-3 runs of one increment, 1,800-3,000 antennas long, all
    # shifted, so a pass ends only where the increment changes: 2-5 passes a side
    assert walk_roots(monkeypatch, cli_run(argv, tmp_path))[0] <= most


@pytest.mark.parametrize("argv, most", [(MC_TRIALS, 24_000), (README_GAIN_VS_N, 15_100)])
def test_walk_evaluates_each_root_once_and_none_past_the_reach(monkeypatch, tmp_path, argv, most):
    # 15,824 and 12,000 antennas: no pass runs past the first antenna beyond
    # the reach, and the whole-walk check reads the roots the passes took
    assert walk_roots(monkeypatch, cli_run(argv, tmp_path))[1] <= most


@pytest.mark.parametrize("side", ["right", "left"])
def test_walk_check_catches_a_wrong_root(monkeypatch, side):
    # the check trusts the passes' roots for the shifts, but not for the path
    root = refine._root
    monkeypatch.setattr(refine, "_root", lambda t, cfg, s: root(t, cfg, s) + 1e-6)
    with pytest.raises(NumericsError, match=f"^{side}-side antenna 1: .*misses target"):
        refined_half_deltas(300, SystemConfig(alpha_wg_db_per_m=0.0), side=side)


def test_lattice_indices_stay_exact_over_the_domain():
    # a side holds at most the sweeps' pair limit, refused before any walk,
    # and one antenna moves its index by at most (n_eff + 1) delta_p + 1.  At
    # the domain's corner of the fastest growth, from a first index below
    # 3.4e10, 10^6 antennas keep every index below 1.2e13, far from 2**53
    cfg = SystemConfig(f_c_hz=1e15, d_m=1e4, n_eff=10.0, delta_p=1e6)
    for side in ("right", "left"):
        with pytest.raises(ConfigError, match="at least one antenna per side and at most 1000000$"):
            refined_half_deltas(MAX_SWEEP_SIZE + 1, cfg, side=side)
        index = np.round(refined_half_deltas(2000, cfg, side=side)[2] / cfg.wavelength)
        assert abs(index[0]) < 3.4e10 and np.max(np.abs(np.diff(index))) <= 11 * 1e6 + 1
        assert abs(index[0]) + MAX_SWEEP_SIZE * (11 * 1e6 + 1) < 1.2e13 < 2.0**53


def test_walk_refuses_offsets_past_the_length_bound():
    # at n_eff one ulp above 1 the left path crosses 0 only 47 km out, then
    # falls by 2.2e-16 m per metre: the 22nd left antenna lies 1.35e18 m out.
    # The walk refuses it, so no sweep sums a loss over such a run
    cfg = SystemConfig(f_c_hz=1e6, d_m=1e-3, n_eff=1.0000000000000002, delta_p=1e3,
                       alpha_wg_db_per_m=1e6)
    match = r"^left-side antenna 22 lies 1\.350e\+18 m out, past the 1e\+11 m length bound$"
    assert refined_half_deltas(21, cfg, side="left")[0][-1] <= 1e11
    with pytest.raises(NumericsError, match=match):
        refined_half_deltas(22, cfg, side="left")
    with pytest.raises(NumericsError, match=match):
        run_gain_vs_n(cfg, (1e3,), "2", n_max=2000, n_step=2)


def test_walk_rejects_non_finite_lattice_index(monkeypatch):
    # in the domain only the left side at n_eff = 1 meets one, where its
    # targets run out; a root that is not finite stops either side there
    monkeypatch.setattr(refine, "_root", lambda t, cfg, side: np.full(np.shape(t), np.nan)[()])
    with pytest.raises(NumericsError, match="^right-side antenna 1: .*no finite lattice index"):
        refined_half_deltas(10, SystemConfig(), side="right")


def test_walk_never_starts_from_an_inexact_index():
    # the first index is at most d / wavelength + (n_eff + 1) delta_p / 2 + 1:
    # at the domain's corner below 3.4e10, far from 2**53, on either side
    cfg = SystemConfig(f_c_hz=1e15, d_m=1e4, n_eff=10.0, delta_p=1e6)
    for side in ("right", "left"):
        first = refine._lattice_index(cfg.delta_p * cfg.wavelength / 2, cfg, side)
        assert abs(first) < 3.4e10
        assert np.array_equal(refined_half_deltas(10, cfg, side=side)[0],
                              sequential_half_deltas(10, cfg, side)[0])


# ------------------------------------------------------------ stable roots


@pytest.mark.parametrize("n_eff", [1.0, 1.0 + 1e-12, 1.0000001, 1.001, 1.44, 2.0])
@np.errstate(**refine._QUIET)  # at n_eff = 1 the left branch unused at t > 0 divides by 0
def test_roots_hold_the_path_near_unit_index(n_eff):
    cfg = SystemConfig(n_eff=n_eff, alpha_wg_db_per_m=0.0)
    lam = cfg.wavelength
    j = np.arange(1, 20001)
    right = cfg.d_m + lam * j
    u = refine._root(right, cfg, "right")
    assert np.max(np.abs(combined_path(u, cfg) - right)) <= 1e-12
    left = cfg.d_m * j / j.size  # targets in (0, d]
    u = refine._root(left, cfg, "left")
    assert np.max(np.abs(combined_path(-u, cfg) - left)) <= 1e-12


def test_left_root_at_negative_target():
    # the rationalized left form is 0/0 at t = -d; the direct one holds t <= 0
    cfg = SystemConfig(alpha_wg_db_per_m=0.0)
    t = -cfg.d_m * (1.0 + 1e-9)
    u = refine._root(t, cfg, "left")
    assert abs(combined_path(-u, cfg) - t) <= 1e-12


def test_nearly_unit_index_refines_both_sides():
    cfg = SystemConfig(n_eff=1.0000001, alpha_wg_db_per_m=0.0)
    deltas, _, targets = refined_half_deltas(3000, cfg, side="right")
    assert np.max(np.abs(combined_path(deltas, cfg) - targets)) <= 1e-9
    # left: every antenna with a positive target refines; past them the walk
    # runs through chains of unshifted antennas out to 8e7 m, like the
    # recurrence.  There float64 cannot hold 1e-9 m: the paths hit their
    # targets to within 4 ulp of their terms instead
    *expected, refined = sequential_half_deltas(3000, cfg, "left")
    assert refined == 3000
    assert np.sum(expected[2] > 0.0) > 250 and np.any(np.diff(expected[2]) == 0.0)
    deltas, shifts, targets = refined_half_deltas(3000, cfg, side="left")
    for a, b in zip((deltas, shifts, targets), expected):
        assert np.array_equal(a, b)
    miss = np.abs(combined_path(-deltas, cfg) - targets)
    terms = np.hypot(cfg.d_m, deltas) + cfg.n_eff * deltas
    assert deltas[-1] > 8e7 and np.max(miss) > 1e-9
    assert np.all(miss <= np.maximum(1e-9, 4 * np.spacing(terms)))


@pytest.mark.parametrize("side", ["right", "left"])
def test_path_check_at_huge_spacing_is_float_resolution(side):
    # at 1e6 wavelengths the paths reach 1e7 m, whose ulp is about 1.9e-9 m:
    # the walk is held to 4 ulp of the path's terms, not to the 1e-9 m snap
    cfg = SystemConfig(delta_p=1e6, alpha_wg_db_per_m=0.0)
    deltas, _, targets = refined_half_deltas(600, cfg, side=side)
    sign = 1.0 if side == "right" else -1.0
    miss = np.abs(combined_path(sign * deltas, cfg) - targets)
    terms = np.hypot(cfg.d_m, deltas) + cfg.n_eff * deltas
    assert np.max(miss) > 1e-9
    assert np.all(miss <= 4 * np.spacing(terms))
