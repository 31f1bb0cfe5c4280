import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from passgain.channel import array_gain_exact
from passgain.errors import ConfigError
from passgain.experiments import (
    USER_HALF_RANGE_M,
    Curve,
    SweepSpec,
    _pair_gains,
    run_fmc_curve,
    run_fub_curve,
    run_gain_vs_delta_mc,
    run_gain_vs_n,
    run_maxgain_vs_spacing,
    run_sweep,
    write_csv,
)
from passgain.gain import gain_limit, max_gain_estimate, uniform_deltas
from passgain.geometry import AntennaLayout, SystemConfig
from passgain.refine import refined_half_deltas

BOTH_CASES = (("case1", 0.0), ("case2", 0.08))


def expand(curves):
    """One scalar Curve per CSV row, in input order."""
    for c in curves:
        n = np.size(c.x)
        for x, y, e in zip(*(np.broadcast_to(v, n).tolist() for v in (c.x, c.y, c.stderr))):
            yield Curve(c.series, x, y, e)


def by_series(curves):
    out = {}
    for p in expand(curves):
        out.setdefault(p.series, []).append(p)
    for rows in out.values():
        rows.sort(key=lambda p: p.x)
    return out


def reference_write_csv(curves, path, seed=0):
    """The per-row writer the column-wise one replaced: sort the rows by
    (series, x), check each, format each."""
    rows = sorted(expand(curves), key=lambda p: (p.series, p.x))
    for p in rows:
        if not (math.isfinite(p.x) and math.isfinite(p.y) and math.isfinite(p.stderr)):
            raise ConfigError(f"non-finite curve point in series {p.series!r}: {p}")
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={seed}\n")
        fh.write("series,x,y,stderr\n")
        for p in rows:
            fh.write(f"{p.series},{p.x:.11e},{p.y:.11e},{p.stderr:.11e}\n")
    return len(rows)


# ---------------------------------------------------------------- write_csv


def test_write_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path, seed=9)
    assert path.read_text() == "# seed=9\nseries,x,y,stderr\n"


def test_write_csv_sorts_interleaved(tmp_path):
    pts = [
        Curve("b", 2.0, 1.0),
        Curve("a", 5.0, 2.0),
        Curve("b", 1.0, 3.0),
        Curve("a", 0.5, 4.0),
    ]
    path = tmp_path / "sorted.csv"
    write_csv(pts, path)
    lines = path.read_text().splitlines()
    keys = [tuple(l.split(",")[:2]) for l in lines[2:]]
    assert keys == sorted(keys, key=lambda t: (t[0], float(t[1])))


def _random_blocks(rng):
    names = ["b", "a", "a_peak", "c", "b"]
    blocks = []
    for _ in range(12):
        name = names[rng.integers(len(names))]
        n = int(rng.integers(1, 40))
        x = np.round(rng.uniform(-3, 3, n), 1)  # ties within and across blocks
        y = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12)
        stderr = rng.choice([0.0, 1e-3, 2.5]) if rng.random() < 0.5 else np.abs(y) / 7.0
        blocks.append(Curve(name, x, y, stderr))
        blocks.append(Curve(name, float(x[0]), float(rng.normal())))
    return blocks


WRITER_CASES = {
    "random_blocks": _random_blocks(np.random.default_rng(5)),
    "tied_x": [Curve("s", np.zeros(4), np.arange(4.0)), Curve("s", 0.0, -1.0),
               Curve("r", np.array([1.0, 1.0]), np.array([3.0, 2.0]), 0.5)],
    "scalar_blocks": [Curve("b", 2.0, 1.0), Curve("a", 5.0, 2.0, 0.1), Curve("b", 1.0, 3.0),
                      Curve("a", 0.5, 4.0)],
    "negative_zero": [Curve("z", np.array([0.0, -0.0, 1.0]), np.array([-0.0, 0.0, -0.0]), -0.0),
                      Curve("z", -0.0, 5.0)],
    "fixed_value_block": [Curve("fixed", np.arange(2.0, 12.0, 2.0), 0.25)],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_write_csv_matches_per_row_reference(tmp_path, case):
    curves = WRITER_CASES[case]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    assert write_csv(curves, new, seed=3) == reference_write_csv(curves, ref, seed=3)
    assert new.read_bytes() == ref.read_bytes()


def test_write_csv_non_finite_names_series(tmp_path):
    for bad in (Curve("bad", np.arange(3.0), np.array([1.0, np.inf, 2.0])),
                Curve("bad", np.array([0.0, np.nan]), 1.0),
                Curve("bad", 1.0, 1.0, float("nan"))):
        curves = [Curve("good", np.arange(5.0), np.ones(5)), bad]
        for writer in (write_csv, reference_write_csv):
            with pytest.raises(ConfigError, match="'bad'"):
                writer(curves, tmp_path / "x.csv")


def test_write_csv_rejects_non_finite(tmp_path):
    with pytest.raises(ConfigError):
        write_csv([Curve("a", 0.0, float("nan"))], tmp_path / "x.csv")


def test_write_csv_format(tmp_path):
    path = tmp_path / "fmt.csv"
    write_csv([Curve("s", 1.0, 9.99e-5, 0.0)], path, seed=1)
    row = path.read_text().splitlines()[2]
    assert row == "s,1.00000000000e+00,9.99000000000e-05,0.00000000000e+00"


def test_write_csv_deterministic(tmp_path, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pts = run_maxgain_vs_spacing(cfg, (0.5,), BOTH_CASES, trials=10, seed=4, n_max=800)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(pts, f1, seed=4)
    write_csv(pts, f2, seed=4)
    assert f1.read_bytes() == f2.read_bytes()


# ------------------------------------------------------------- fast kernels


def test_pair_gains_match_exact_channel(consts):
    cfg = SystemConfig(x_0_m=-30.0)
    m_max = 40
    dr, _, _ = refined_half_deltas(m_max, cfg, consts, side="right")
    dl, _, _ = refined_half_deltas(m_max, cfg, consts, side="left")
    for alpha in (0.0, 0.08):
        g = _pair_gains(dr, dl, cfg, consts, alpha)
        for m in (1, 3, 17, 40):
            pos = tuple(
                np.concatenate([cfg.x_u_m - dl[:m][::-1], cfg.x_u_m + dr[:m]])
            )
            lay = AntennaLayout(
                positions=pos, center=cfg.x_u_m, min_spacing=cfg.delta_p * consts.wavelength
            )
            reference = array_gain_exact(lay, cfg, consts, alpha_wg=alpha)
            fast = g[m - 1] * 10.0 ** (-alpha * (cfg.x_u_m + 30.0) / 10.0)
            assert fast == pytest.approx(reference, rel=1e-12)


def test_maxgain_search_matches_brute_force_argmax(consts):
    # per draw, the argmax over every pair count whose leftmost antenna lies
    # right of the feed, on the sweep's own PCG64 draws.  With the feed at
    # -20 m the cap binds for part of the draws at both spacings
    cfg = SystemConfig(x_0_m=-20.0)
    trials, seed, n_max = 50, 21, 4000
    dps = (0.5, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pts = by_series(
            run_maxgain_vs_spacing(cfg, dps, BOTH_CASES, trials=trials, seed=seed, n_max=n_max)
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    runs = rng.uniform(-USER_HALF_RANGE_M, USER_HALF_RANGE_M, size=trials) - cfg.x_0_m
    m_max = n_max // 2
    for dp in dps:
        c = replace(cfg, delta_p=dp)
        half = uniform_deltas(n_max, c, consts)
        refined = tuple(
            refined_half_deltas(m_max, c, consts, side=side)[0] for side in ("right", "left")
        )
        for kind, (dr, dl) in (("uniform", (half, half)), ("refined", refined)):
            for label, alpha in BOTH_CASES:
                g = _pair_gains(dr, dl, c, consts, alpha)
                best = np.array([
                    g[: np.count_nonzero(dl <= run)].max() * 10.0 ** (-alpha * run / 10.0)
                    for run in runs
                ])
                mean = best.mean()
                stderr = best.std(ddof=1) / math.sqrt(trials)
                row = {p.x: p for p in pts[f"{kind}_{label}"]}[dp]
                assert row.y == pytest.approx(mean, rel=1e-12)
                assert row.stderr == pytest.approx(stderr, rel=1e-9, abs=1e-12 * mean)


def test_maxgain_rejects_draw_without_feasible_count():
    # the first antenna sits 0.5 delta_p wavelengths = 10.7 m left of the
    # user, more than the feed run of every draw within 10.7 m of the feed
    cfg = SystemConfig(x_0_m=-15.0, delta_p=2000.0)
    with pytest.raises(ConfigError, match="no feasible antenna count"):
        run_maxgain_vs_spacing(cfg, (2000.0,), BOTH_CASES, trials=30, seed=0, n_max=20)


# ------------------------------------------------------------------- curves


def test_fub_curve(cfg):
    pts = by_series(run_fub_curve(x_max=8.0, step=0.01))
    peak = pts["fub_peak"][0]
    assert peak.x == pytest.approx(3.32, abs=0.01)
    assert peak.y == pytest.approx(1.105, abs=0.005)
    ys = np.array([p.y for p in pts["fub"]])
    xs = np.array([p.x for p in pts["fub"]])
    i = int(np.argmax(ys))
    # unimodal on the grid: rises to the peak, falls after
    assert np.all(np.diff(ys[: i + 1]) > 0)
    assert np.all(np.diff(ys[i:]) < 0)
    assert xs[i] == pytest.approx(peak.x, abs=0.01)


def test_fmc_curve(cfg):
    pts = by_series(run_fmc_curve((1.44,), step=0.005))
    rows = pts["fmc_neff1.44"]
    assert rows[0].x == 0.0
    assert rows[0].y == pytest.approx(0.5, rel=1e-12)
    ys = np.array([p.y for p in rows])
    assert ys.max() > 1.0
    # non-monotone: falls somewhere, then rises again later
    drops = np.where(np.diff(ys) < 0)[0]
    rises = np.where(np.diff(ys) > 0)[0]
    assert drops.size and rises.size and rises.max() > drops.min()


def test_fmc_curve_multiple_indices():
    pts = by_series(run_fmc_curve((1.0, 1.44), step=0.01))
    assert set(pts) == {"fmc_neff1", "fmc_neff1.44"}


# ------------------------------------------------------------ gain versus N


@pytest.fixture(scope="module")
def gain_vs_n_points(cfg):
    return by_series(run_gain_vs_n(cfg, (0.5, 1.0), BOTH_CASES, n_max=4000, n_step=4))


def test_gain_vs_n_series_present(gain_vs_n_points):
    names = set(gain_vs_n_points)
    for dp in ("0.5", "1"):
        for case in ("case1", "case2"):
            for kind in ("bound", "refined", "uniform"):
                assert f"{kind}_dp{dp}_{case}" in names
                assert f"{kind}_dp{dp}_{case}_peak" in names
    assert "fixed" in names


def test_gain_vs_n_interior_peaks(gain_vs_n_points):
    for series in ("bound_dp0.5_case1", "refined_dp0.5_case1"):
        rows = gain_vs_n_points[series]
        peak = gain_vs_n_points[series + "_peak"][0]
        xs = [p.x for p in rows]
        assert min(xs) < peak.x < max(xs)
        # non-monotone: the curve falls beyond the peak
        assert rows[-1].y < peak.y


def test_gain_vs_n_peak_shrinks_with_spacing(gain_vs_n_points):
    for kind in ("bound", "refined"):
        tight = gain_vs_n_points[f"{kind}_dp0.5_case1_peak"][0]
        loose = gain_vs_n_points[f"{kind}_dp1_case1_peak"][0]
        assert loose.x < tight.x
        assert loose.y < tight.y


def test_gain_vs_n_loss_never_helps(gain_vs_n_points):
    for kind in ("bound", "refined", "uniform"):
        a = {p.x: p.y for p in gain_vs_n_points[f"{kind}_dp0.5_case1"]}
        b = {p.x: p.y for p in gain_vs_n_points[f"{kind}_dp0.5_case2"]}
        assert all(b[x] <= a[x] * (1 + 1e-12) for x in a)


def test_gain_vs_n_bound_dominates_and_below_limit(cfg, consts, gain_vs_n_points):
    limit = gain_limit(cfg, consts)
    for dp in ("0.5", "1"):
        bound = {p.x: p.y for p in gain_vs_n_points[f"bound_dp{dp}_case1"]}
        for kind in ("refined", "uniform"):
            series = {p.x: p.y for p in gain_vs_n_points[f"{kind}_dp{dp}_case1"]}
            assert all(series[x] <= bound[x] * (1 + 1e-9) for x in bound)
        assert all(y <= limit * (1 + 1e-9) for y in bound.values())


def test_gain_vs_n_with_explicit_feed(consts):
    # a fixed feed close to the array bounds how many antennas fit left of it
    cfg = SystemConfig(x_0_m=-30.0)
    points = by_series(run_gain_vs_n(cfg, (0.5,), BOTH_CASES, n_max=400, n_step=8))
    assert "refined_dp0.5_case2" in points
    with pytest.raises(ConfigError):
        run_gain_vs_n(cfg, (0.5,), BOTH_CASES, n_max=40000, n_step=100)


# -------------------------------------------------- max gain versus spacing


@pytest.fixture(scope="module")
def maxgain_points(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return by_series(
            run_maxgain_vs_spacing(
                cfg, (0.5, 1.0, 2.0), BOTH_CASES, trials=40, seed=11, n_max=6000
            )
        )


def test_maxgain_series_decreasing(maxgain_points):
    for label in ("case1", "case2"):
        ys = [p.y for p in maxgain_points[f"refined_{label}"]]
        assert all(b < a for a, b in zip(ys, ys[1:]))


def test_maxgain_beats_single_antenna_baselines(maxgain_points):
    fluid1 = {p.x: p.y for p in maxgain_points["fluid1"]}
    fluid2 = {p.x: p.y for p in maxgain_points["fluid2"]}
    fixed = {p.x: p.y for p in maxgain_points["fixed"]}
    for dp in fluid1:
        assert fluid1[dp] >= fluid2[dp] >= fixed[dp]
        for series in ("refined_case1", "refined_case2", "uniform_case1", "uniform_case2"):
            val = {p.x: p.y for p in maxgain_points[series]}[dp]
            assert val >= fluid1[dp]


def test_maxgain_bound_estimate_series(cfg, consts, maxgain_points):
    for p in maxgain_points["bound"]:
        c = SystemConfig(delta_p=p.x, alpha_wg_db_per_m=0.0)
        assert p.y == pytest.approx(max_gain_estimate(c, consts), rel=1e-12)
        assert p.stderr == 0.0


def test_maxgain_below_limit(cfg, consts, maxgain_points):
    limit = gain_limit(cfg, consts)
    for series, rows in maxgain_points.items():
        for p in rows:
            assert p.y <= limit * (1 + 1e-9)


def test_maxgain_stderr_populated(maxgain_points):
    # lossy runs vary with the drawn user position; the constant baselines do not
    assert all(p.stderr > 0 for p in maxgain_points["refined_case2"])
    assert all(p.stderr >= 0 for p in maxgain_points["refined_case1"])
    assert all(p.stderr == 0 for p in maxgain_points["fluid1"])


def test_maxgain_same_seed_same_result(cfg):
    case2 = (("case2", 0.08),)
    a = run_maxgain_vs_spacing(cfg, (0.5,), case2, trials=15, seed=3, n_max=500)
    b = run_maxgain_vs_spacing(cfg, (0.5,), case2, trials=15, seed=3, n_max=500)
    assert a == b
    c = run_maxgain_vs_spacing(cfg, (0.5,), case2, trials=15, seed=4, n_max=500)
    assert any(pa.y != pc.y for pa, pc in zip(a, c) if pa.series == "refined_case2")


def test_maxgain_rejects_infeasible_feed(consts):
    cfg = SystemConfig(x_0_m=-5.0)  # inside the user range
    with pytest.raises(ConfigError):
        run_maxgain_vs_spacing(cfg, (0.5,), (("case1", 0.0),), trials=5, seed=0, n_max=100)


# ------------------------------------------------- gain versus spacing (MC)


@pytest.fixture(scope="module")
def mc_points(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return by_series(run_gain_vs_delta_mc(cfg, (2, 4), step=0.005))


def test_mc_sweep_uncoupled_peaks_at_smallest_spacing(mc_points):
    for n in (2, 4):
        rows = [p for p in mc_points[f"nomc_N{n}"] if p.x > 0]
        assert max(rows, key=lambda p: p.y).x == min(p.x for p in rows)
        # analytic zero-spacing rows collapse onto a single effective antenna
        zero = [p for p in mc_points[f"nomc_N{n}"] if p.x == 0]
        assert len(zero) == 1


def test_mc_sweep_coupled_peak_interior(mc_points):
    peak = mc_points["mc_N2_peak"][0]
    assert peak.x == pytest.approx(0.70, abs=0.02)
    closed_peak = mc_points["closed_N2_peak"][0]
    assert closed_peak.x == peak.x


def test_mc_sweep_matrix_equals_closed_form(mc_points):
    closed = {p.x: p.y for p in mc_points["closed_N2"]}
    for p in mc_points["mc_N2"]:
        assert p.y == pytest.approx(closed[p.x], rel=1e-9)


def test_mc_sweep_oscillates_for_four_antennas(mc_points):
    ys = np.array([p.y for p in mc_points["mc_N4"] if p.x > 0])
    maxima = [
        i for i in range(1, len(ys) - 1) if ys[i] > ys[i - 1] and ys[i] > ys[i + 1]
    ]
    assert len(maxima) >= 2


def test_mc_sweep_zero_rows(mc_points, consts, cfg):
    mc0 = [p for p in mc_points["mc_N2"] if p.x == 0][0]
    assert mc0.y == pytest.approx(consts.eta / cfg.d_m**2, rel=1e-12)
    free0 = [p for p in mc_points["nomc_N2"] if p.x == 0][0]
    assert free0.y == 2 * consts.eta / cfg.d_m**2


# ---------------------------------------------------------------- SweepSpec


def test_sweep_spec_validation(cfg):
    with pytest.raises(ConfigError):
        SweepSpec(kind="nope", cfg=cfg)
    with pytest.raises(ConfigError):
        SweepSpec(kind="fub_curve", cfg=cfg, trials=0)
    with pytest.raises(ConfigError):
        SweepSpec(kind="gain_vs_n", cfg=cfg, delta_p_values=())
    with pytest.raises(ConfigError):
        SweepSpec(kind="fub_curve", cfg=cfg, grid_step=0.0)


def test_run_sweep_dispatch(cfg):
    pts = run_sweep(SweepSpec(kind="fub_curve", cfg=cfg, x_max=4.0, grid_step=0.1))
    assert any(p.series == "fub_peak" for p in pts)
    pts = run_sweep(SweepSpec(kind="fmc_curve", cfg=cfg, grid_step=0.05))
    assert any(p.series == "fmc_neff1.44" for p in pts)
