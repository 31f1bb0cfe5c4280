"""Acceptance gate: one test per advertised behavior of the package.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run with ``pytest -s``
to see them on success).  Every tolerance is pinned here, and each check's
docstring says what it asserts and why.
"""

import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from passgain.channel import array_gain_exact
from passgain.coupling import (
    coupling_matrix,
    f_mc,
    gain_mc,
    gain_mc_two_closed,
)
from passgain.experiments import (
    DEFAULT_FEED_X0_M,
    USER_HALF_RANGE_M,
    run_maxgain_vs_spacing,
)
from passgain.gain import (
    XSTAR,
    closed_bound_value,
    f_ub,
    gain_limit,
    gain_uniform,
    gain_uniform_integral,
    max_gain_estimate,
    optimal_antenna_number,
    uniform_deltas,
    upper_bound_sum_uniform,
)
from passgain.geometry import SystemConfig, symmetric_uniform_layout
from passgain.refine import build_refined_layout, combined_path
from passgain.gain import upper_bound_sum
from reference import gain_two_uncoupled, pair_gains

CFG = SystemConfig(alpha_wg_db_per_m=0.0)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_bound_maximizer():
    t0 = time.perf_counter()
    xstar, fstar = XSTAR, f_ub(XSTAR)
    elapsed = time.perf_counter() - t0
    ok = abs(xstar - 3.32) <= 0.01 and abs(fstar - 1.105) <= 0.005 and elapsed < 1.0
    report(
        "01 bound maximizer",
        ok,
        f"x*={xstar:.5f}, f_ub(x*)={fstar:.5f}, {elapsed * 1e3:.1f} ms",
    )


def test_02_optimal_sizing():
    results = []
    for d, target in ((1.0, 6.64), (3.0, 19.92)):
        cfg = SystemConfig(d_m=d, alpha_wg_db_per_m=0.0)
        n = optimal_antenna_number(cfg)
        aperture = (n - 1) * cfg.delta_p * cfg.wavelength
        results.append((d, n, aperture, abs(aperture - target) / target))
    ok = all(rel <= 0.01 for _, _, _, rel in results)
    detail = "; ".join(
        f"d={d:g} m: N*={n}, aperture={ap:.4f} m ({rel * 100:.2f}% off)"
        for d, n, ap, rel in results
    )
    report("02 optimal sizing", ok, detail)


def test_03_maximum_gain_formula():
    est = max_gain_estimate(CFG)
    ns = np.arange(2, 1_000_001, 2)
    peak = float(np.max(closed_bound_value(ns, CFG)))
    rel = abs(peak - est) / est

    limit = gain_limit(CFG)
    capped = True
    for dp in (0.5, 0.75, 1.0, 1.5, 2.0):
        c = SystemConfig(delta_p=dp, alpha_wg_db_per_m=0.0)
        vals = closed_bound_value(np.arange(2, 10001, 2), c)
        capped = capped and bool(np.all(vals <= limit * (1 + 1e-9)))
    ok = rel <= 0.005 and capped
    report(
        "03 maximum gain formula",
        ok,
        f"discrete peak {peak:.6e} vs estimate {est:.6e} ({rel * 100:.4f}%), "
        f"ceiling respected={capped}",
    )


def test_04_bound_and_gain_decay():
    t0 = time.perf_counter()
    nstar = optimal_antenna_number(CFG)
    closed_ratio = closed_bound_value(100_000, CFG) / closed_bound_value(
        nstar, CFG
    )
    half = uniform_deltas(100_000, CFG)
    gains = pair_gains(half, half, CFG, 0.0)
    uniform_ratio = gains[-1] / gains.max()
    elapsed = time.perf_counter() - t0
    ok = closed_ratio < 0.30 and uniform_ratio < 0.30 and elapsed < 30.0
    report(
        "04 decay toward zero",
        ok,
        f"closed bound at 1e5 = {closed_ratio:.3f} of peak, uniform gain = "
        f"{uniform_ratio:.4f} of peak, {elapsed:.1f} s",
    )


def test_05_coupling_oracle_equivalence():
    lam = CFG.wavelength
    worst = 0.0
    for x in np.linspace(0.05, 1.0, 50):
        a_matrix = gain_mc(2, float(x) * lam, CFG)
        a_closed = gain_mc_two_closed(float(x) * lam, CFG)
        worst = max(worst, abs(a_matrix - a_closed) / a_closed)

    identity_err = float(
        np.max(np.abs(coupling_matrix(2, lam / 2, CFG) - np.eye(2)))
    )
    a_mc_half = gain_mc(2, lam / 2, CFG)
    a_free_half = array_gain_exact(symmetric_uniform_layout(2, lam / 2), CFG)
    half_rel = abs(a_mc_half - a_free_half) / a_free_half
    ok = worst <= 1e-9 and identity_err <= 1e-12 and half_rel <= 1e-9
    report(
        "05 coupling oracle equivalence",
        ok,
        f"matrix-vs-closed worst {worst:.2e}, identity dev {identity_err:.2e}, "
        f"half-wavelength dev {half_rel:.2e}",
    )


def test_06_coupling_limits():
    lam = CFG.wavelength
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        a0 = gain_mc(2, 1e-6 * lam, CFG)
    limit_rel = abs(a0 - CFG.eta / CFG.d_m**2) / (CFG.eta / CFG.d_m**2)
    exact_free = gain_two_uncoupled(0.0, CFG) == 2 * CFG.eta / CFG.d_m**2

    xs = np.arange(1, 10001) * 1e-4
    vals = np.array(
        [gain_mc_two_closed(float(x) * lam, CFG) for x in xs]
    )
    i = int(np.argmax(vals))
    interior = 0 < i < len(xs) - 1
    fx = f_mc(float(xs[i]), CFG.n_eff)
    ok = (
        limit_rel <= 1e-3
        and exact_free
        and interior
        and abs(xs[i] - 0.70) <= 0.02
        and abs(fx - 1.27) <= 0.02
    )
    report(
        "06 coupling limits",
        ok,
        f"collapsed-pair dev {limit_rel:.2e}, uncoupled exact {exact_free}, "
        f"argmax {xs[i]:.4f} wavelengths with shape value {fx:.4f}",
    )


def test_07_refinement_coherence():
    lam = CFG.wavelength
    worst_residual = 0.0
    beats_uniform = True
    worst_tracking = 1.0
    for n in range(2, 201, 2):
        layout = build_refined_layout(n, CFG)
        paths = np.array([combined_path(x, CFG) for x in layout])
        worst_residual = max(
            worst_residual, float(np.max(np.abs(paths - lam * np.round(paths / lam))))
        )
        a_ref = array_gain_exact(layout, CFG)
        beats_uniform = beats_uniform and a_ref >= gain_uniform(n, CFG)
        half = layout[n // 2 :]
        worst_tracking = min(worst_tracking, a_ref / upper_bound_sum(half, CFG))
    ok = worst_residual <= 1e-9 and beats_uniform and worst_tracking >= 0.90
    report(
        "07 refinement coherence",
        ok,
        f"path residual {worst_residual:.2e} m, refined>=uniform {beats_uniform}, "
        f"bound tracking >= {worst_tracking:.4f}",
    )


def test_08_integral_approximation():
    """Continuum forms against the exact sums at N >= 100, within 1 percent.

    The phase-free bound and its closed form agree to a few 1e-7.  For the
    oscillatory pair, at 28 GHz, d = 3 m, delta_p = 0.5 the phase advances
    0.72..1.22 cycles per antenna, so the midpoint-sampled sum carries an
    aliased coherence lobe (peaking near N = 832).  The paper's single
    integral lacks it and is 97-100 percent off; the continuum form checked
    here adds the Poisson image integrals that hold the lobe, plus the
    endpoint terms of all further images in closed form, and agrees to a
    few 1e-8.
    """
    rows = []
    ok = True
    for n in (100, 200, 500, 1000):
        b_rel = abs(
            closed_bound_value(n, CFG) - upper_bound_sum_uniform(n, CFG)
        ) / upper_bound_sum_uniform(n, CFG)
        g_sum = gain_uniform(n, CFG)
        g_int = gain_uniform_integral(n, CFG)
        g_rel = abs(g_int - g_sum) / g_sum
        rows.append(f"N={n}: bound {b_rel:.1e}, gain {g_rel:.1e}")
        ok = ok and b_rel <= 0.01 and g_rel <= 0.01
    report("08 integral approximation", ok, "; ".join(rows))


def test_09_spacing_sweep_figure():
    """Monte Carlo max gain versus spacing with baselines (100 draws).

    The refined gain decreases with spacing and dominates the single-antenna
    baselines.  Waveguide loss costs the array little: the lossy case sits
    within 15 percent of the lossless one once the feed run is taken out.
    That run is the stretch from the sweep's feed at -30 m to the user's
    projection; it puts 15..45 m of guide (0.08 dB/m) in front of every
    antenna alike, a power factor averaging 0.577 over the draws that no
    antenna placement avoids and that would leave the raw ratio near 0.58.
    The draws are rebuilt from the sweep's seeded PCG64 stream to take that
    shared factor out.  The lossless gain must not vary between draws (stderr
    at most 1e-12 of its mean, so the feed never caps the antenna count);
    then lossy / (lossless x mean factor) is the array's own loss ratio and
    must lie in [0.85, 1.15].  A sweep that ignored the loss would give 1.73,
    one applying the feed factor in amplitude 1.32.
    """
    t0 = time.perf_counter()
    dps = (0.5, 1.0, 1.5, 2.0)
    trials, seed, alpha = 100, 20260810, 0.08
    pts = run_maxgain_vs_spacing(
        replace(CFG, alpha_wg_db_per_m=alpha),
        dps,
        "both",
        trials=trials,
        seed=seed,
        n_max=10000,
    )
    elapsed = time.perf_counter() - t0
    series, stderr = {}, {}
    for p in pts:
        series.setdefault(p.series, {})[p.x] = p.y
        stderr.setdefault(p.series, {})[p.x] = p.stderr

    decreasing = all(
        series[f"refined_{label}"][a] > series[f"refined_{label}"][b]
        for label in ("case1", "case2")
        for a, b in zip(dps, dps[1:])
    )
    ordered = all(
        series["fluid1"][dp] >= series["fluid2"][dp] >= series["fixed"][dp]
        and min(
            series["refined_case1"][dp],
            series["refined_case2"][dp],
            series["uniform_case1"][dp],
            series["uniform_case2"][dp],
        )
        >= series["fluid1"][dp]
        for dp in dps
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    x_us = rng.uniform(-USER_HALF_RANGE_M, USER_HALF_RANGE_M, size=trials)
    feed_factor = float(np.mean(10.0 ** (-alpha * (x_us - DEFAULT_FEED_X0_M) / 10.0)))
    lossless_constant = all(
        stderr["refined_case1"][dp] <= 1e-12 * series["refined_case1"][dp] for dp in dps
    )
    loss_ratios = [series["refined_case2"][dp] / series["refined_case1"][dp] for dp in dps]
    array_ratios = [r / feed_factor for r in loss_ratios]
    within_15 = all(0.85 <= r <= 1.15 for r in array_ratios)
    ok = decreasing and ordered and lossless_constant and within_15 and elapsed < 300.0
    report(
        "09 spacing sweep figure",
        ok,
        f"decreasing={decreasing}, baselines ordered={ordered}, "
        f"lossless constant={lossless_constant}, "
        f"lossy/lossless={min(loss_ratios):.3f}..{max(loss_ratios):.3f} "
        f"with feed factor {feed_factor:.3f}, array ratio "
        f"{min(array_ratios):.3f}..{max(array_ratios):.3f} (need 0.85..1.15), "
        f"{elapsed:.1f} s",
    )


def test_10_determinism():
    def run(args, out):
        res = subprocess.run(
            [sys.executable, "-m", "passgain", *args, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        return out.read_bytes()

    import tempfile
    from pathlib import Path

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, args in enumerate(
            [
                ("fmc-curve", "--grid-step", "0.01", "--seed", "8"),
                (
                    "maxgain-vs-spacing",
                    "--trials",
                    "20",
                    "--seed",
                    "8",
                    "--delta-p",
                    "0.5,1",
                    "--n-max",
                    "2000",
                ),
            ]
        ):
            a = run(args, tmp / f"a{i}.csv")
            b = run(args, tmp / f"b{i}.csv")
            ok = ok and a == b
    report("10 determinism", ok, "byte-identical reruns")
