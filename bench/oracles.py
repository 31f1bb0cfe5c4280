"""Independent checks of the passgain CLI's CSV files, written with numpy only.

Nothing here imports ``passgain``.  Every expected value is recomputed from
the model as the README states it, for the CLI's default scenario (28 GHz,
d = 3 m, n_eff = 1.44, user at x = 0, 0.08 dB/m, feed "auto"):

* ``fub``          against ``asinh(x)^2 / x``; the peak against the root of
                   ``2x / sqrt(1 + x^2) = asinh(x)``;
* ``fmc_neff*``    against ``cos^2(pi n x) / (1 + sin(2 pi x) / (2 pi x))``;
* ``uniform_*``    (both sweeps) against prefix sums of the per-antenna
                   phasors ``att h exp(-j phi)``, themselves cross-checked
                   against a direct sum over antenna positions;
* ``uniform_case*`` Monte Carlo means against a brute-force prefix maximum
                   over every even count, on the same PCG64 draws;
* ``bound``/``fixed``/``fluid*`` against their closed forms;
* ``mc_N*``        against ``numpy.linalg.eigh`` with the same eigenvalue
                   floor, ``mc_N2`` also against ``closed_N2``;
* ``refined_*``    must reach at least the matching ``uniform_*`` value.

Not certified: ``mc_N*`` with N >= 8 at spacing below half a wavelength.
The sinc-Toeplitz coupling matrix has eigenvalues below machine precision
there, so the floored answer depends on the eigensolver; those rows are
counted (``Report.uncertified``) and never compared.

Tolerances are relative errors.  The CSV prints 12 significant digits, so
formatting alone contributes up to 5e-12; each tolerance sits a small factor
above the largest error observed at the parent code, and far below the 1e-6
nudge the benchmark's self-test plants.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
F_C_HZ = 28e9
D_M = 3.0
N_EFF = 1.44
X_U_M = 0.0
ALPHA_DB_PER_M = 0.08
WAVELENGTH = SPEED_OF_LIGHT / F_C_HZ
K0 = 2.0 * math.pi / WAVELENGTH
ETA = (WAVELENGTH / (4.0 * math.pi)) ** 2

# Sweep constants of the maxgain and coupling sweeps, as documented by the CLI.
USER_HALF_RANGE_M = 15.0
FEED_X0_M = -30.0
FLUID_REACH_M = 500.0 * WAVELENGTH
EIG_FLOOR = 1e-10
DELTA_MIN_WL = 1e-3

TOL = {
    "format": 1e-11,  # any printed abscissa or exact closed form
    "fub": 1e-11,
    "fmc": 1e-11,
    "gain_sum": 2e-11,
    "oracle_direct": 1e-9,  # prefix sums vs direct sums over 30000 pairs
    "mc_mean": 1e-11,
    "closed": 2e-11,
    "mc_eigh": 1e-11,
    "mc_eigh_sub": 1e-10,  # N < 8 below half a wavelength: 1.7e-11 seen at N=4
    "mc_closed": 1e-11,
    "order": 1e-12,  # refined >= uniform, peak >= every row
}


@dataclass
class Check:
    """Largest relative error of one family of rows against its tolerance."""

    name: str
    worst: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.worst <= self.tol


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    uncertified: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems and all(c.ok for c in self.checks)

    def add(self, name, got, want, tol_key, floor=0.0):
        """Record max |got - want| / max(|want|, floor) under ``TOL[tol_key]``."""
        got = np.atleast_1d(np.asarray(got, dtype=float))
        want = np.atleast_1d(np.asarray(want, dtype=float))
        if got.shape != want.shape:
            self.problems.append(f"{name}: {got.size} rows, expected {want.size}")
            return
        scale = np.maximum(np.abs(want), floor)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(got == want, 0.0, np.abs(got - want) / scale)
        worst = float(np.max(err)) if err.size else 0.0
        if not math.isfinite(worst):
            worst = math.inf
        for c in self.checks:
            if c.name == name:
                c.worst = max(c.worst, worst)
                return
        self.checks.append(Check(name, worst, TOL[tol_key]))

    def at_least(self, name, big, small):
        """Record how far ``big`` falls below ``small`` (0 when it never does)."""
        big, small = np.atleast_1d(big), np.atleast_1d(small)
        shortfall = np.maximum(0.0, (small - big) / np.abs(small))
        self.add(name, shortfall, np.zeros_like(shortfall), "order", floor=1.0)

    def summary(self, failing_only=False) -> str:
        """``check=worst/tol`` for every check (or only the failing ones)."""
        parts = [f"{c.name}={c.worst:.1e}/{c.tol:.0e}" for c in self.checks
                 if not (failing_only and c.ok)]
        return " ".join(parts + self.problems)


# ------------------------------------------------------------------ CSV input


def read_csv(path) -> tuple[int | None, dict[str, np.ndarray], list[str]]:
    """(seed, {series: (rows, 3) array of x, y, stderr}, structural problems)."""
    problems = []
    lines = Path(path).read_text().split("\n")
    seed = None
    if lines and lines[0].startswith("# seed=") and lines[0][7:].lstrip("-").isdigit():
        seed = int(lines[0][len("# seed=") :])
    else:
        problems.append("missing '# seed=' header")
    if len(lines) < 2 or lines[1] != "series,x,y,stderr":
        problems.append("missing column header")
    if lines[-1] != "":
        problems.append("last line not terminated")
    names, values = [], []
    for line in lines[2:-1]:
        try:
            name, x, y, e = line.split(",")
            values.append((float(x), float(y), float(e)))
        except ValueError:
            return seed, {}, problems + [f"unparsable row {line[:60]!r}"]
        names.append(name)
    keys = [(n, v[0]) for n, v in zip(names, values)]
    if keys != sorted(keys):
        problems.append("rows not sorted by (series, x)")
    table = np.asarray(values, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(table)):
        problems.append("non-finite value")
    series: dict[str, list[int]] = {}
    for i, n in enumerate(names):
        series.setdefault(n, []).append(i)
    return seed, {n: table[idx] for n, idx in series.items()}, problems


# ------------------------------------------------------------- model formulas


def f_ub(x):
    return np.arcsinh(x) ** 2 / x


def xstar() -> float:
    """Root of d f_ub / dx, i.e. of 2x / sqrt(1 + x^2) - asinh(x), on [1, 10]."""
    lo, hi = 1.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid / math.sqrt(1.0 + mid * mid) - math.asinh(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sinc(t):
    """sin(t) / t with the value 1 at t = 0."""
    return np.sinc(np.asarray(t, dtype=float) / math.pi)


def pair_phasors(offsets, alpha):
    """Per-pair sums of ``att h exp(-j phi) / sqrt(eta)`` for antennas at
    x = +offset and x = -offset, with phase and loss referenced to x = 0."""
    r = np.hypot(D_M, offsets)
    right = 10.0 ** (-alpha * offsets / 20.0) * np.exp(-1j * K0 * (r + N_EFF * offsets))
    left = 10.0 ** (alpha * offsets / 20.0) * np.exp(-1j * K0 * (r - N_EFF * offsets))
    return (right + left) / r


def nested_gains(offsets, alpha):
    """Gain of every nested symmetric layout (innermost m pairs, m = 1..M),
    with waveguide loss referenced to the user's projection."""
    s = np.cumsum(pair_phasors(offsets, alpha))
    m = np.arange(1, offsets.size + 1)
    return ETA * np.abs(s) ** 2 / (2.0 * m)


def nested_bounds(offsets, alpha):
    """Phase-free bound of every nested layout, loss referenced to x = 0."""
    r = np.hypot(D_M, offsets)
    s = np.cumsum((10.0 ** (-alpha * offsets / 20.0) + 10.0 ** (alpha * offsets / 20.0)) / r)
    m = np.arange(1, offsets.size + 1)
    return ETA * s**2 / (2.0 * m)


def direct_gain(positions, alpha, feed):
    """|sum_n att_n h_n exp(-j phi_n)|^2 / N summed antenna by antenna."""
    x = np.asarray(positions, dtype=float)
    r = np.hypot(X_U_M - x, D_M)
    h = math.sqrt(ETA) * np.exp(-1j * K0 * r) / r
    phi = K0 * N_EFF * (x - feed)
    att = 10.0 ** (-alpha * (x - feed) / 20.0)
    return float(abs(np.sum(att * h * np.exp(-1j * phi))) ** 2 / x.size)


def symmetric_positions(n, spacing):
    half = (np.arange(1, n // 2 + 1) - 0.5) * spacing
    return np.concatenate([X_U_M - half[::-1], X_U_M + half])


def coupled_gain(n, spacing):
    """|h^T C^(-1/2) phi|^2 / N with C the sinc-Toeplitz coupling matrix,
    decomposed by LAPACK and floored at ``EIG_FLOOR``."""
    k = np.arange(n)
    row = sinc(K0 * spacing * k)
    c = row[np.abs(k[:, None] - k[None, :])]
    w, v = np.linalg.eigh(c)
    root = (v * np.maximum(w, EIG_FLOOR) ** -0.5) @ v.T
    x = symmetric_positions(n, spacing)
    r = np.hypot(X_U_M - x, D_M)
    h = math.sqrt(ETA) * np.exp(-1j * K0 * r) / r
    phi = np.exp(-1j * K0 * N_EFF * (x - X_U_M))
    return float(abs(h @ root @ phi) ** 2 / n)


def closed_two(spacing):
    num = 2.0 * ETA * np.cos(N_EFF * K0 * spacing / 2.0) ** 2
    return num / ((D_M**2 + spacing**2 / 4.0) * (1.0 + sinc(K0 * spacing)))


# --------------------------------------------------------------- CLI argv


def _floats(text):
    return tuple(float(t) for t in text.split(",") if t.strip())


def _ints(text):
    return tuple(int(t) for t in text.split(",") if t.strip())


def parse_argv(argv):
    """The flags the checks depend on, with the CLI's documented defaults."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("command")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--case")
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--grid-step")
    p.add_argument("--n-eff-list", type=_floats, default=(N_EFF,))
    p.add_argument("--n-max", type=int)
    p.add_argument("--delta-p", type=_floats)
    p.add_argument("--n-list", type=_ints, default=(2, 4))
    args = p.parse_args(argv)
    defaults = {
        "fub-curve": ("1", "0.01", None, None),
        "fmc-curve": ("1", "0.005", None, None),
        "gain-vs-n": ("both", "2", 6000, (0.5, 1.0)),
        "maxgain-vs-spacing": ("both", None, 10000, (0.5, 1.0, 1.5, 2.0)),
        "gain-vs-delta-mc": ("1", "0.005", None, None),
    }
    case, step, n_max, dps = defaults[args.command]
    args.case = args.case or case
    args.grid_step = args.grid_step or step
    args.n_max = args.n_max or n_max
    args.delta_p = args.delta_p or dps
    return args


def _cases(case):
    both = (("case1", 0.0), ("case2", ALPHA_DB_PER_M))
    return {"1": both[:1], "2": both[1:], "both": both}[case]


# ------------------------------------------------------------------- checks


def check_csv(path, argv) -> Report:
    """Check one CLI output file against the oracle for the argv that made it."""
    args = parse_argv(argv)
    report = Report()
    seed, series, problems = read_csv(path)
    report.problems.extend(problems)
    if seed != args.seed:
        report.problems.append(f"header seed {seed}, expected {args.seed}")
    expected = _CHECKS[args.command](args, series, report)
    missing = sorted(expected - series.keys())
    extra = sorted(series.keys() - expected)
    if missing or extra:
        report.problems.append(f"series missing {missing[:4]} extra {extra[:4]}")
    return report


def _rows(series, name, report, n_rows):
    """The rows of one series, if it is there with the expected length."""
    rows = series.get(name)
    if rows is None:
        return None
    if len(rows) != n_rows:
        report.problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        return None
    return rows


def _check_peak(report, series, name, xs=None, ys=None):
    """``<name>_peak`` is one row at the series maximum (first on ties)."""
    peak, rows = series.get(f"{name}_peak"), series.get(name)
    if peak is None or rows is None:
        return
    if len(peak) != 1:
        report.problems.append(f"{name}_peak has {len(peak)} rows")
        return
    if ys is None:
        xs, ys = rows[:, 0], rows[:, 1]
    i = int(np.argmax(ys))
    report.add("peaks", peak[0, :2], [xs[i], ys[i]], "format")


def _fub(args, series, report):
    step = float(args.grid_step)
    xs = step * np.arange(1, int(round(args.x_max / step)) + 1)
    rows = _rows(series, "fub", report, xs.size)
    if rows is not None:
        report.add("fub.x", rows[:, 0], xs, "format")
        report.add("fub", rows[:, 1], f_ub(xs), "fub")
    peak = _rows(series, "fub_peak", report, 1)
    if peak is not None:
        x = xstar()
        report.add("fub_peak.x", peak[0, 0], x, "format", floor=1e3)  # abs 1e-8
        report.add("fub_peak", peak[0, 1], f_ub(x), "fub")
        if rows is not None:
            report.at_least("fub_peak>=fub", peak[0, 1], rows[:, 1].max())
    return {"fub", "fub_peak"}


def _fmc(args, series, report):
    step = float(args.grid_step)
    xs = step * np.arange(0, int(round(1.0 / step)) + 1)
    names = set()
    for ne in args.n_eff_list:
        name = f"fmc_neff{ne:g}"
        names.add(name)
        rows = _rows(series, name, report, xs.size)
        if rows is not None:
            want = np.cos(math.pi * ne * xs) ** 2 / (1.0 + sinc(2.0 * math.pi * xs))
            report.add("fmc.x", rows[:, 0], xs, "format", floor=1.0)
            report.add("fmc", rows[:, 1], want, "fmc", floor=1e-6)
    return names


def _uniform_offsets(m_max, dp):
    return (np.arange(1, m_max + 1) - 0.5) * dp * WAVELENGTH


def _cross_check_direct(report, offsets, alpha, gains):
    """The prefix-sum oracle against the antenna-by-antenna sum, with the
    feed at the leftmost antenna, at the smallest, middle and largest N."""
    for m in sorted({1, (offsets.size + 1) // 2, offsets.size}):
        pos = np.concatenate([-offsets[:m][::-1], offsets[:m]])
        want = direct_gain(pos, alpha, feed=-offsets[m - 1])
        got = gains[m - 1] * 10.0 ** (-alpha * offsets[m - 1] / 10.0)
        report.add("oracle.direct", got, want, "oracle_direct")


def _gain_vs_n(args, series, report):
    step = int(args.grid_step)
    m_max = args.n_max // 2
    sample = np.arange(1, m_max + 1, step // 2)
    names = {"fixed"}
    for dp in args.delta_p:
        offsets = _uniform_offsets(m_max, dp)
        for label, alpha in _cases(args.case):
            feed = 10.0 ** (-alpha * offsets / 10.0)
            g = nested_gains(offsets, alpha) * feed
            b = nested_bounds(offsets, alpha) * feed
            _cross_check_direct(report, offsets, alpha, g / feed)
            for kind, want in (("uniform", g), ("bound", b), ("refined", None)):
                name = f"{kind}_dp{dp:g}_{label}"
                names |= {name, f"{name}_peak"}
                rows = _rows(series, name, report, sample.size)
                if rows is None:
                    continue
                report.add("gain_vs_n.x", rows[:, 0], 2.0 * sample, "format")
                if want is None:
                    _check_peak(report, series, name)
                    report.at_least("refined>=uniform", rows[:, 1], g[sample - 1])
                    continue
                report.add(kind, rows[:, 1], want[sample - 1], "gain_sum")
                _check_peak(report, series, name, 2.0 * np.arange(1, m_max + 1), want)
    rows = _rows(series, "fixed", report, sample.size)
    if rows is not None:
        want = np.full(sample.size, ETA / (X_U_M**2 + D_M**2))
        report.add("fixed", rows[:, 1], want, "closed")
    return names


def _mean_stderr(values):
    if values.size < 2:
        return float(np.mean(values)), 0.0
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def _maxgain(args, series, report):
    m_max = args.n_max // 2
    rng = np.random.Generator(np.random.PCG64(args.seed))
    x_us = rng.uniform(-USER_HALF_RANGE_M, USER_HALF_RANGE_M, size=args.trials)
    run = x_us - FEED_X0_M
    xs = np.asarray(args.delta_p, dtype=float)
    cases = _cases(args.case)
    names = {"bound", "fluid1", "fluid2", "fixed"}
    means = {}
    for label, alpha in cases:
        want = np.empty((xs.size, 2))
        for i, dp in enumerate(args.delta_p):
            offsets = _uniform_offsets(m_max, dp)
            gains = nested_gains(offsets, alpha)
            caps = np.searchsorted(offsets, run, side="right")
            best = np.maximum.accumulate(gains)[caps - 1]
            want[i] = _mean_stderr(best * 10.0 ** (-alpha * run / 10.0))
        means[label] = want
    order = np.argsort(xs, kind="stable")
    for kind in ("uniform", "refined"):
        for label, _ in cases:
            name = f"{kind}_{label}"
            names.add(name)
            rows = _rows(series, name, report, xs.size)
            if rows is None:
                continue
            report.add("maxgain.x", rows[:, 0], xs[order], "format")
            if kind == "uniform":
                report.add(f"mc_mean.{name}", rows[:, 1], means[label][order, 0], "mc_mean")
                report.add(
                    f"mc_stderr.{name}", rows[:, 2], means[label][order, 1], "mc_mean",
                    floor=means[label][order, 0],
                )
            else:
                uniform = series.get(f"uniform_{label}")
                if uniform is not None and len(uniform) == len(rows):
                    report.at_least("refined>=uniform", rows[:, 1], uniform[:, 1])
    fstar = float(f_ub(xstar()))
    closed = {
        "bound": (2.0 * ETA * fstar / (D_M * xs[order] * WAVELENGTH), None),
        "fluid1": (None, np.full(x_us.size, ETA / D_M**2)),
        "fluid2": (None, ETA / (np.maximum(0.0, np.abs(x_us) - FLUID_REACH_M) ** 2 + D_M**2)),
        "fixed": (None, ETA / (x_us**2 + D_M**2)),
    }
    for name, (exact, draws) in closed.items():
        rows = _rows(series, name, report, xs.size)
        if rows is None:
            continue
        if exact is not None:
            report.add(name, rows[:, 1], exact, "closed")
            continue
        mean, err = _mean_stderr(draws)
        report.add(name, rows[:, 1], np.full(xs.size, mean), "closed")
        report.add(f"{name}.stderr", rows[:, 2], np.full(xs.size, err), "closed", floor=mean)
    return names


def coupling_grid(step):
    """Spacing grid of the coupling sweep, in wavelengths: [1e-3, 1] at ``step``."""
    count = int(round((1.0 - DELTA_MIN_WL) / step))
    xs = DELTA_MIN_WL + step * np.arange(0, count + 1)
    xs = xs[xs <= 1.0 + 1e-12]
    if xs[-1] < 1.0 - 1e-12:
        xs = np.append(xs, 1.0)
    return xs


def _gain_vs_delta_mc(args, series, report):
    xs = coupling_grid(float(args.grid_step))
    scale = ETA / D_M**2
    names = {"fixed"}
    for n in args.n_list:
        mc, nomc = f"mc_N{n}", f"nomc_N{n}"
        names |= {mc, nomc, f"{mc}_peak", f"{nomc}_peak"}
        rows = _rows(series, nomc, report, xs.size + 1)
        if rows is not None:
            want = [direct_gain(symmetric_positions(n, x * WAVELENGTH), 0.0, 0.0) for x in xs]
            report.add("coupling.x", rows[:, 0], np.concatenate([[0.0], xs]), "format", 1.0)
            report.add("nomc", rows[:, 1], [n * scale, *want], "gain_sum", floor=1e-6 * scale)
            _check_peak(report, series, nomc, rows[1:, 0], rows[1:, 1])
        rows = _rows(series, mc, report, xs.size + (n == 2))
        if rows is None:
            continue
        grid = rows[1:] if n == 2 else rows
        if n == 2:
            report.add("mc_N2.zero", rows[0, :2], [0.0, scale], "closed")
        report.add("coupling.x", grid[:, 0], xs, "format", floor=1.0)
        want = np.array([coupled_gain(n, x * WAVELENGTH) for x in xs])
        wide = xs >= 0.5
        report.add("mc_eigh", grid[wide, 1], want[wide], "mc_eigh")
        if n < 8:
            report.add("mc_eigh_sub", grid[~wide, 1], want[~wide], "mc_eigh_sub")
        else:
            report.uncertified += int(np.sum(~wide))
        _check_peak(report, series, mc, grid[:, 0], grid[:, 1])
    if 2 in args.n_list:
        names |= {"closed_N2", "closed_N2_peak"}
        rows = _rows(series, "closed_N2", report, xs.size + 1)
        if rows is not None:
            want = closed_two(np.concatenate([[0.0], xs]) * WAVELENGTH)
            report.add("closed_N2", rows[:, 1], want, "closed", floor=1e-6 * scale)
            _check_peak(report, series, "closed_N2", rows[1:, 0], rows[1:, 1])
            mc2 = series.get("mc_N2")
            if mc2 is not None and len(mc2) == len(rows):
                report.add("mc_N2=closed_N2", mc2[:, 1], rows[:, 1], "mc_closed", 1e-6 * scale)
    rows = _rows(series, "fixed", report, xs.size)
    if rows is not None:
        report.add("fixed", rows[:, 1], np.full(xs.size, scale), "closed")
    return names


_CHECKS = {
    "fub-curve": _fub,
    "fmc-curve": _fmc,
    "gain-vs-n": _gain_vs_n,
    "maxgain-vs-spacing": _maxgain,
    "gain-vs-delta-mc": _gain_vs_delta_mc,
}
