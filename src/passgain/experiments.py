"""Figure-level experiment sweeps and deterministic CSV output.

Each sweep produces a list of :class:`Curve` series blocks whose ``x``, ``y``
and ``stderr`` are each a scalar or a 1-D array, a scalar filling its block;
per-series peaks are single-row ``<series>_peak`` blocks.  :func:`write_csv`
writes the rows sorted by (series, x) with 12-significant-digit scientific
notation, so a fixed seed always yields byte-identical files.  It works by
column, once per file: one stable sort, one finiteness check, each distinct x
and stderr value formatted once, the rows streamed out in chunks.

The Monte Carlo sweep draws user positions from a seeded PCG64 generator and,
per draw, finds the best even antenna count exactly.  The gain of every nested
symmetric layout is obtained from prefix sums of the per-pair channel
contributions; a draw can use the nested layouts whose leftmost antenna lies
right of the feed, and the best of those is read off the running maximum of
the gain profile.  The whole search costs one pass over the offsets and one
lookup per draw.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import coupling, gain, refine
from .channel import array_gain_exact
from .errors import ConfigError
from .geometry import SystemConfig, derive_constants, symmetric_uniform_layout

# Monte Carlo user-position half-range and default feed location for the
# max-gain-versus-spacing sweep; the movable-antenna baseline may roam over
# +/- 500 wavelengths around the array center.
USER_HALF_RANGE_M = 15.0
DEFAULT_FEED_X0_M = -30.0
FLUID_RANGE_WAVELENGTHS = 500.0
FIXED_ANTENNA_X_M = 0.0
# Rows formatted and written per chunk by write_csv.
_CSV_CHUNK_ROWS = 8192

_SWEEP_KINDS = (
    "fub_curve",
    "fmc_curve",
    "gain_vs_n",
    "maxgain_vs_spacing",
    "gain_vs_delta_mc",
)


@dataclass(frozen=True)
class Curve:
    """A block of CSV rows of one series: abscissae, values and Monte Carlo
    standard errors, each a scalar or a 1-D array of the block's length."""

    series: str
    x: float | np.ndarray
    y: float | np.ndarray
    stderr: float | np.ndarray = 0.0


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one experiment sweep; only the fields relevant to the
    chosen kind are consulted."""

    kind: str
    cfg: SystemConfig
    seed: int = 0
    trials: int = 1000
    cases: tuple[tuple[str, float], ...] = (("case1", 0.0),)
    n_max: int = 6000
    n_step: int = 2
    delta_p_values: tuple[float, ...] = (0.5, 1.0)
    n_values: tuple[int, ...] = (2, 4)
    n_eff_values: tuple[float, ...] = ()
    grid_step: float = 0.01
    x_max: float = 10.0

    def __post_init__(self):
        if self.kind not in _SWEEP_KINDS:
            raise ConfigError(f"unknown sweep kind {self.kind!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.cases:
            raise ConfigError("at least one waveguide-loss case is required")
        if self.kind == "gain_vs_n" and not self.delta_p_values:
            raise ConfigError("delta_p grid must be non-empty")
        if self.kind == "maxgain_vs_spacing" and not self.delta_p_values:
            raise ConfigError("delta_p grid must be non-empty")
        if self.kind == "gain_vs_delta_mc" and not self.n_values:
            raise ConfigError("antenna-count list must be non-empty")
        if self.grid_step <= 0:
            raise ConfigError("grid step must be > 0")


def _column(values, sizes) -> np.ndarray:
    """Concatenate per-block scalars or arrays; a scalar fills its block."""
    parts = [v if getattr(v, "ndim", 0) else np.full(n, v) for v, n in zip(values, sizes)]
    return np.concatenate([np.empty(0), *parts])


def _text(values: np.ndarray, memo: dict) -> list:
    """``%.11e`` text of every value; ``memo`` holds the text of each bit
    pattern (so 0.0 and -0.0 apart) already formatted."""
    return [memo[b] if b in memo else memo.setdefault(b, "%.11e" % v)
            for b, v in zip(values.view(np.int64).tolist(), values.tolist())]


def write_csv(curves, path: str | Path, seed: int = 0) -> int:
    """Write curve blocks as ``series,x,y,stderr`` rows sorted by (series, x),
    rows with equal keys in input order, and return the number of rows.

    The seed goes into a leading ``#`` comment line; all numbers use
    12-significant-digit scientific notation, making output byte-stable."""
    curves = list(curves)
    names = sorted({c.series for c in curves})
    rank = {name: i for i, name in enumerate(names)}
    sizes = [getattr(c.x, "size", 1) for c in curves]
    ranks = np.repeat(np.array([rank[c.series] for c in curves], dtype=int), sizes)
    x, y, err = (_column([getattr(c, f) for c in curves], sizes) for f in ("x", "y", "stderr"))
    order = np.lexsort((x, ranks))
    ranks, x, y, err = ranks[order], x[order], y[order], err[order]
    bad = ~(np.isfinite(x) & np.isfinite(y) & np.isfinite(err))
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(f"non-finite curve point in series {names[ranks[i]]!r}: "
                          f"x={x[i]:.11e}, y={y[i]:.11e}, stderr={err[i]:.11e}")
    labels, memo = np.array([f"{name}," for name in names], dtype=object), {}
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            fh.write(f"# seed={seed}\nseries,x,y,stderr\n")
            for a in range(0, y.size, _CSV_CHUNK_ROWS):
                rows = slice(a, a + _CSV_CHUNK_ROWS)
                fields = [None] * (4 * y[rows].size)
                fields[0::4], fields[1::4] = labels[ranks[rows]].tolist(), _text(x[rows], memo)
                fields[2::4], fields[3::4] = y[rows].tolist(), _text(err[rows], memo)
                fh.write("%s%s,%.11e,%s\n" * y[rows].size % tuple(fields))
    except OSError as exc:
        raise ConfigError(f"cannot write CSV to {path}: {exc}") from exc
    return y.size


def _pair_gains(delta_right, delta_left, cfg, consts, alpha):
    """Exact gains of all nested symmetric-count layouts, via prefix sums.

    ``delta_right``/``delta_left`` are the per-side offsets of antennas
    1..M from the user's projection.  Entry m-1 of the result is the gain of
    the layout made of the innermost m pairs, with waveguide loss referenced
    to the user's projection; the caller multiplies by the squared amplitude
    factor of the feed-to-projection stretch (common to all antennas).
    """
    dr = np.asarray(delta_right, dtype=float)
    dl = np.asarray(delta_left, dtype=float)
    rr = np.hypot(cfg.d_m, dr)
    rl = np.hypot(cfg.d_m, dl)
    theta_r = consts.k0 * (rr + cfg.n_eff * dr)
    theta_l = consts.k0 * (rl - cfg.n_eff * dl)
    qr = 10.0 ** (-alpha * dr / 20.0)
    ql = 10.0 ** (alpha * dl / 20.0)
    z = qr * np.exp(-1j * theta_r) / rr + ql * np.exp(-1j * theta_l) / rl
    s = np.cumsum(z)
    m = np.arange(1, z.size + 1)
    return consts.eta * np.abs(s) ** 2 / (2.0 * m)


def _pair_bounds(delta_right, delta_left, cfg, consts, alpha):
    """Phase-free upper bounds of all nested layouts (prefix-sum form)."""
    dr = np.asarray(delta_right, dtype=float)
    dl = np.asarray(delta_left, dtype=float)
    rr = np.hypot(cfg.d_m, dr)
    rl = np.hypot(cfg.d_m, dl)
    z = 10.0 ** (-alpha * dr / 20.0) / rr + 10.0 ** (alpha * dl / 20.0) / rl
    s = np.cumsum(z)
    m = np.arange(1, z.size + 1)
    return consts.eta * s**2 / (2.0 * m)


def _layouts(m_max, cfg, consts):
    """Per-side offsets ``(delta_right, delta_left)`` of the uniform and the
    refined layout with ``m_max`` antenna pairs, keyed by layout kind."""
    half = gain.uniform_deltas(2 * m_max, cfg, consts)
    d_right, _, _ = refine.refined_half_deltas(m_max, cfg, consts, side="right")
    d_left, _, _ = refine.refined_half_deltas(m_max, cfg, consts, side="left")
    return {"uniform": (half, half), "refined": (d_right, d_left)}


def run_fub_curve(x_max: float = 10.0, step: float = 0.01):
    """Tabulate the bound shape function and mark its maximizer."""
    xstar, fstar = gain.find_xstar()
    xs = step * np.arange(1, int(round(x_max / step)) + 1)
    return [Curve("fub", xs, gain.f_ub(xs)), Curve("fub_peak", xstar, fstar)]


def run_fmc_curve(n_eff_values, step: float = 0.005):
    """Tabulate the coupling shape function over one wavelength of spacing."""
    if not n_eff_values:
        raise ConfigError("need at least one refractive-index value")
    xs = step * np.arange(0, int(round(1.0 / step)) + 1)
    return [Curve(f"fmc_neff{ne:g}", xs, coupling.f_mc(xs, ne)) for ne in n_eff_values]


def _case_feed(cfg: SystemConfig, default: float | None):
    """Feed x-coordinate for sweeps: explicit config value, else the default
    (None keeps "auto" = leftmost antenna)."""
    return cfg.x_0_m if cfg.x_0_m is not None else default


def run_gain_vs_n(
    cfg: SystemConfig,
    delta_p_values,
    cases,
    n_max: int = 6000,
    n_step: int = 2,
):
    """Gain versus antenna count: phase-free bound, refined layout, uniform
    layout, and the fixed-antenna baseline, per spacing and loss case."""
    if n_max < 2:
        raise ConfigError("n_max must be >= 2")
    if n_step < 2 or n_step % 2 != 0:
        raise ConfigError("the antenna-count step must be a positive even integer")
    consts = derive_constants(cfg)
    m_max = n_max // 2
    counts = 2.0 * np.arange(1, m_max + 1)
    sample = np.arange(0, m_max, n_step // 2)
    points = []

    for dp in delta_p_values:
        cfg_dp = replace(cfg, delta_p=dp)
        layouts = _layouts(m_max, cfg_dp, consts)

        for label, alpha in cases:
            gains = {
                kind: _pair_gains(dr, dl, cfg_dp, consts, alpha) * _feed_factor(dl, cfg_dp, alpha)
                for kind, (dr, dl) in layouts.items()
            }
            half, _ = layouts["uniform"]
            bound = _pair_bounds(half, half, cfg_dp, consts, alpha)
            gains["bound"] = bound * _feed_factor(half, cfg_dp, alpha)
            for kind, g in gains.items():
                series = f"{kind}_dp{dp:g}_{label}"
                points += [Curve(series, counts[sample], g[sample]), _peak(series, counts, g)]

    fixed = consts.eta / ((cfg.x_u_m - FIXED_ANTENNA_X_M) ** 2 + cfg.d_m**2)
    points.append(Curve("fixed", counts[sample], fixed))
    return points


def _peak(series: str, xs, ys) -> Curve:
    """Single-row ``<series>_peak`` block at the first maximum of ``ys``."""
    i = int(np.argmax(ys))
    return Curve(f"{series}_peak", float(xs[i]), float(ys[i]))


def _feed_factor(delta_left, cfg, alpha):
    """Squared amplitude factor of the feed-to-user-projection waveguide run.

    With an "auto" feed the factor follows the leftmost antenna of each nested
    layout; an explicit feed must lie left of every layout it serves.
    """
    if alpha == 0.0:
        return 1.0
    if cfg.x_0_m is None:
        span = np.asarray(delta_left, dtype=float)
    else:
        span = cfg.x_u_m - cfg.x_0_m
        if np.any(np.asarray(delta_left) > span + 1e-12):
            raise ConfigError(
                f"feed at {cfg.x_0_m} m lies inside the array; increase n_max headroom"
            )
    return 10.0 ** (-alpha * span / 10.0)


def run_maxgain_vs_spacing(
    cfg: SystemConfig,
    delta_p_values,
    cases,
    trials: int = 1000,
    seed: int = 0,
    n_max: int = 10000,
):
    """Monte Carlo maximum gain versus minimum spacing, with baselines.

    Per user draw the best even antenna count in [2, n_max] is found for
    the refined and the uniform layout under each loss case; the movable and
    fixed single-antenna baselines and the closed-form bound estimate complete
    the figure.  Standard errors above 5 percent of the mean are flagged.
    """
    consts = derive_constants(cfg)
    rng = np.random.Generator(np.random.PCG64(seed))
    x_us = rng.uniform(-USER_HALF_RANGE_M, USER_HALF_RANGE_M, size=trials)
    feed_x0 = _case_feed(cfg, DEFAULT_FEED_X0_M)
    if feed_x0 is None:
        raise ConfigError("the max-gain sweep needs a fixed feed point")
    if feed_x0 > -USER_HALF_RANGE_M:
        raise ConfigError(
            f"feed at {feed_x0} m can fall right of a drawn user position"
        )

    feed_run = x_us - feed_x0
    m_max = n_max // 2
    points = []
    for dp in delta_p_values:
        cfg_dp = replace(cfg, delta_p=dp)
        layouts = _layouts(m_max, cfg_dp, consts)

        for label, alpha in cases:
            factor = 10.0 ** (-alpha * feed_run / 10.0)
            for kind, (dr, dl) in layouts.items():
                g0 = _pair_gains(dr, dl, cfg_dp, consts, alpha)
                # a draw may use the first `cap` pairs: those left of its
                # projection that still lie right of the feed
                caps = np.searchsorted(dl, feed_run, side="right")
                if np.any(caps < 1):
                    raise ConfigError(
                        f"no feasible antenna count for {int(np.sum(caps < 1))} draw(s): "
                        f"the first {kind} antenna at delta_p={dp:g} lies left of the feed"
                    )
                best = np.maximum.accumulate(g0)[caps - 1] * factor
                mean, err = _mean_stderr(best)
                points.append(Curve(f"{kind}_{label}", float(dp), mean, err))
                if err > 0.05 * mean:
                    warnings.warn(
                        f"{kind}_{label} at delta_p={dp:g}: standard error {err:.3e} "
                        f"exceeds 5% of the mean {mean:.3e}",
                        RuntimeWarning,
                        stacklevel=2,
                    )

        points.append(Curve("bound", float(dp), gain.max_gain_estimate(cfg_dp, consts)))

        fluid_reach = FLUID_RANGE_WAVELENGTHS * consts.wavelength
        fluid1 = np.full(trials, consts.eta / cfg.d_m**2)
        fluid2 = consts.eta / (np.maximum(0.0, np.abs(x_us) - fluid_reach) ** 2 + cfg.d_m**2)
        fixed = consts.eta / ((x_us - FIXED_ANTENNA_X_M) ** 2 + cfg.d_m**2)
        for name, vals in (("fluid1", fluid1), ("fluid2", fluid2), ("fixed", fixed)):
            mean, err = _mean_stderr(vals)
            points.append(Curve(name, float(dp), mean, err))
    return points


def _mean_stderr(values):
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_gain_vs_delta_mc(
    cfg: SystemConfig,
    n_values,
    step: float = 0.005,
    delta_min_wl: float = 1e-3,
):
    """Gain versus inter-antenna spacing with and without mutual coupling.

    The grid covers [delta_min_wl, 1] wavelengths (coupling matrices are
    singular at zero spacing); the exact zero-spacing values are emitted as
    analytic rows: N antennas collapsed onto one point give N eta / d^2
    without coupling, and eta / d^2 for the coupling-aware pair.
    """
    consts = derive_constants(cfg)
    count = int(round((1.0 - delta_min_wl) / step))
    xs = delta_min_wl + step * np.arange(0, count + 1)
    xs = xs[xs <= 1.0 + 1e-12]
    if xs[-1] < 1.0 - 1e-12:
        xs = np.append(xs, 1.0)  # the sweep covers the full wavelength
    points = []
    floored_calls = 0

    for n in n_values:
        mc_series = f"mc_N{n}"
        nomc_series = f"nomc_N{n}"
        mc_vals = np.empty(xs.size)
        nomc_vals = np.empty(xs.size)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            for i, x in enumerate(xs):
                spacing = float(x) * consts.wavelength
                mc_vals[i] = coupling.gain_mc(n, spacing, cfg, consts)
                layout = symmetric_uniform_layout(cfg, n, spacing)
                nomc_vals[i] = array_gain_exact(layout, cfg, consts, alpha_wg=0.0)
        floored_calls += sum(1 for w in caught if "floored" in str(w.message))

        points += [Curve(mc_series, xs, mc_vals), Curve(nomc_series, xs, nomc_vals),
                   Curve(nomc_series, 0.0, n * consts.eta / cfg.d_m**2)]
        if n == 2:
            points.append(Curve(mc_series, 0.0, consts.eta / cfg.d_m**2))
        points += [_peak(mc_series, xs, mc_vals), _peak(nomc_series, xs, nomc_vals)]

    if 2 in n_values:
        closed = np.array([coupling.gain_mc_two_closed(float(x) * consts.wavelength, cfg, consts) for x in xs])
        points += [Curve("closed_N2", 0.0, coupling.gain_mc_two_closed(0.0, cfg, consts)),
                   Curve("closed_N2", xs, closed), _peak("closed_N2", xs, closed)]

    fixed = consts.eta / ((cfg.x_u_m - FIXED_ANTENNA_X_M) ** 2 + cfg.d_m**2)
    points.append(Curve("fixed", xs, fixed))

    if floored_calls:
        warnings.warn(
            f"coupling spectrum floored in {floored_calls} grid evaluations "
            "(near-singular at small spacing)",
            RuntimeWarning,
            stacklevel=2,
        )
    return points


def run_sweep(spec: SweepSpec):
    """Dispatch a sweep specification to its implementation."""
    if spec.kind == "fub_curve":
        return run_fub_curve(x_max=spec.x_max, step=spec.grid_step)
    if spec.kind == "fmc_curve":
        n_effs = spec.n_eff_values or (spec.cfg.n_eff,)
        return run_fmc_curve(n_effs, step=spec.grid_step)
    if spec.kind == "gain_vs_n":
        return run_gain_vs_n(
            spec.cfg, spec.delta_p_values, spec.cases, n_max=spec.n_max, n_step=spec.n_step
        )
    if spec.kind == "maxgain_vs_spacing":
        return run_maxgain_vs_spacing(
            spec.cfg,
            spec.delta_p_values,
            spec.cases,
            trials=spec.trials,
            seed=spec.seed,
            n_max=spec.n_max,
        )
    if spec.kind == "gain_vs_delta_mc":
        return run_gain_vs_delta_mc(spec.cfg, spec.n_values, step=spec.grid_step)
    raise ConfigError(f"unknown sweep kind {spec.kind!r}")
