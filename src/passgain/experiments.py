"""Figure-level experiment sweeps and deterministic CSV output.

Each sweep produces a list of :class:`Curve` series blocks whose ``x``, ``y``
and ``stderr`` are each a scalar or a 1-D array, a scalar filling its block;
per-series peaks are single-row ``<series>_peak`` blocks.  :func:`write_csv`
writes the rows sorted by (series, x) with 12-significant-digit scientific
notation, so a fixed seed always yields byte-identical files.  It works by
column, once per file: the blocks go in series order, which leaves the rows
sorted where each series' x runs in order, as every sweep lays it out (the
Monte Carlo sweep given ascending spacings); only otherwise are the rows
sorted, stably.  One finiteness check follows, then the rows in chunks, each
rendered by the numpy kernel of :mod:`passgain.csvrows`, which looks the
digits, sign and exponent of every number up in tables of 4-byte words.  A
number whose digits the kernel cannot vouch for (near a rounding tie, or with
a decimal exponent of 100 or more) gets them from Python's ``%``.

The Monte Carlo sweep draws user positions from a seeded PCG64 generator and,
per draw, finds the best even antenna count exactly.  The gain of every nested
symmetric layout is obtained from prefix sums of the per-pair channel
contributions; a draw can use the nested layouts whose leftmost antenna lies
right of the feed, and the best of those is read off the running maximum of
the gain profile.  The layouts stop at the farthest draw's reach, the longest
feed run R: each ends at its first pair whose left offset lies past R.  The
refinement walk stops there too, so left targets that run out beyond R go
unused; it stops within the uniform layout's count, as refinement only widens
gaps.  The draws are sorted once, in ascending order of feed run, and every
per-draw array stays in that order: the search costs one pass over the
offsets and one lookup per draw, and the means and standard errors are taken
over the sorted draws.

The coupling sweep hands each antenna count N its spacing grid in chunks of
``MAX_SWEEP_SIZE // (N/2)^2`` spacings (at least one); each chunk is one stacked
eigensolve of N/2 x N/2 blocks in :func:`coupling.gain_mc`, so no stack holds
more than MAX_SWEEP_SIZE matrix entries.  Its coupling-free rows use the same
offsets from the user, summed by the direct sum's unchecked kernel: ``gain_mc``
checks each chunk's spacings, once.  The runners check their own arguments;
the spacings they lay out come from the scenario, which bounds them.

Public: USER_HALF_RANGE_M, DEFAULT_FEED_X0_M, FLUID_RANGE_WAVELENGTHS,
FIXED_ANTENNA_X_M, DELTA_MIN_WL, Curve, write_csv, run_fub_curve,
run_fmc_curve, run_gain_vs_n, run_maxgain_vs_spacing, run_gain_vs_delta_mc.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import _at_feed, _direct_sum, _nested_gains, _pair_phasors, _scaled_accumulate
from .errors import ConfigError, NumericsError
from .geometry import (MAX_SWEEP_SIZE, SystemConfig, _check_antenna_count, _check_size,
                       _half_offsets, _resolve_feed, _symmetric_offsets)

# Monte Carlo user-position half-range and default feed location for the
# max-gain-versus-spacing sweep; the movable-antenna baseline may roam over
# +/- 500 wavelengths around the array center.
USER_HALF_RANGE_M = 15.0
DEFAULT_FEED_X0_M = -30.0
FLUID_RANGE_WAVELENGTHS = 500.0
FIXED_ANTENNA_X_M = 0.0
# Smallest spacing of the coupling sweep's grid, in wavelengths: coupling
# matrices are singular at zero spacing.
DELTA_MIN_WL = 1e-3
# Rows formatted and written per chunk by write_csv: few enough that the
# kernel's arrays stay in cache and its transient memory stays small.
_CSV_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class Curve:
    """A block of CSV rows of one series: abscissae, values and Monte Carlo
    standard errors, each a scalar or a 1-D array of the block's length."""

    series: str
    x: float | np.ndarray
    y: float | np.ndarray
    stderr: float | np.ndarray = 0.0


def _values(curves, sizes) -> np.ndarray:
    """The (3, rows) matrix of the blocks' x, y and stderr; a scalar fills its block."""
    flat = [v for c in curves for v in (c.x, c.y, c.stderr)]
    arrays = [k for k, v in enumerate(flat) if getattr(v, "ndim", 0)]
    scalars = np.array([0.0 if getattr(v, "ndim", 0) else v for v in flat], dtype=float)
    values = np.repeat(scalars.reshape(-1, 3).T, sizes, axis=1)
    starts, sizes = (np.cumsum(sizes) - sizes).tolist(), sizes.tolist()
    for k in arrays:
        i, j = divmod(k, 3)
        values[j, starts[i]:starts[i] + sizes[i]] = flat[k]
    return values


def write_csv(curves, path: str | Path, seed: int = 0) -> int:
    """Write curve blocks as ``series,x,y,stderr`` rows sorted by (series, x),
    rows with equal keys in input order, and return the number of rows.

    The blocks go in series order, stably; the rows are sorted, stably, only
    if some series' x then decreases.  The seed goes into a leading ``#`` comment
    line; all numbers use 12-significant-digit scientific notation, making
    output byte-stable.  A non-finite number raises NumericsError naming its
    series."""
    from .csvrows import _csv_rows, _label_words  # `import passgain.cli` skips them

    curves = list(curves)
    names = sorted({c.series for c in curves})
    labels = _label_words(names)
    rank = {name: i for i, name in enumerate(names)}
    curves.sort(key=lambda c: rank[c.series])
    sizes = np.array([getattr(c.x, "size", 1) for c in curves], dtype=int)
    ranks = np.repeat(np.array([rank[c.series] for c in curves], dtype=int), sizes)
    values = _values(curves, sizes)
    x = values[0]
    if not ((x[1:] >= x[:-1]) | (ranks[1:] != ranks[:-1])).all():  # NaN lands here too
        order = np.lexsort((x, ranks))
        ranks, values = ranks[order], values[:, order]
    bad = ~np.isfinite(values).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        x, y, err = values[:, i]
        raise NumericsError(f"non-finite curve point in series {names[ranks[i]]!r}: "
                            f"x={x:.11e}, y={y:.11e}, stderr={err:.11e}")
    path = Path(path)
    try:
        with path.open("wb") as fh:
            fh.write(f"# seed={seed}\nseries,x,y,stderr\n".encode())
            for a in range(0, ranks.size, _CSV_CHUNK_ROWS):
                rows = slice(a, a + _CSV_CHUNK_ROWS)
                fh.write(_csv_rows(labels, ranks[rows], values[:, rows]))
    except OSError as exc:
        raise ConfigError(f"cannot write CSV to {path}: {exc}") from exc
    return ranks.size


def _distinct(flag: str, values, fmt: str) -> None:
    """Refuse an empty ``flag`` list, or two of its entries that print alike
    under ``fmt``, as they do in their series name or CSV abscissa."""
    if len(values) == 0:
        raise ConfigError(f"{flag} needs at least one entry")
    printed = {}
    for v in values:
        text = format(v, fmt)
        if text in printed:
            raise ConfigError(f"{flag} entries {printed[text]} and {v} both print as {text}")
        printed[text] = v


def _pair_count(n_max: int) -> int:
    """The antenna pairs of layouts of up to ``n_max`` antennas, after checking
    that ``n_max >= 2`` and the pairs stay within MAX_SWEEP_SIZE."""
    if n_max < 2:
        raise ConfigError("n_max must be >= 2")
    _check_size("antenna pairs", n_max // 2)
    return n_max // 2


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """Points ``start + k * step`` for k below ``round((stop - start) / step)`` (at least
    k = 0), then ``stop``: the last gap is half a step to 1.5 steps, unless the range is
    under half a step.  For ``stop >= start``, a finite step > 0, <= MAX_SWEEP_SIZE points."""
    if not 0.0 < step < math.inf:
        raise ConfigError(f"grid step must be finite and > 0, got {step}")
    _check_size("grid points", (stop - start) / step)
    return np.append(start + step * np.arange(max(1, round((stop - start) / step))), stop)


def _layouts(m_max, cfg, reach=np.inf):
    """:func:`~passgain.channel._pair_phasors` of the uniform and the refined layout with
    ``m_max`` antenna pairs, keyed by layout kind; each ends at its first pair
    whose left offset exceeds ``reach``, if that comes sooner."""
    from . import refine
    pairs = min(m_max, reach / (cfg.delta_p * cfg.wavelength) + 2)  # enough pairs to pass the reach
    half = _half_offsets(2 * int(pairs), cfg.delta_p * cfg.wavelength)
    half = half[:np.searchsorted(half, reach, side="right") + 1]
    d_right, d_left = refine._refined_offsets(half.size, cfg, reach)
    return {"uniform": _pair_phasors(half, None, cfg),
            "refined": _pair_phasors(d_right, d_left, cfg)}


def run_fub_curve(x_max: float, step: float):
    """Tabulate the bound shape function on (0, x_max] and mark its maximizer."""
    if not math.isfinite(x_max):
        raise ConfigError(f"x_max must be finite, got {x_max}")
    xs = _grid(0.0, max(x_max, 0.0), step)
    xs = xs[xs != 0.0]
    if xs.size == 0:
        raise ConfigError(f"x_max = {x_max:g} leaves no grid point at step {step:g}")
    from . import gain
    return [Curve("fub", xs, gain.f_ub(xs)), Curve("fub_peak", gain.XSTAR, gain.f_ub(gain.XSTAR))]


def run_fmc_curve(n_eff_values, step: float):
    """Tabulate the coupling shape function over one wavelength of spacing."""
    _distinct("--n-eff-list", n_eff_values, "g")
    from . import coupling
    xs = _grid(0.0, 1.0, step)
    return [Curve(f"fmc_neff{ne:g}", xs, coupling.f_mc(xs, ne)) for ne in n_eff_values]


def _cases(cfg: SystemConfig, case) -> tuple[tuple[str, float], ...]:
    """The ``(label, loss)`` pairs of ``case``: "1" the lossless waveguide,
    "2" the scenario's ``alpha_wg_db_per_m`` (dB/m), "both" the two."""
    if not (isinstance(case, str) and case in ("1", "2", "both")):
        raise ConfigError(f"case must be '1', '2' or 'both', got {case!r}")
    both = (("case1", 0.0), ("case2", cfg.alpha_wg_db_per_m))
    return {"1": both[:1], "2": both[1:], "both": both}[case]


def run_gain_vs_n(cfg: SystemConfig, delta_p_values, case: str, n_max: int, n_step: int):
    """Gain versus antenna count: phase-free bound, refined layout, uniform
    layout, and the fixed-antenna baseline, per spacing and loss case, the
    cases of ``case`` as :func:`_cases` gives them: the lossy one reads its
    loss from ``cfg.alpha_wg_db_per_m``."""
    _distinct("--delta-p", delta_p_values, "g")
    cases, m_max = _cases(cfg, case), _pair_count(n_max)
    _check_antenna_count(n_step, "the antenna-count step")
    counts = 2.0 * np.arange(1, m_max + 1)
    sample = np.arange(0, m_max, n_step // 2)
    points = [Curve("fixed", counts[sample], _single_gain(cfg, cfg.x_u_m - FIXED_ANTENNA_X_M))]

    for dp in delta_p_values:
        cfg_dp = replace(cfg, delta_p=dp)
        layouts = _layouts(m_max, cfg_dp)
        layouts["bound"] = layouts["uniform"]._replace(er=1.0, el=1.0)

        # each layout's feed-to-projection run, every feed checked before any sum
        runs = {kind: -_resolve_feed(cfg_dp, -ph.dl) for kind, ph in layouts.items()}
        for label, alpha in cases:
            for kind, ph in layouts.items():
                g = _at_feed(*_nested_gains(ph, cfg_dp, alpha), alpha, runs[kind])
                series = f"{kind}_dp{dp:g}_{label}"
                points += [Curve(series, counts[sample], g[sample]), _peak(series, counts, g)]
    return points


def _single_gain(cfg, offset):
    """Gain of a single antenna ``offset`` metres along the waveguide from the
    user's projection (a scalar or an array)."""
    return cfg.eta / (offset**2 + cfg.d_m**2)


def _peak(series: str, xs, ys) -> Curve:
    """Single-row ``<series>_peak`` block at the first maximum of ``ys``."""
    i = int(np.argmax(ys))
    return Curve(f"{series}_peak", float(xs[i]), float(ys[i]))


def run_maxgain_vs_spacing(cfg: SystemConfig, delta_p_values, case: str, trials: int, seed: int,
                           n_max: int):
    """Monte Carlo maximum gain versus minimum spacing, with baselines.

    Per user draw the best even antenna count in [2, n_max] is found for
    the refined and the uniform layout under each loss case of ``case``, as
    :func:`_cases` gives them (the lossy one at ``cfg.alpha_wg_db_per_m``); the
    movable and fixed single-antenna baselines and the closed-form bound
    estimate complete the figure.  The draws are sorted once, by feed run,
    and every mean and standard error is averaged over them in that order.
    Standard errors above 5 percent of the mean are flagged, layout by layout.
    """
    from . import gain
    _distinct("--delta-p", delta_p_values, ".11e")
    cases = _cases(cfg, case)
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    m_max = _pair_count(n_max)
    _check_size("Monte Carlo trials", trials)
    rng = np.random.Generator(np.random.PCG64(seed))
    x_us = rng.uniform(-USER_HALF_RANGE_M, USER_HALF_RANGE_M, size=trials)
    feed_x0 = DEFAULT_FEED_X0_M if cfg.x_0_m is None else cfg.x_0_m
    if feed_x0 > -USER_HALF_RANGE_M:
        raise ConfigError(f"feed at {feed_x0} m can fall right of a drawn user position")

    # by feed run, once: searchsorted runs faster on sorted keys.  The stable
    # sort touches less of numpy's code than the default SIMD one: less peak RSS
    x_us.sort(kind="stable")
    runs = x_us - feed_x0
    points = []
    for dp in delta_p_values:
        cfg_dp = replace(cfg, delta_p=dp)
        layouts = _layouts(m_max, cfg_dp, reach=runs[-1])  # as the module docstring says
        for kind, ph in layouts.items():
            # per draw, the outermost usable pair: the last left of its
            # projection that still lies right of the feed
            last = np.searchsorted(ph.dl, runs, side="right") - 1
            if last[0] < 0:
                raise ConfigError(
                    f"no feasible antenna count for {int(np.sum(last < 0))} draw(s): "
                    f"the first {kind} antenna at delta_p={dp:g} lies left of the feed"
                )
            for label, alpha in cases:
                g, scale = _nested_gains(ph, cfg_dp, alpha)
                peak = _scaled_accumulate(np.maximum, g, scale)
                best = _at_feed(peak[last], scale[last], alpha, runs)
                mean, err = _mean_stderr(best)
                points.append(Curve(f"{kind}_{label}", float(dp), mean, err))
                if err > 0.05 * mean:
                    warnings.warn(f"{kind}_{label} at delta_p={dp:g}: standard error {err:.3e} "
                                  f"exceeds 5% of the mean {mean:.3e}", RuntimeWarning,
                                  stacklevel=2)

        points.append(Curve("bound", float(dp), gain.max_gain_estimate(cfg_dp)))

    # the single-antenna baselines do not depend on the spacing; fluid1 is exact
    fluid_reach = FLUID_RANGE_WAVELENGTHS * cfg.wavelength
    fluid2 = _single_gain(cfg, np.maximum(0.0, np.abs(x_us) - fluid_reach))
    fixed = _single_gain(cfg, x_us - FIXED_ANTENNA_X_M)
    points += [Curve("fluid1", float(dp), _single_gain(cfg, 0.0)) for dp in delta_p_values]
    for name, vals in (("fluid2", fluid2), ("fixed", fixed)):
        mean, err = _mean_stderr(vals)
        points += [Curve(name, float(dp), mean, err) for dp in delta_p_values]
    return points


def _mean_stderr(values):
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_gain_vs_delta_mc(cfg: SystemConfig, n_values, step: float):
    """Gain versus inter-antenna spacing with and without mutual coupling.

    The grid covers [DELTA_MIN_WL, 1] wavelengths; the exact zero-spacing
    values are emitted as analytic rows: N antennas collapsed onto one point
    give N eta / d^2 without coupling, and eta / d^2 for the coupling-aware
    pair.  The grid is solved in chunks, as the module docstring says.
    """
    _distinct("--n-list", n_values, "")
    for n in n_values:
        _check_antenna_count(n, "every n_list entry")
        _check_size("coupling-matrix entries", n * n)
    from . import coupling
    xs = _grid(DELTA_MIN_WL, 1.0, step)
    spacings = xs * cfg.wavelength
    lossless = replace(cfg, alpha_wg_db_per_m=0.0)  # the coupling model is lossless
    points = [Curve("fixed", xs, _single_gain(cfg, cfg.x_u_m - FIXED_ANTENNA_X_M))]

    for n in n_values:
        size = max(1, MAX_SWEEP_SIZE // (n // 2) ** 2)  # spacings per eigensolve stack
        chunks = [spacings[a:a + size] for a in range(0, spacings.size, size)]
        nomc_vals = np.concatenate([_direct_sum(_symmetric_offsets(n, s), lossless) for s in chunks])
        mc_vals = np.concatenate([coupling.gain_mc(n, s, cfg) for s in chunks])

        mc_series = f"mc_N{n}"
        nomc_series = f"nomc_N{n}"
        points.append(Curve(nomc_series, 0.0, n * cfg.eta / cfg.d_m**2))  # before the grid: x order
        if n == 2:
            points.append(Curve(mc_series, 0.0, _single_gain(cfg, 0.0)))
        points += [Curve(mc_series, xs, mc_vals), Curve(nomc_series, xs, nomc_vals),
                   _peak(mc_series, xs, mc_vals), _peak(nomc_series, xs, nomc_vals)]

    if 2 in n_values:
        closed = coupling.gain_mc_two_closed(spacings, cfg)
        points += [Curve("closed_N2", 0.0, coupling.gain_mc_two_closed(0.0, cfg)),
                   Curve("closed_N2", xs, closed), _peak("closed_N2", xs, closed)]
    return points
