import contextlib
import math
import re
import shlex
import sys
import warnings
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from passgain import coupling, experiments, geometry
from passgain.cli import SUBCOMMANDS, build_parser
from passgain.channel import array_gain_exact
from passgain.errors import ConfigError, NumericsError
from passgain.experiments import (
    USER_HALF_RANGE_M,
    Curve,
    run_fmc_curve,
    run_fub_curve,
    run_gain_vs_delta_mc,
    run_gain_vs_n,
    run_maxgain_vs_spacing,
    write_csv,
)
from passgain.gain import (
    gain_limit,
    gain_uniform,
    max_gain_estimate,
    uniform_deltas,
    upper_bound_sum_uniform,
)
from passgain.geometry import SystemConfig, symmetric_uniform_layout
from passgain.refine import build_refined_layout, refined_half_deltas
from reference import direct_gains, mp_direct_gain, mp_gain_mc, pair_gains

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
            raise NumericsError(f"non-finite curve point in series {p.series!r}: {p}")
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


def _is_tie(v):
    """True when the exact value of ``v`` has 13 significant digits, the last
    a 5: exactly halfway between two 12-digit mantissas."""
    digits = Decimal(v).normalize().as_tuple().digits
    return len(digits) == 13 and digits[-1] == 5


def _adversarial_blocks():
    """Numbers whose digits the table kernel must take from ``%``, or must
    get right next to those: 12-digit ties, powers of ten, 9.999999999995
    10^p, |e| >= 100 and subnormals, each with its neighbours one ulp away,
    of both signs."""
    ties = [float(Fraction(10 * k + 5, 10) * Fraction(10) ** p)
            for k in (100000000000, 123456789012, 999999999999, 314159265358)
            for p in range(-3, 6)]
    ties += [m * 2.0**-j for m in (1, 3, 5, 7, 11) for j in range(1, 70)]
    ties = [v for v in ties if _is_tie(v)]
    assert len(ties) > 30
    powers = [float(f"1e{p}") for p in range(-110, 110)]
    ends = [float(f"9.999999999995e{p}") for p in range(-101, 101)]
    extremes = [5e-324, 1e-323, 2.2250738585072014e-308, 1e-100, 9.99999999999e-100,
                1e100, 9.999999999994e99, 1.7e308, 1.7976931348623157e308]
    values = np.array(ties + powers + ends + extremes)
    values = np.concatenate([values, np.nextafter(values, 0.0),
                             np.nextafter(values, np.finfo(float).max)])
    v = np.concatenate([values, -values, [0.0, -0.0]])
    return [Curve("s", np.arange(v.size, dtype=float), v, v[::-1]),
            Curve("t", v, v[::-1], np.abs(v))]


WRITER_CASES = {
    "random_blocks": _random_blocks(np.random.default_rng(5)),
    "tied_x": [Curve("s", np.zeros(4), np.arange(4.0)), Curve("s", 0.0, -1.0),
               Curve("r", np.array([1.0, 1.0]), np.array([3.0, 2.0]), 0.5)],
    "scalar_blocks": [Curve("b", 2.0, 1.0), Curve("a", 5.0, 2.0, 0.1), Curve("b", 1.0, 3.0),
                      Curve("a", 0.5, 4.0)],
    # only scalar blocks, of Python and numpy int and float types
    "integer_scalar_blocks": [Curve("i", 3, 2), Curve("i", np.int64(1), np.float64(-7.5), 1),
                              Curve("h", 2, np.float32(0.25), np.int32(4))],
    "negative_zero": [Curve("z", np.array([0.0, -0.0, 1.0]), np.array([-0.0, 0.0, -0.0]), -0.0),
                      Curve("z", -0.0, 5.0)],
    "fixed_value_block": [Curve("fixed", np.arange(2.0, 12.0, 2.0), 0.25)],
    "empty": [],
    "adversarial": _adversarial_blocks(),
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
            with pytest.raises(NumericsError, match="'bad'"):
                writer(curves, tmp_path / "x.csv")


def test_write_csv_rejects_nul_in_series_name(tmp_path):
    # the writer drops NUL bytes from its output, so a name holding one is refused
    with pytest.raises(ConfigError, match="NUL"):
        write_csv([Curve("a\0b", 0.0, 1.0)], tmp_path / "x.csv")
    # a comma would add a field to the row, a line break split it
    for name in ("a,b", "a\nb", "a\rb", "x,"):
        with pytest.raises(ConfigError, match=re.escape(repr(name))):
            write_csv([Curve("ok", 0.0, 1.0), Curve(name, 0.0, 1.0)], tmp_path / "x.csv")


def test_write_csv_rejects_non_finite(tmp_path):
    with pytest.raises(NumericsError):
        write_csv([Curve("a", 0.0, float("nan"))], tmp_path / "x.csv")


def test_write_csv_format(tmp_path):
    path = tmp_path / "fmt.csv"
    write_csv([Curve("s", 1.0, 9.99e-5, 0.0)], path, seed=1)
    row = path.read_text().splitlines()[2]
    assert row == "s,1.00000000000e+00,9.99000000000e-05,0.00000000000e+00"


def test_write_csv_deterministic(tmp_path, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pts = run_maxgain_vs_spacing(replace(cfg, alpha_wg_db_per_m=0.08), (0.5,), "both",
                                     trials=10, seed=4, n_max=800)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(pts, f1, seed=4)
    write_csv(pts, f2, seed=4)
    assert f1.read_bytes() == f2.read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False)  # with subnormals and -0.0


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(st.sampled_from(["a", "mc_N2", "refined_dp0.5_case1_peak"]),
                          finite, finite, finite), max_size=40))
def test_write_csv_matches_reference_on_any_floats(tmp_path_factory, rows):
    curves = [Curve(name, np.array([x]), np.array([y]), e) for name, x, y, e in rows]
    path = tmp_path_factory.mktemp("floats")
    new, ref = path / "new.csv", path / "ref.csv"
    assert write_csv(curves, new) == reference_write_csv(curves, ref)
    assert new.read_bytes() == ref.read_bytes()


def _readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text[text.index("## CLI"):].split("```")[1]  # the first code block
    return [shlex.split(l)[1:] for l in block.splitlines() if l.startswith("passgain ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_write_csv_matches_reference_on_readme_sweeps(tmp_path, argv):
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        curves = SUBCOMMANDS[args.command].run(args, SystemConfig())
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    rows = reference_write_csv(curves, ref, seed=args.seed)
    assert write_csv(curves, new, seed=args.seed) == rows
    assert new.read_bytes() == ref.read_bytes()


def test_write_csv_reads_an_iterator_like_its_list(tmp_path):
    # the writer reads the blocks twice, so it must not exhaust a one-shot iterable
    for case, curves in WRITER_CASES.items():
        listed, iterated = tmp_path / f"{case}_list.csv", tmp_path / f"{case}_iter.csv"
        assert write_csv(iter(curves), iterated) == write_csv(curves, listed)
        assert iterated.read_bytes() == listed.read_bytes()


@contextlib.contextmanager
def counting_lexsorts():
    """Count the calls of ``np.lexsort`` in the block, in a one-item list."""
    calls, lexsort = [0], np.lexsort

    def counted(*args, **kwargs):
        calls[0] += 1
        return lexsort(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "lexsort", counted)
        yield calls


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_write_csv_sorts_no_readme_sweep(tmp_path, argv):
    # every README sweep lays each series out in x order, so no row is sorted
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        curves = SUBCOMMANDS[args.command].run(args, SystemConfig())
    with counting_lexsorts() as calls:
        write_csv(curves, tmp_path / "out.csv")
    assert calls == [0]


def test_write_csv_sorts_blocks_out_of_x_order_once(tmp_path):
    with counting_lexsorts() as calls:
        write_csv(WRITER_CASES["scalar_blocks"], tmp_path / "out.csv")  # a: 5.0 then 0.5
    assert calls == [1]


def _in_x_order(curves):
    """True when each series' x is nondecreasing through its blocks."""
    xs = {}
    for p in expand(curves):
        xs.setdefault(p.series, []).append(p.x)
    return all(a <= b for v in xs.values() for a, b in zip(v, v[1:]))


magnitudes = st.floats(min_value=1e-310, max_value=1e300)
csv_numbers = st.one_of(st.sampled_from([0.0, -0.0]), magnitudes, magnitudes.map(lambda v: -v))


@st.composite
def curve_lists(draw):
    """Blocks of series whose names prefix one another: scalar or array,
    with array abscissae sorted, reversed, tied in pairs or as drawn."""
    curves = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(["a", "a_peak", "ab", "b"]))
        if draw(st.booleans()):
            curves.append(Curve(name, draw(csv_numbers), draw(csv_numbers), draw(csv_numbers)))
            continue
        n = draw(st.integers(1, 8))
        column = st.lists(csv_numbers, min_size=n, max_size=n).map(np.array)
        x = draw(column)
        x = {"sorted": np.sort(x), "reversed": np.sort(x)[::-1].copy(),
             "ties": np.sort(x[np.arange(n) // 2]), "drawn": x}[
            draw(st.sampled_from(["sorted", "reversed", "ties", "drawn"]))]
        curves.append(Curve(name, x, draw(column), draw(st.one_of(csv_numbers, column))))
    return curves


@settings(deadline=None, max_examples=200)
@given(curve_lists())
@example([Curve("a", np.array([1.0, 2.0]), np.array([-0.0, 1e-310])), Curve("a_peak", 2.0, 3.0),
          Curve("a", 2.0, -1e300), Curve("ab", 5.0, 0.5, np.array([0.0]))])
@example([Curve("b", np.array([2.0, 1.0]), np.array([3.0, 4.0])), Curve("a", 1.0, 1.0),
          Curve("b", 0.5, 0.0, -0.0)])
def test_write_csv_matches_reference_on_any_blocks(tmp_path_factory, curves):
    # both branches: blocks already in x order write unsorted, the rest take one lexsort
    path = tmp_path_factory.mktemp("blocks")
    new, ref = path / "new.csv", path / "ref.csv"
    with counting_lexsorts() as calls:
        rows = write_csv(curves, new)
    assert rows == reference_write_csv(curves, ref)
    assert new.read_bytes() == ref.read_bytes()
    assert calls == [0 if _in_x_order(curves) else 1]


# ------------------------------------------------------------- fast kernels


def test_library_uniform_gain_and_bound_are_the_sweep_rows(cfg):
    # gain_uniform and upper_bound_sum_uniform take the sweep's own pair
    # kernel, so the library and the gain-vs-n CSV agree to the last bit
    rows = by_series(run_gain_vs_n(replace(cfg, alpha_wg_db_per_m=0.08), (0.5, 1.0), "both",
                                   n_max=2000, n_step=2))
    for dp in (0.5, 1.0):
        c = replace(cfg, delta_p=dp)
        for kind, library in (("uniform", gain_uniform), ("bound", upper_bound_sum_uniform)):
            sampled = rows[f"{kind}_dp{dp:g}_case1"]
            assert len(sampled) == 1000
            assert [p.y for p in sampled] == [library(int(p.x), c) for p in sampled]


def test_pair_gains_match_exact_channel():
    cfg = SystemConfig(x_0_m=-30.0)
    m_max = 40
    dr, _, _ = refined_half_deltas(m_max, cfg, side="right")
    dl, _, _ = refined_half_deltas(m_max, cfg, side="left")
    for alpha in (0.0, 0.08):
        g = pair_gains(dr, dl, cfg, alpha)
        for m in (1, 3, 17, 40):
            offsets = np.concatenate([-dl[:m][::-1], dr[:m]])
            reference = array_gain_exact(offsets, replace(cfg, alpha_wg_db_per_m=alpha))
            fast = g[m - 1] * 10.0 ** (-alpha * (cfg.x_u_m + 30.0) / 10.0)
            assert fast == pytest.approx(reference, rel=1e-12)


def refined_pairs_past(run, m_max, cfg):
    """Refined (right, left) offsets of all m_max pairs or, where the left
    targets run out before that, of the pairs up to the first whose left
    offset lies past ``run``; NumericsError when they run out before it."""
    dr = refined_half_deltas(m_max, cfg, side="right")[0]
    try:
        return dr, refined_half_deltas(m_max, cfg, side="left")[0]
    except NumericsError:
        lo, hi = 0, m_max  # bisect for the longest left walk that succeeds
        while hi - lo > 1:
            try:
                refined_half_deltas((mid := (lo + hi) // 2), cfg, side="left")
                lo = mid
            except NumericsError:
                hi = mid
        dl = refined_half_deltas(max(lo, 1), cfg, side="left")[0]
        if not dl[-1] > run:
            raise
        m = int(np.searchsorted(dl, run, side="right")) + 1
        return dr[:m], dl[:m]


def brute_force_maxgain(cfg, dps, trials, seed, n_max):
    """Per draw, the argmax over every pair count whose leftmost antenna lies
    right of the feed, on the sweep's own PCG64 draws, over layouts of the
    full n_max / 2 pairs (refined ones cut past the longest feed run where
    their left targets run out), lossless and at ``cfg.alpha_wg_db_per_m``:
    {(series, delta_p): (mean, stderr)}, or None when some draw has no such count."""
    rng = np.random.Generator(np.random.PCG64(seed))
    runs = rng.uniform(-USER_HALF_RANGE_M, USER_HALF_RANGE_M, size=trials) - cfg.x_0_m
    m_max = n_max // 2
    rows = {}
    for dp in dps:
        c = replace(cfg, delta_p=dp)
        half = uniform_deltas(2 * m_max, c)
        refined = refined_pairs_past(runs.max(), m_max, c)
        for kind, (dr, dl) in (("uniform", (half, half)), ("refined", refined)):
            counts = [np.count_nonzero(dl <= run) for run in runs]
            if min(counts) < 1:
                return None
            # layout m's gain is a prefix sum over its own m pairs, so the
            # pairs past every draw add nothing; their loss from the user's
            # projection may pass the one block of pair_gains
            reach = max(counts)
            for label, alpha in (("case1", 0.0), ("case2", cfg.alpha_wg_db_per_m)):
                g = pair_gains(dr[:reach], dl[:reach], c, alpha)
                best = np.array([
                    g[:count].max() * 10.0 ** (-alpha * run / 10.0)
                    for count, run in zip(counts, runs)
                ])
                stderr = best.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
                rows[f"{kind}_{label}", dp] = (best.mean(), stderr)
    return rows


def assert_rows_match(pts, expected):
    rows = {(p.series, p.x): p for p in expand(pts)}
    for key, (mean, stderr) in expected.items():
        assert rows[key].y == pytest.approx(mean, rel=1e-12), key
        assert rows[key].stderr == pytest.approx(stderr, rel=1e-9, abs=1e-12 * mean), key


def test_maxgain_search_matches_brute_force_argmax():
    # with the feed at -20 m the cap binds for part of the draws at both spacings
    cfg = SystemConfig(x_0_m=-20.0)
    trials, seed, n_max = 50, 21, 4000
    dps = (0.5, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pts = run_maxgain_vs_spacing(cfg, dps, "both", trials=trials, seed=seed, n_max=n_max)
    expected = brute_force_maxgain(cfg, dps, trials, seed, n_max)
    assert len(expected) == 8
    assert_rows_match(pts, expected)


@settings(max_examples=25, deadline=None)
@given(
    x_0_m=st.floats(-60.0, -15.0),
    dp=st.floats(0.3, 4.0),
    n_eff=st.floats(1.0, 3.0),
    n_max=st.integers(2, 8000),
    trials=st.integers(1, 40),
    alpha=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
# the reach truncates the layouts (a -20 m feed reaches at most 35 m, about
# 1,630 pairs at delta_p = 2), and n_max binds first (a -60 m feed reaches
# at most 75 m, about 14,000 pairs at delta_p = 0.5)
@example(x_0_m=-20.0, dp=2.0, n_eff=1.44, n_max=8000, trials=30, alpha=0.08, seed=3)
@example(x_0_m=-60.0, dp=0.5, n_eff=1.44, n_max=8000, trials=30, alpha=0.08, seed=3)
# the refined walk stops at the longest feed run: after 2,097 of 5,000 pairs
# in the default scenario, 1,700 of 2,075 at n_eff = 3 (the strategy's other
# end); at n_eff = 1 the left targets run out beyond it, at antenna 281 of
# 5,000, and at antenna 168 of n_max / 2 = 168
@example(x_0_m=-30.0, dp=0.5, n_eff=1.44, n_max=10000, trials=40, alpha=0.08, seed=1)
@example(x_0_m=-30.0, dp=2.0, n_eff=3.0, n_max=10000, trials=40, alpha=0.08, seed=1)
@example(x_0_m=-30.0, dp=0.3, n_eff=1.0, n_max=10000, trials=40, alpha=0.08, seed=1)
@example(x_0_m=-15.0, dp=4.0, n_eff=1.0, n_max=336, trials=1, alpha=0.0, seed=0)
# the refined left walk of 1,009 pairs at n_eff = 1.0078 reaches past 1 km,
# 100 decades of loss at 2 dB/m, far beyond every draw
@example(x_0_m=-15.0, dp=1.0, n_eff=1.0078125, n_max=2018, trials=1, alpha=2.0, seed=0)
def test_maxgain_matches_full_length_brute_force(x_0_m, dp, n_eff, n_max, trials, alpha, seed):
    # the sweep lays out only the pairs a draw can reach; the brute force all
    # n_max / 2 of them, or the refined pairs up to the first past every draw
    # where the full-length walk runs out of left targets
    cfg = SystemConfig(x_0_m=x_0_m, n_eff=n_eff, alpha_wg_db_per_m=alpha)
    try:
        expected = brute_force_maxgain(cfg, (dp,), trials, seed, n_max)
        error = (ConfigError, "no feasible antenna count") if expected is None else None
    except NumericsError:  # the left targets run out within the longest feed run
        error = (NumericsError, "left-side targets are exhausted")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if error:
            with pytest.raises(error[0], match=error[1]):
                run_maxgain_vs_spacing(cfg, (dp,), "both", trials=trials, seed=seed, n_max=n_max)
            return
        pts = run_maxgain_vs_spacing(cfg, (dp,), "both", trials=trials, seed=seed, n_max=n_max)
    assert_rows_match(pts, expected)


@pytest.mark.parametrize("runner", ["gain_vs_n", "build_refined_layout"])
def test_refinement_failing_on_both_sides_walks_only_the_left(runner, monkeypatch):
    # at 1 MHz and 1e6 wavelengths the right side passes the 1e11 m length
    # bound at antenna 335, and at n_eff = 1 the left targets run out at
    # antenna 1; gain-vs-n and the layout builder walk the left side first
    # and raise its failure as that walk ends, without walking the right side
    cfg = SystemConfig(f_c_hz=1e6, n_eff=1.0)
    run = {
        "gain_vs_n": lambda: run_gain_vs_n(cfg, (1e6,), "1", n_max=1000, n_step=100),
        "build_refined_layout": lambda: build_refined_layout(1000, replace(cfg, delta_p=1e6)),
    }[runner]
    sides = []

    def counted(n_half, cfg, side="right", reach=np.inf):
        sides.append(side)
        return refined_half_deltas(n_half, cfg, side, reach)

    monkeypatch.setattr("passgain.refine.refined_half_deltas", counted)
    with pytest.raises(NumericsError, match="^left-side targets are exhausted at antenna 1 "):
        run()
    assert sides == ["left"]


@pytest.mark.parametrize("n_max", [1, 0, -4])
@pytest.mark.parametrize("runner", ["gain_vs_n", "maxgain_vs_spacing"])
def test_runners_reject_n_max_below_two(cfg, runner, n_max):
    # the message names the flag, not the halved pair count it becomes
    lossy = replace(cfg, alpha_wg_db_per_m=0.08)
    run = {
        "gain_vs_n": lambda: run_gain_vs_n(lossy, (0.5,), "both", n_max=n_max, n_step=2),
        "maxgain_vs_spacing": lambda: run_maxgain_vs_spacing(
            lossy, (0.5,), "both", trials=5, seed=0, n_max=n_max),
    }[runner]
    with pytest.raises(ConfigError, match=r"^n_max must be >= 2$"):
        run()


@pytest.mark.parametrize("case", ["3", "case1", (("case1", 0.0),), [("case2", 0.08)], 2, None],
                         ids=["3", "label", "label_alpha_tuple", "label_alpha_list", "int", "None"])
@pytest.mark.parametrize("runner", ["gain_vs_n", "maxgain_vs_spacing"])
def test_runners_refuse_a_case_other_than_1_2_or_both(cfg, runner, case):
    # the loss of case 2 is the scenario's; a (label, alpha) sequence is no case
    run = {
        "gain_vs_n": lambda: run_gain_vs_n(cfg, (0.5,), case, n_max=100, n_step=2),
        "maxgain_vs_spacing": lambda: run_maxgain_vs_spacing(
            cfg, (0.5,), case, trials=5, seed=0, n_max=100),
    }[runner]
    with pytest.raises(ConfigError, match="^case must be '1', '2' or 'both', got "):
        run()


def test_maxgain_rejects_draw_without_feasible_count():
    # the first antenna sits 0.5 delta_p wavelengths = 10.7 m left of the
    # user, more than the feed run of every draw within 10.7 m of the feed
    cfg = SystemConfig(x_0_m=-15.0, delta_p=2000.0)
    with pytest.raises(ConfigError, match="no feasible antenna count"):
        run_maxgain_vs_spacing(cfg, (2000.0,), "both", trials=30, seed=0, n_max=20)


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


@settings(max_examples=300, deadline=None)
@given(start=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6), step=st.floats(1e-6, 1e6))
@example(start=0.0, width=5e-13, step=1e-12)  # under half a step: the two ends
@example(start=0.0, width=1.000000000002, step=0.001)  # the end replaces x = 1
@example(start=0.0, width=1.0, step=0.3)  # 0.9 gives way to 1
@example(start=1e-3, width=0.999, step=0.005)  # gain-vs-delta-mc's grid
def test_grid_runs_from_start_to_stop_in_gaps_of_at_least_half_a_step(start, width, step):
    stop = start + width
    assume(width / step <= 1e4)
    xs = experiments._grid(start, stop, step)
    assert xs[0] == start and xs[-1] == stop
    gaps = np.diff(xs)
    assert np.all(gaps > 0)
    if xs.size > 2:
        # up to the rounding of start + k * step at the grid's magnitude
        slack = 8 * np.spacing(max(abs(start), abs(stop)))
        assert np.all(np.abs(gaps[:-1] - step) <= slack)
        assert step / 2 - slack <= gaps[-1] <= 1.5 * step + slack


# ------------------------------------------------------------ gain versus N


@pytest.fixture(scope="module")
def gain_vs_n_points(cfg):
    return by_series(run_gain_vs_n(replace(cfg, alpha_wg_db_per_m=0.08), (0.5, 1.0), "both",
                                   n_max=4000, n_step=4))


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


def test_gain_vs_n_bound_dominates_and_below_limit(cfg, gain_vs_n_points):
    limit = gain_limit(cfg)
    for dp in ("0.5", "1"):
        bound = {p.x: p.y for p in gain_vs_n_points[f"bound_dp{dp}_case1"]}
        for kind in ("refined", "uniform"):
            series = {p.x: p.y for p in gain_vs_n_points[f"{kind}_dp{dp}_case1"]}
            assert all(series[x] <= bound[x] * (1 + 1e-9) for x in bound)
        assert all(y <= limit * (1 + 1e-9) for y in bound.values())


def test_gain_vs_n_with_explicit_feed():
    # a fixed feed close to the array bounds how many antennas fit left of it
    cfg = SystemConfig(x_0_m=-30.0)
    points = by_series(run_gain_vs_n(cfg, (0.5,), "both", n_max=400, n_step=8))
    assert "refined_dp0.5_case2" in points
    with pytest.raises(ConfigError):
        run_gain_vs_n(cfg, (0.5,), "both", n_max=40000, n_step=100)


@pytest.mark.parametrize("f_c", [28e9, 300e9])
def test_gain_vs_n_refined_rows_match_an_mpmath_direct_sum(f_c):
    # the refined rows, sampled and at their peak, against the direct sum over
    # the same refined offsets at 40 digits: at worst 2.2e-15 (28 GHz) and
    # 1.4e-15 (300 GHz) here, 6.0e-15 and 4.4e-15 sampled up to N = 3000
    pytest.importorskip("mpmath")
    cfg = SystemConfig(f_c_hz=f_c, alpha_wg_db_per_m=0.0)
    points = by_series(run_gain_vs_n(cfg, (0.5, 1.0), "1", n_max=1000, n_step=166))
    for dp in (0.5, 1.0):
        c = replace(cfg, delta_p=dp)
        dr, dl = (refined_half_deltas(500, c, side=s)[0] for s in ("right", "left"))
        series = f"refined_dp{dp:g}_case1"
        rows = points[series] + points[f"{series}_peak"]
        assert len(rows) == 8
        for p in rows:
            m = round(p.x) // 2
            want = mp_direct_gain(np.concatenate([-dl[:m][::-1], dr[:m]]), c)
            assert abs(p.y - want) <= 1e-13 * want, (series, p.x)


# -------------------------------------------------- max gain versus spacing


@pytest.fixture(scope="module")
def maxgain_points(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return by_series(
            run_maxgain_vs_spacing(
                replace(cfg, alpha_wg_db_per_m=0.08), (0.5, 1.0, 2.0), "both", trials=40,
                seed=11, n_max=6000
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


def test_maxgain_bound_estimate_series(cfg, maxgain_points):
    for p in maxgain_points["bound"]:
        c = SystemConfig(delta_p=p.x, alpha_wg_db_per_m=0.0)
        assert p.y == pytest.approx(max_gain_estimate(c), rel=1e-12)
        assert p.stderr == 0.0


def test_maxgain_below_limit(cfg, maxgain_points):
    limit = gain_limit(cfg)
    for series, rows in maxgain_points.items():
        for p in rows:
            assert p.y <= limit * (1 + 1e-9)


@pytest.mark.parametrize("trials", [10, 1000])
def test_maxgain_stderr_populated(cfg, trials):
    # lossy runs vary with the drawn user position; the constant fluid1
    # baseline does not, so its stderr is 0 at any trial count (a sample
    # stderr of the constant drifts off 0 by rounding at 1000 trials)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        points = by_series(run_maxgain_vs_spacing(replace(cfg, alpha_wg_db_per_m=0.08),
                                                  (0.5, 1.0, 2.0), "both",
                                                  trials=trials, seed=11, n_max=6000))
    assert all(p.stderr > 0 for p in points["refined_case2"])
    assert all(p.stderr >= 0 for p in points["refined_case1"])
    assert all(p.stderr == 0 for p in points["fluid1"])


def test_maxgain_same_seed_same_result(cfg):
    lossy = replace(cfg, alpha_wg_db_per_m=0.08)
    a = run_maxgain_vs_spacing(lossy, (0.5,), "2", trials=15, seed=3, n_max=500)
    b = run_maxgain_vs_spacing(lossy, (0.5,), "2", trials=15, seed=3, n_max=500)
    assert a == b
    c = run_maxgain_vs_spacing(lossy, (0.5,), "2", trials=15, seed=4, n_max=500)
    assert any(pa.y != pc.y for pa, pc in zip(a, c) if pa.series == "refined_case2")


def test_maxgain_rejects_infeasible_feed():
    cfg = SystemConfig(x_0_m=-5.0)  # inside the user range
    with pytest.raises(ConfigError):
        run_maxgain_vs_spacing(cfg, (0.5,), "1", trials=5, seed=0, n_max=100)


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


def test_mc_sweep_zero_rows(mc_points, cfg):
    mc0 = [p for p in mc_points["mc_N2"] if p.x == 0][0]
    assert mc0.y == pytest.approx(cfg.eta / cfg.d_m**2, rel=1e-12)
    free0 = [p for p in mc_points["nomc_N2"] if p.x == 0][0]
    assert free0.y == 2 * cfg.eta / cfg.d_m**2


def mc_csv_rows(cfg, path, n_values=(2, 4)):
    """The bytes of the coupling sweep's CSV at the default grid step."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        write_csv(run_gain_vs_delta_mc(cfg, n_values, step=0.005), path)
    return path.read_bytes()


def test_mc_sweep_rows_equal_point_by_point_reference(cfg):
    # bit for bit against the scalar calls: gain_mc per spacing, and
    # array_gain_exact on the layout
    lam, scale = cfg.wavelength, cfg.eta / cfg.d_m**2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = by_series(run_gain_vs_delta_mc(cfg, (2, 8), step=0.005))
    # and against mpmath's unfloored full-matrix root at sampled rows: 5e-12
    # at or above half a wavelength (2.5e-12 seen); below it 1e-7 (8.8e-8 seen
    # at N = 8, 0.066 wavelengths, where an N x N eigensolve reads 1.1e-10).
    # Rows whose even coupling block is floored are counted, not compared
    mp_errs, floored = [], 0
    for n in (2, 8):
        xs = np.array([p.x for p in rows[f"mc_N{n}"] if p.x > 0])
        mc = [p.y for p in rows[f"mc_N{n}"] if p.x > 0]
        layouts = [symmetric_uniform_layout(n, float(x) * lam) for x in xs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert mc == [coupling.gain_mc(n, float(x) * lam, cfg) for x in xs]
        assert [p.y for p in rows[f"nomc_N{n}"] if p.x > 0] == [
            array_gain_exact(layout, cfg) for layout in layouts]
        c, h = coupling.coupling_matrix(n, xs * lam, cfg), n // 2
        even_floored = np.linalg.eigvalsh(
            c[:, h:, h:] + c[:, h:, h - 1::-1]).min(axis=-1) < coupling.EIG_FLOOR
        floored += int(even_floored.sum())
        for x in (0.066, 0.071, 0.201, 0.401, 0.521, 0.751, 1.0):
            i = int(np.argmin(np.abs(xs - x)))
            if not even_floored[i]:
                want = mp_gain_mc(n, float(xs[i]) * lam, cfg)
                mp_errs.append((n, x, abs(mc[i] - want) / want))
    assert floored > 0 and len(mp_errs) == 14
    assert all(err <= (5e-12 if x >= 0.5 else 1e-7) for n, x, err in mp_errs), mp_errs
    # the closed form in Python floats, relative to the gain or, near the
    # cos^2 nulls, to 1e-6 eta / d^2, as the benchmark oracle measures it
    spacings = np.linspace(0.0, 1.0, 1429)[1:] * lam
    closed_ref = np.array([
        2.0 * cfg.eta * math.cos(cfg.n_eff * cfg.k0 * s / 2.0) ** 2
        / ((cfg.d_m**2 + s**2 / 4.0) * (1.0 + math.sin(cfg.k0 * s) / (cfg.k0 * s)))
        for s in spacings.tolist()])
    err = np.abs(coupling.gain_mc_two_closed(spacings, cfg) - closed_ref)
    assert np.max(err / np.maximum(closed_ref, 1e-6 * scale)) <= 2e-12


def test_mc_sweep_chunks_keep_bytes_and_cap(cfg, tmp_path, monkeypatch):
    # the sweep's eigensolves take stacks of N/2 x N/2 even blocks
    whole = mc_csv_rows(cfg, tmp_path / "whole.csv", (2, 4, 8))
    stacks, eigh = [], np.linalg.eigh

    def recording_eigh(stack):
        stacks.append(stack.shape)
        return eigh(stack)

    monkeypatch.setattr(experiments, "MAX_SWEEP_SIZE", 200)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    chunked = mc_csv_rows(cfg, tmp_path / "chunked.csv", (2, 4, 8))
    assert chunked == whole
    assert all(math.prod(shape) <= 200 for shape in stacks)
    per_n = {n: [s[0] for s in stacks if s[-1] == n // 2] for n in (2, 4, 8)}
    assert len(per_n[4]) >= 3 and len(per_n[8]) >= 3
    assert all(sum(sizes) == 201 for sizes in per_n.values())


def test_mc_sweep_translation_invariant(cfg, tmp_path):
    # far from the origin the absolute positions round the 1e-5 m gaps, to
    # 1.2e-10 m at the domain's edge; the sweep works on offsets from the
    # user and keeps every row but the fixed antenna's
    near = mc_csv_rows(cfg, tmp_path / "near.csv").decode().splitlines()
    keep = ("mc_", "nomc_", "closed_N2")
    rows = [line for line in near if line.startswith(keep)]
    assert len(rows) > 1000
    for x_u in (1e5, -1e6):
        far = mc_csv_rows(replace(cfg, x_u_m=x_u), tmp_path / "far.csv").decode().splitlines()
        assert rows == [line for line in far if line.startswith(keep)]


def test_mc_sweep_checks_the_explicit_feed(cfg):
    # at one wavelength the leftmost of four antennas sits 1.5 wavelengths left
    lam = cfg.wavelength
    with pytest.raises(ConfigError, match="lies right of the leftmost antenna"):
        run_gain_vs_delta_mc(replace(cfg, x_0_m=-1.4 * lam), (2, 4), step=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run_gain_vs_delta_mc(replace(cfg, x_0_m=-1.5 * lam), (2, 4), step=0.1)


FEED_INSIDE = SystemConfig(x_0_m=0.0)  # the user's projection: inside every layout


@pytest.mark.parametrize("evaluate", [
    lambda c: array_gain_exact(symmetric_uniform_layout(4, 0.01), c),
    lambda c: run_gain_vs_n(c, (0.5,), "1", n_max=100, n_step=2),
    lambda c: run_gain_vs_n(c, (0.5,), "2", n_max=100, n_step=2),
    lambda c: run_gain_vs_delta_mc(c, (2, 4), step=0.1),
], ids=["array_gain_exact", "gain_vs_n_lossless", "gain_vs_n_lossy", "gain_vs_delta_mc"])
def test_feed_inside_the_array_has_one_message(evaluate):
    # every route to the exact gain resolves the feed in one place
    with pytest.raises(ConfigError) as info:
        evaluate(FEED_INSIDE)
    assert re.fullmatch(r"feed point x_0=0\.0 m lies right of the leftmost antenna "
                        r"at -\d\.\d+(e-\d+)? m", str(info.value))


def test_mc_sweep_names_an_unresolvable_user_position(cfg):
    with pytest.raises(ConfigError, match="x_u_m"):
        run_gain_vs_delta_mc(replace(cfg, x_u_m=1e300), (2,), step=0.1)


# ---------------------------------------------------------------- input checks


def test_runners_reject_bad_inputs(cfg):
    lossy = replace(cfg, alpha_wg_db_per_m=0.08)
    bad_calls = [
        lambda: run_maxgain_vs_spacing(lossy, (0.5,), "both", trials=0, seed=0, n_max=100),
        lambda: run_maxgain_vs_spacing(lossy, (), "both", trials=5, seed=0, n_max=100),
        lambda: run_maxgain_vs_spacing(lossy, (0.5,), "both", trials=5, seed=-1, n_max=100),
        lambda: run_gain_vs_n(lossy, (), "both", n_max=100, n_step=2),
        lambda: run_gain_vs_n(lossy, np.array([0.5, 0.5]), "both", n_max=100, n_step=2),
        lambda: run_gain_vs_n(lossy, (0.5,), "both", n_max=100, n_step=3),
        lambda: run_gain_vs_delta_mc(cfg, (), step=0.1),
        lambda: run_fub_curve(x_max=4.0, step=0.0),
        lambda: run_fub_curve(x_max=-5.0, step=0.01),
        lambda: run_gain_vs_delta_mc(cfg, (2, 3), step=0.1),
        lambda: run_fmc_curve((1.44,), step=0.0),
        lambda: run_gain_vs_delta_mc(cfg, (2,), step=0.0),
    ]
    for call in bad_calls:
        with pytest.raises(ConfigError):
            call()


@pytest.mark.parametrize("alpha", [1e300])
def test_gain_vs_n_loss_overflow_names_the_loss(alpha):
    # float64 cannot resolve the decades of such a loss: it lies outside the
    # scenario domain and is refused as the scenario is built, naming the loss.
    # At the domain's largest loss the sweep runs, and numpy raises nothing
    with pytest.raises(ConfigError, match="alpha_wg_db_per_m"):
        SystemConfig(alpha_wg_db_per_m=alpha)
    with np.errstate(over="raise", invalid="raise"):
        pts = run_gain_vs_n(SystemConfig(alpha_wg_db_per_m=1e6), (0.5, 1.0), "2", 6000, 2)
    assert all(np.all(np.isfinite(p.y)) for p in pts)


@pytest.mark.parametrize("case", ["2", "both"])
def test_gain_vs_n_checks_every_feed_before_any_sum(case, monkeypatch):
    # the feed lies left of the uniform layout but right of the refined one:
    # the feed is named before any layout is summed, in either case
    layouts = experiments._layouts(2, SystemConfig())
    x_0 = -(layouts["uniform"].dl[-1] + layouts["refined"].dl[-1]) / 2
    monkeypatch.setattr(experiments, "_nested_gains",
                        lambda *args: pytest.fail("a layout was summed before every feed check"))
    with pytest.raises(ConfigError, match="lies right of the leftmost antenna"):
        run_gain_vs_n(SystemConfig(x_0_m=x_0, alpha_wg_db_per_m=1e6), (0.5,), case, 4, 2)


def assert_gain_vs_n_rows_are_the_direct_sum(cfg, dp, alpha, n_max, counts):
    """The gain-vs-n ``uniform``, ``bound`` and ``refined`` rows at pair counts
    ``counts`` are :func:`reference.direct_gains` on the sweep's layouts, to
    within 1e-9 of the phase-free bound, or of the smallest normal float
    where the bound is subnormal and float64 holds fewer digits."""
    c = replace(cfg, delta_p=dp, alpha_wg_db_per_m=alpha)
    rows = by_series(run_gain_vs_n(c, (dp,), "2", n_max=n_max, n_step=2))
    half = uniform_deltas(n_max // 2 * 2, c)
    refined = [refined_half_deltas(n_max // 2, c, side=s)[0] for s in ("right", "left")]
    g_uni, b_uni = direct_gains(half, half, c, counts)
    g_ref, b_ref = direct_gains(*refined, c, counts)
    for kind, want, bound in (("uniform", g_uni, b_uni), ("bound", b_uni, b_uni),
                              ("refined", g_ref, b_ref)):
        got = np.array([rows[f"{kind}_dp{dp:g}_case2"][m - 1].y for m in counts])
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(bound, np.finfo(float).tiny)), kind


@pytest.mark.parametrize("alpha", [60.0, 100.0, 1000.0])
def test_gain_vs_n_at_high_loss_matches_the_direct_sum(alpha):
    # the refined layouts reach 60-70 m out, 200 decades of amplitude over
    # the user's projection at 60 dB/m: the pair sums run in 100-decade
    # blocks, and no float operation overflows on the way
    for feed in (None, -200.0):
        cfg = SystemConfig(x_0_m=feed)
        with np.errstate(over="raise", invalid="raise"):
            for dp in (0.5, 1.0):
                assert_gain_vs_n_rows_are_the_direct_sum(cfg, dp, alpha, 6000,
                                                         (1, 2, 700, 1500, 2999, 3000))


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.0, 1e4), dp=st.floats(0.3, 4.0), n_max=st.integers(2, 2000),
       feed_gap=st.none() | st.floats(0.0, 5.0))
@example(alpha=60.0, dp=4.0, n_max=2000, feed_gap=None)  # two blocks
@example(alpha=1e4, dp=0.5, n_max=2000, feed_gap=0.0)  # 27 and 91 blocks
@example(alpha=898.0, dp=0.5, n_max=110, feed_gap=3.0)  # subnormal gains
def test_gain_vs_n_rows_equal_the_direct_sum_at_any_loss(alpha, dp, n_max, feed_gap):
    # every row, with the auto feed or one feed_gap metres left of the widest
    # layout, within 1e-9 of the phase-free bound of the direct sum
    cfg = SystemConfig()
    if feed_gap is not None:
        c = replace(cfg, delta_p=dp)
        widest = max(uniform_deltas(n_max // 2 * 2, c)[-1],
                     refined_half_deltas(n_max // 2, c, side="left")[0][-1])
        cfg = replace(cfg, x_0_m=-widest - feed_gap)
    assert_gain_vs_n_rows_are_the_direct_sum(cfg, dp, alpha, n_max, range(1, n_max // 2 + 1))


@pytest.mark.parametrize("alpha", [60.0, 1000.0])
def test_maxgain_at_high_loss_matches_a_direct_sum_per_draw(alpha):
    # a -60 m feed runs 45-75 m to the draws, up to 225 decades of amplitude
    # over the projection at 60 dB/m; per draw, the best of the direct sums
    # over every count whose leftmost antenna lies right of the feed
    cfg = SystemConfig(x_0_m=-60.0, delta_p=8.0, alpha_wg_db_per_m=alpha)
    trials, seed, n_max = 3, 5, 2000
    with pytest.warns(RuntimeWarning, match="standard error"):  # 3 draws only
        rows = by_series(run_maxgain_vs_spacing(cfg, (8.0,), "2",
                                                trials=trials, seed=seed, n_max=n_max))
    rng = np.random.Generator(np.random.PCG64(seed))
    x_us = rng.uniform(-USER_HALF_RANGE_M, USER_HALF_RANGE_M, size=trials)
    half = uniform_deltas(n_max, cfg)
    for kind, (dr, dl) in (("uniform", (half, half)),
                           ("refined", refined_pairs_past(x_us.max() + 60.0, n_max // 2, cfg))):
        best = [direct_gains(dr, dl, replace(cfg, x_u_m=x_u),
                             range(1, np.count_nonzero(dl <= x_u + 60.0) + 1))[0].max()
                for x_u in x_us]
        assert rows[f"{kind}_case2"][0].y == pytest.approx(np.mean(best), rel=1e-9)


def test_maxgain_survives_loss_overflow_beyond_the_feed():
    # at 60 dB/m the layouts, cut at the longest feed run (45 m), reach 135
    # decades of amplitude over the user's projection, two blocks of the pair
    # sums: the sweep keeps its finite rows and numpy raises nothing
    lossy = SystemConfig(alpha_wg_db_per_m=60.0)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.warns(RuntimeWarning, match="standard error"):  # 50 draws only
            pts = run_maxgain_vs_spacing(lossy, (2.0,), "2", trials=50, seed=0, n_max=10000)
    assert all(np.isfinite(p.y) and p.y > 0 for p in pts)
    # at the domain's largest loss, 1e6 dB/m, the gains fall by up to 1e7
    # decades on the way from the feed: they stay finite, underflowing to 0
    with np.errstate(over="raise", invalid="raise"):
        with pytest.warns(RuntimeWarning, match="standard error"):  # a few draws dominate
            pts = run_maxgain_vs_spacing(replace(lossy, alpha_wg_db_per_m=1e6), (2.0,), "2",
                                         trials=50, seed=0, n_max=10000)
    assert all(np.isfinite(p.y) and p.y >= 0 for p in pts)
    with pytest.raises(ConfigError, match="alpha_wg_db_per_m"):
        replace(lossy, alpha_wg_db_per_m=1e300)


def test_reach_limited_layouts_build_only_what_the_reach_uses(monkeypatch):
    # the Monte Carlo layouts end at the first pair past the longest feed run,
    # about 8,400 uniform pairs out at delta_p = 0.5: the largest accepted
    # n_max gives the rows of n_max = 10000 without building 1e6 offsets first
    built = []
    half = experiments._half_offsets
    monkeypatch.setattr(experiments, "_half_offsets",
                        lambda n, spacing: built.append(n) or half(n, spacing))
    rows = [run_maxgain_vs_spacing(SystemConfig(), (0.5, 2.0), "2", trials=2000,
                                   seed=1, n_max=n_max)
            for n_max in (10000, 2 * experiments.MAX_SWEEP_SIZE)]
    assert rows[0] == rows[1]
    assert max(built) < 20000


@pytest.mark.parametrize("dp", [0.1, 0.3, 1.5])
def test_uniform_offsets_round_one_way_everywhere(dp):
    # gain_uniform, the layouts and the sweeps sum the same offsets, bit for
    # bit, at spacings where (k - 1/2) delta_p wavelength rounds two ways
    cfg, n = SystemConfig(delta_p=dp), 6000
    half = uniform_deltas(n, cfg)
    layout = symmetric_uniform_layout(n, dp * cfg.wavelength)
    assert np.array_equal(half, layout[n // 2:])
    assert np.array_equal(half, experiments._layouts(n // 2, cfg)["uniform"].dr)


@pytest.fixture
def checks(monkeypatch):
    """Calls of the two array checks and of the feed resolution, counted at
    every name a passgain module holds them under."""
    counts = Counter()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "passgain" or n.startswith("passgain."))]
    for name in ("_uniform_spacings", "_increasing_offsets", "_resolve_feed"):
        fn = getattr(geometry, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        for m in modules:
            for key in [k for k, v in vars(m).items() if v is fn]:
                monkeypatch.setattr(m, key, counted)
    return counts


@pytest.mark.parametrize("call, spacings, offsets, feeds", [
    # one spacing check per chunk, inside gain_mc; the coupling-free rows
    # resolve the feed once per chunk and are not checked again
    (lambda cfg: run_gain_vs_delta_mc(cfg, (32, 2, 8, 16, 4), 0.2), 5, 0, 5),
    (lambda cfg: coupling.gain_mc(8, np.array([0.1, 0.25, 0.4]) * cfg.wavelength, cfg), 1, 0, 0),
    # the scenario bounds the sweep's spacings; one feed per layout kind and spacing
    (lambda cfg: run_gain_vs_n(cfg, (0.5, 1.0), "both", 6000, 2), 0, 0, 6),
], ids=["gain_vs_delta_mc", "gain_mc", "gain_vs_n"])
def test_each_input_is_checked_once_where_it_enters(checks, call, spacings, offsets, feeds):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the coupling floor warning
        call(SystemConfig())
    assert (checks["_uniform_spacings"], checks["_increasing_offsets"],
            checks["_resolve_feed"]) == (spacings, offsets, feeds)
