import argparse
import ast
import contextlib
import gc
import io
import math
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import passgain.__main__
import passgain.cli
from passgain.cli import SUBCOMMANDS, Subcommand, build_parser, main
from passgain.errors import ConfigError
from passgain.experiments import MAX_SWEEP_SIZE, Curve, write_csv
from passgain.gain import uniform_deltas
from passgain.geometry import _DOMAIN, SystemConfig
from passgain.refine import refined_half_deltas
from reference import direct_gains

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "passgain", *args], capture_output=True, text=True
    )


def test_fub_curve_subcommand(tmp_path):
    out = tmp_path / "fub.csv"
    res = run_cli("fub-curve", "--out", str(out), "--x-max", "5", "--grid-step", "0.05")
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "series,x,y,stderr"
    # x* is the float nearest the root, printed to 12 digits
    assert "fub_peak,3.31982638640e+00,1.10465289376e+00,0.00000000000e+00" in lines


def test_all_subcommands_run(tmp_path):
    commands = [
        ("fmc-curve", "--grid-step", "0.02"),
        ("gain-vs-n", "--n-max", "400", "--grid-step", "8", "--delta-p", "0.5"),
        ("maxgain-vs-spacing", "--trials", "8", "--delta-p", "0.5,1", "--n-max", "600"),
        ("gain-vs-delta-mc", "--n-list", "2", "--grid-step", "0.05"),
    ]
    for i, cmd in enumerate(commands):
        out = tmp_path / f"out{i}.csv"
        res = run_cli(cmd[0], "--out", str(out), *cmd[1:], "--seed", "5")
        assert res.returncode == 0, res.stderr
        assert out.exists()
        assert len(out.read_text().splitlines()) > 2


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("maxgain-vs-spacing", "--trials", "12", "--seed", "99",
            "--delta-p", "0.5,1.5", "--n-max", "500")
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("maxgain-vs-spacing", "--trials", "12", "--seed", "1", "--n-max", "500",
            "--delta-p", "0.5", "--out", str(a))
    run_cli("maxgain-vs-spacing", "--trials", "12", "--seed", "2", "--n-max", "500",
            "--delta-p", "0.5", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_config_file_used(tmp_path):
    cfgfile = tmp_path / "scenario.cfg"
    cfgfile.write_text("n_eff = 1.2\n")
    out = tmp_path / "fmc.csv"
    res = run_cli("fmc-curve", "--config", str(cfgfile), "--out", str(out),
                  "--grid-step", "0.1")
    assert res.returncode == 0
    assert "fmc_neff1.2," in out.read_text()


@pytest.mark.parametrize(
    "content", ["bogus = 1\n", "f_c_hz = -3\n", "d_m = not-a-number\n"]
)
def test_bad_config_exits_2(tmp_path, content):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(content)
    res = run_cli("fub-curve", "--config", str(cfgfile), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "config error" in res.stderr


@pytest.mark.parametrize(
    "content",
    ["f_c_hz = inf\n", "d_m = inf\n", "alpha_wg_db_per_m = inf\n", "x_0_m = nan\n",
     "x_u_m = inf\n"],
)
def test_non_finite_config_exits_2(tmp_path, content):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(content)
    res = run_cli("gain-vs-n", "--config", str(cfgfile), "--n-max", "20", "--delta-p", "0.5",
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert res.stderr.startswith("config error:") and res.stderr.count("\n") == 1
    assert content.split()[0] in res.stderr


EXTREME_RUNS = {
    "gain-vs-n": ("--n-max", "200"),
    "maxgain-vs-spacing": ("--n-max", "2000"),
    "gain-vs-delta-mc": ("--grid-step", "0.1"),
}


@pytest.mark.parametrize("command", sorted(EXTREME_RUNS))
@pytest.mark.parametrize("content", ["d_m = 1e300\n", "f_c_hz = 1e-300\n", "x_u_m = 1e300\n"])
def test_extreme_finite_config_exits_cleanly(tmp_path, content, command):
    cfgfile = tmp_path / "extreme.cfg"
    cfgfile.write_text(content)
    res = run_cli(command, "--config", str(cfgfile), "--out", str(tmp_path / "x.csv"),
                  *EXTREME_RUNS[command])
    assert res.returncode in (0, 2, 3), res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.count("\n") == (res.returncode != 0), res.stderr


# the float just past each end of each range of the scenario domain
PAST_THE_DOMAIN = [f"{name} = {math.nextafter(end, math.copysign(math.inf, end - other))!r}\n"
                   for name, ends in _DOMAIN.items() for end, other in (ends, ends[::-1])]


@pytest.mark.parametrize(
    "content", ["f_c_hz = 1e-300\n", "f_c_hz = 1e-150\n", "f_c_hz = 1e300\n", "d_m = 1e-200\n",
                "d_m = 1e-160\n", "d_m = 1e200\n", "delta_p = 5e-324\n", "n_eff = 1e306\n",
                "x_u_m = 1e300\n", "alpha_wg_db_per_m = 1e300\n", *PAST_THE_DOMAIN])
def test_unresolvable_config_exits_2_naming_the_field(tmp_path, capsys, content):
    # a value outside the scenario domain, however little, is refused as the
    # config is built, whatever the subcommand: among them a wavelength, eta,
    # d^2, eta / d^2 or spacing beyond the normal float range, a guided
    # wavenumber k0 n_eff past the float range, a loss whose decades float64
    # cannot resolve, or a user so far out that float64 cannot square its
    # distance to the fixed antenna
    cfgfile = tmp_path / "extreme.cfg"
    cfgfile.write_text(content)
    for argv in [("gain-vs-delta-mc", "--grid-step", "0.1"), ("gain-vs-n", "--n-max", "200"),
                 ("fub-curve",), ("fmc-curve",), ("maxgain-vs-spacing", "--n-max", "2000")]:
        code = main([*argv, "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert content.split()[0] in err


@pytest.mark.parametrize("argv, first, last", [
    (("fub-curve", "--x-max", "10", "--grid-step", "0.6"), 0.6, 10.0),
    (("fub-curve", "--x-max", "0.004", "--grid-step", "0.01"), 0.004, 0.004),
    (("fmc-curve", "--grid-step", "0.6"), 0.0, 1.0),
    (("fmc-curve", "--grid-step", "0.3"), 0.0, 1.0),
    (("fmc-curve", "--grid-step", "2"), 0.0, 1.0),
    # an --x-max up to half a step is the single row, at any scale
    (("fub-curve", "--x-max", "2e-12", "--grid-step", "1e-11"), 2e-12, 2e-12),
    (("fub-curve", "--x-max", "9e-13", "--grid-step", "1e-12"), 9e-13, 9e-13),
    (("fub-curve", "--x-max", "5e-13", "--grid-step", "1e-12"), 5e-13, 5e-13),
    # an end less than half a step past a grid point takes that point's place
    (("fub-curve", "--x-max", "2.9999999999995", "--grid-step", "1"), 1.0, 2.9999999999995),
    (("fub-curve", "--x-max", "1.000000000002", "--grid-step", "0.001"), 0.001, 1.000000000002),
    (("fub-curve", "--x-max", "1000.00000000002", "--grid-step", "1"), 1.0, 1000.00000000002),
], ids=lambda v: "_".join(v) if isinstance(v, tuple) else None)
def test_grids_end_exactly_at_their_stated_end(tmp_path, monkeypatch, argv, first, last):
    # a step that does not divide the range neither runs past its end nor
    # stops short of it: the end itself is the last row, and no two rows of a
    # series print the same x
    written = []
    monkeypatch.setattr(passgain.cli, "write_csv",
                        lambda curves, *a, **k: written.extend(curves) or write_csv(curves, *a, **k))
    out = tmp_path / "x.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == 0
    grids = [c.x for c in written if not c.series.endswith("_peak") and np.ndim(c.x)]
    assert grids and all(xs[0] == first and xs[-1] == last for xs in grids)
    printed = {}
    for line in out.read_text().splitlines()[2:]:
        series, x, _, _ = line.split(",")
        printed.setdefault(series, []).append(x)
    assert all(len(set(xs)) == len(xs) for xs in printed.values())


# The scenario fields each subcommand ignores, as the README's scenario section
# says; it reads every other one.  fmc-curve reads n_eff without --n-eff-list.
IGNORED_FIELDS = {
    "fub-curve": ("f_c_hz", "d_m", "n_eff", "x_u_m", "x_0_m", "alpha_wg_db_per_m", "delta_p"),
    "fmc-curve": ("f_c_hz", "d_m", "x_u_m", "x_0_m", "alpha_wg_db_per_m", "delta_p"),
    "gain-vs-n": ("delta_p",),
    "maxgain-vs-spacing": ("x_u_m", "delta_p"),
    "gain-vs-delta-mc": ("x_0_m", "alpha_wg_db_per_m", "delta_p"),
}
OTHER_VALUES = {"f_c_hz": "30e9", "d_m": "4", "n_eff": "1.6", "x_u_m": "5", "x_0_m": "-20",
                "alpha_wg_db_per_m": "3", "delta_p": "0.8"}
SMALL_RUNS = {
    "fub-curve": ("--x-max", "5", "--grid-step", "0.1"),
    "fmc-curve": ("--grid-step", "0.05"),
    "gain-vs-n": ("--n-max", "200", "--delta-p", "0.5"),
    "maxgain-vs-spacing": ("--trials", "20", "--n-max", "200", "--delta-p", "0.5"),
    "gain-vs-delta-mc": ("--n-list", "2,4", "--grid-step", "0.1"),
}


@pytest.mark.parametrize("field", sorted(OTHER_VALUES))
@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_subcommand_reads_the_scenario_fields_readme_names(tmp_path, name, field):
    # a field is ignored exactly when setting it leaves every CSV byte as it was
    csvs = []
    for i, text in enumerate(("", f"{field} = {OTHER_VALUES[field]}\n")):
        config, out = tmp_path / f"{i}.cfg", tmp_path / f"{i}.csv"
        config.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the coupling floor
            assert main([name, "--config", str(config), "--out", str(out), *SMALL_RUNS[name]]) == 0
        csvs.append(out.read_bytes())
    assert (csvs[0] == csvs[1]) == (field in IGNORED_FIELDS[name])


def test_readme_mc_sweep_writes_no_warning(tmp_path):
    # no even coupling block of N = 2 or 4 on the README grid needs the floor
    res = run_cli("gain-vs-delta-mc", "--n-list", "2,4", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" not in res.stderr and "floored" not in res.stderr


def test_maxgain_at_huge_spacing_passes_refinement(tmp_path):
    # at 1e6 wavelengths the first antenna lies 5.4 km out, so the default
    # feed at -30 m is rightly refused as lying inside the array, and a feed at
    # -20 km admits two pairs.  A feed at -1e6 m, the domain's edge, lets the
    # draws reach 94 antennas per side, 1e6 m out, where a path of 2.4e6 m
    # misses its target by up to one ulp, 4.7e-10 m: the refinement passes,
    # and both loss cases give finite rows over the 8e4 dB of the feed run
    argv = ("maxgain-vs-spacing", "--delta-p", "1e6", "--trials", "5",
            "--out", str(tmp_path / "x.csv"))
    res = run_cli(*argv)
    assert res.returncode == 2, res.stderr
    assert "lies left of the feed" in res.stderr
    cfgfile = tmp_path / "far_feed.cfg"
    cfgfile.write_text("x_0_m = -20000\n")
    res = run_cli(*argv, "--config", str(cfgfile))
    assert res.returncode == 0, res.stderr
    cfgfile.write_text("x_0_m = -1e6\n")
    res = run_cli(*argv, "--config", str(cfgfile))
    assert res.returncode == 0, res.stderr


def test_maxgain_skips_refinement_no_draw_reaches(tmp_path):
    # with n_eff = 1 the left path sqrt(d^2 + delta^2) - delta tends to 0, and
    # the left targets run out at antenna 281; the refined layout stops before,
    # at its first left antenna past the longest feed run of 44.97 m (46.65 m)
    cfgfile = tmp_path / "neff1.cfg"
    cfgfile.write_text("n_eff = 1.0\n")
    res = run_cli("maxgain-vs-spacing", "--delta-p", "0.3,0.5", "--trials", "200", "--seed", "1",
                  "--config", str(cfgfile), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 0, res.stderr


def test_cli_import_leaves_scipy_out(tmp_path):
    # nor the CSV kernel, which the first write imports, nor the modules that
    # only some sweeps use
    lazy = "{'scipy', 'passgain.csvrows', 'passgain.gain', 'passgain.refine', 'passgain.coupling'}"
    code = f"import sys, passgain.cli; print({lazy} & set(sys.modules))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "set()"
    # gain-vs-n takes its uniform offsets from geometry, so never loads gain
    argv = ["gain-vs-n", "--n-max", "200", "--out", str(tmp_path / "x.csv")]
    code = f"import sys, passgain.cli; passgain.cli.main({argv!r}); print(sorted(sys.modules))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = ast.literal_eval(res.stdout.splitlines()[-1])
    assert "passgain.refine" in loaded and "passgain.gain" not in loaded


def test_refine_import_leaves_the_sweep_layer_out():
    # the walk takes its size limit from geometry, below the sweeps
    code = ("import sys, passgain.refine; "
            "print({'passgain.experiments', 'passgain.csvrows'} & set(sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "set()"


def test_maxgain_csv_ignores_the_delta_p_order(tmp_path):
    # the draws come before any spacing, and the rows go out in (series, x) order
    written = []
    for delta_p in ("2,0.5,1.5", "0.5,1.5,2"):
        out = tmp_path / f"{delta_p}.csv"
        argv = ["maxgain-vs-spacing", "--delta-p", delta_p, "--trials", "300", "--seed", "5"]
        assert main([*argv, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_unknown_flag_exits_2(tmp_path):
    res = run_cli("fub-curve", "--out", str(tmp_path / "x.csv"), "--frobnicate")
    assert res.returncode == 2


def test_non_finite_result_exits_3_naming_the_series(tmp_path, monkeypatch, capsys):
    # a sweep handing write_csv a NaN is a numerical failure, not a config error
    curves = [Curve("fine", np.arange(3.0), 1.0),
              Curve("broken", np.arange(3.0), np.array([1.0, np.nan, 2.0]))]
    nan_sweep = Subcommand("a NaN curve", (), lambda a, cfg: curves)
    monkeypatch.setitem(SUBCOMMANDS, "fub-curve", nan_sweep)
    out = tmp_path / "x.csv"
    assert main(["fub-curve", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and err.count("\n") == 1, err
    assert "'broken'" in err and "'fine'" not in err
    assert not out.exists()


def test_mc_sweep_rejects_lossy_case(tmp_path):
    res = run_cli("gain-vs-delta-mc", "--case", "2", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2


def test_case_flag_selects_series(tmp_path):
    out = tmp_path / "gvn.csv"
    res = run_cli("gain-vs-n", "--case", "2", "--n-max", "200", "--grid-step", "20",
                  "--delta-p", "0.5", "--out", str(out))
    assert res.returncode == 0
    text = out.read_text()
    assert "case2" in text and "case1" not in text


def subcommand_parsers():
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices


def test_parser_subcommands_match_table():
    parsers = subcommand_parsers()
    assert list(parsers) == list(SUBCOMMANDS)
    flags = {name: {opt for a in p._actions for opt in a.option_strings}
             for name, p in parsers.items()}
    assert all({"--config", "--out", "--seed"} <= f for f in flags.values())
    assert [name for name, f in flags.items() if "--trials" in f] == ["maxgain-vs-spacing"]
    assert [name for name, f in flags.items() if "--case" in f] == [
        "gain-vs-n", "maxgain-vs-spacing"]


@pytest.mark.parametrize(
    "argv",
    [("fub-curve", "--trials", "3"), ("fmc-curve", "--case", "2"),
     ("gain-vs-delta-mc", "--case", "1")],
)
def test_flag_of_another_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--out", "x.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    # main parses with the subcommand's own parser, which names it in the error
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "x.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"passgain {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("argv, message", [
    (("gain-vs-n", "--delta-p", "abc"), "argument --delta-p: bad float list 'abc'"),
    (("gain-vs-delta-mc", "--n-list", "2,x"), "argument --n-list: bad int list '2,x'"),
])
def test_unparsable_list_entry_exits_2_naming_the_subcommand(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "x.csv"])
    assert exc.value.code == 2
    assert f"passgain {argv[0]}: error: {message}\n" in capsys.readouterr().err


def readme_cli_argvs():
    text = README.read_text()
    block = text[text.index("## CLI"):]
    block = block[block.index("```sh") + len("```sh"):]
    lines = [l for l in block[:block.index("```")].splitlines() if l.startswith("passgain ")]
    return [shlex.split(l)[1:] for l in lines]


def parsed_by_main(monkeypatch, argv):
    """The namespace main hands the named subcommand's sweep for ``argv``."""
    seen = []

    def run(args, cfg):
        seen.append(args)
        raise ConfigError("parsed")

    command = SUBCOMMANDS[argv[0]]
    monkeypatch.setitem(SUBCOMMANDS, argv[0], Subcommand(command.help, command.flags, run))
    assert main(argv) == 2
    return seen[0]


def test_readme_cli_lines_parse(monkeypatch, capsys):
    # main's one-subcommand parser reads each line as the full tree does
    argvs = readme_cli_argvs()
    assert [argv[0] for argv in argvs] == list(SUBCOMMANDS)
    for argv in argvs:
        assert parsed_by_main(monkeypatch, argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_subcommand_help_matches_the_tree(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == subcommand_parsers()[name].format_help()


@pytest.mark.parametrize("argv, code", [([], 2), (["-h"], 0), (["bogus"], 2)])
def test_no_named_subcommand_goes_through_the_tree(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    usage = (out if code == 0 else err).split("\n\n")[0]
    assert usage.startswith("usage: passgain [-h]")
    assert all(name in usage for name in SUBCOMMANDS), usage


def test_main_runs_readme_lines_without_the_tree(tmp_path, monkeypatch):
    def no_tree():
        raise AssertionError("build_parser called for a named subcommand")

    monkeypatch.setattr(passgain.cli, "build_parser", no_tree)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no README command floors or overflows
        assert [main(argv) for argv in readme_cli_argvs()] == [0] * len(SUBCOMMANDS)


def test_readme_library_tour_runs():
    # the README's python block, executed as written
    text = README.read_text()
    block = text[text.index("## Library tour"):]
    block = block[block.index("```python") + len("```python"):]
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no call of the tour floors or overflows
        exec(block[:block.index("```")], namespace)
    assert 0 < namespace["a"] <= namespace["report"].a_hat_sum
    assert namespace["a_uni"] == namespace["report"].a_uni
    assert namespace["a_mc2"] == pytest.approx(namespace["a_mc"], rel=1e-12)
    assert namespace["a_mc4"].shape == (96,)


# Each is rejected from its count or its value before the sweep allocates.
BAD_NUMBERS = [
    ("fub-curve", "--grid-step", "nan"),
    ("fmc-curve", "--grid-step", "nan"),
    ("gain-vs-delta-mc", "--grid-step", "nan"),
    ("fub-curve", "--x-max", "nan"),
    ("gain-vs-delta-mc", "--grid-step", "inf"),
    ("fub-curve", "--grid-step", "1e-300"),
    ("fub-curve", "--x-max", "inf"),
    ("fub-curve", "--x-max", "-5"),
    ("fub-curve", "--x-max=-1e300", "--grid-step", "1e-300"),  # x_max / step is -inf
    ("fmc-curve", "--n-eff-list", "0.5"),
    ("fmc-curve", "--n-eff-list", "inf"),
    ("maxgain-vs-spacing", "--trials", str(MAX_SWEEP_SIZE + 1)),
    ("maxgain-vs-spacing", "--n-max", str(2 * MAX_SWEEP_SIZE + 2)),
    ("gain-vs-n", "--n-max", str(2 * MAX_SWEEP_SIZE + 2)),
    ("gain-vs-delta-mc", "--n-list", f"2,{int(MAX_SWEEP_SIZE**0.5) + 2}"),
    ("gain-vs-delta-mc", "--n-list", "0"),  # checked before N^2 divides anything
    ("gain-vs-n", "--grid-step", "3"),
    ("gain-vs-n", "--grid-step", "0"),
    # PCG64 takes no negative seed, and no subcommand writes one to its header
    ("fub-curve", "--seed", "-3"),
    ("fmc-curve", "--seed", "-3"),
    ("gain-vs-n", "--seed", "-3"),
    ("maxgain-vs-spacing", "--seed", "-1"),
    ("gain-vs-delta-mc", "--seed", "-3"),
]


# The message of a refusal that names the rule it breaks.
BAD_NUMBER_MESSAGES = {
    ("gain-vs-n", "--grid-step", "3"): "the antenna-count step must be even and >= 2, got 3",
    ("gain-vs-n", "--grid-step", "0"): "the antenna-count step must be even and >= 2, got 0",
}


@pytest.mark.parametrize("argv", BAD_NUMBERS, ids="_".join)
def test_bad_numeric_flag_exits_2(tmp_path, argv):
    res = run_cli(*argv, "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:") and res.stderr.count("\n") == 1, res.stderr
    assert BAD_NUMBER_MESSAGES.get(argv, "") in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv, scenario, field", [
    pytest.param(("gain-vs-n", "--delta-p", "5e-324", "--n-max", "4"), "", "delta_p",
                 id="gain-vs-n-delta_p"),  # the spacing is 0 m
    pytest.param(("maxgain-vs-spacing", "--delta-p", "5e-324", "--trials", "3"), "", "delta_p",
                 id="maxgain-vs-spacing-delta_p"),
    pytest.param(("gain-vs-delta-mc", "--n-list", "2", "--grid-step", "0.5"), "n_eff = 1e306\n",
                 "n_eff", id="gain-vs-delta-mc-n_eff"),  # k0 n_eff is inf
    pytest.param(("fmc-curve", "--n-eff-list", "1e308"), "", "n_eff",
                 id="fmc-curve-n_eff"),  # pi n_eff is inf
    # the spacing delta_p * wavelength is inf m, from the scenario or from a flag
    pytest.param(("fub-curve",), "f_c_hz = 1e6\ndelta_p = 1e308\n", "delta_p",
                 id="fub-curve-delta_p"),
    pytest.param(("gain-vs-n", "--delta-p", "1e308", "--n-max", "4"), "f_c_hz = 1e6\n",
                 "delta_p", id="gain-vs-n-inf-delta_p"),
])
def test_overflowing_spacing_or_index_exits_2_naming_the_field(tmp_path, argv, scenario, field):
    cfgfile = tmp_path / "index.cfg"
    cfgfile.write_text(scenario)
    res = run_cli(*argv, "--config", str(cfgfile), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:") and res.stderr.count("\n") == 1, res.stderr
    assert field in res.stderr


@pytest.mark.parametrize("n_list", ["0", "2,3", "-2"])
def test_bad_antenna_count_names_n_list(tmp_path, n_list):
    res = run_cli("gain-vs-delta-mc", f"--n-list={n_list}", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:") and res.stderr.count("\n") == 1
    assert "n_list" in res.stderr


# Two list entries that print alike would write one series twice, or two rows
# of one series at one abscissa.
COLLIDING = [
    ("gain-vs-n", "--delta-p", "0.5,0.5000001"),
    ("maxgain-vs-spacing", "--delta-p", "0.5,0.5"),
    ("fmc-curve", "--n-eff-list", "1.44,1.44"),
    ("gain-vs-delta-mc", "--n-list", "2,2"),
]


@pytest.mark.parametrize("argv", COLLIDING, ids=lambda argv: argv[0])
def test_colliding_list_entries_exit_2(tmp_path, argv):
    # refused before the sweep runs, so no CSV is written
    name, flag, entries = argv
    res = run_cli(name, flag, entries, "--out", str(tmp_path / "x.csv"))
    first, second = entries.split(",")
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:") and res.stderr.count("\n") == 1
    assert flag in res.stderr and f"{first} and {second}" in res.stderr, res.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ("gain-vs-n", "--delta-p", ""),
    ("maxgain-vs-spacing", "--delta-p", ","),
    ("fmc-curve", "--n-eff-list", ""),
    ("fmc-curve", "--n-eff-list", ","),
    ("gain-vs-delta-mc", "--n-list", ","),
], ids=lambda argv: f"{argv[0]}-{'comma' if argv[2] else 'blank'}")
def test_empty_list_exits_2(tmp_path, argv):
    # an empty list is refused, not read as the flag's default
    name, flag, entries = argv
    res = run_cli(name, flag, entries, "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2, res.stderr
    assert res.stderr == f"config error: {flag} needs at least one entry\n", res.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("alpha", ["60", "1000"])
def test_high_loss_exits_0_matching_the_direct_sum(tmp_path, alpha):
    # the refined layouts reach 200 decades of amplitude over the user's
    # projection at 60 dB/m, which once overflowed; the rows are the direct sum's
    cfgfile, out = tmp_path / "lossy.cfg", tmp_path / "x.csv"
    cfgfile.write_text(f"alpha_wg_db_per_m = {alpha}\n")
    res = run_cli("gain-vs-n", "--config", str(cfgfile), "--n-max", "6000",
                  "--delta-p", "0.5,1", "--out", str(out))
    assert res.returncode == 0 and res.stderr == "", res.stderr
    rows = {}
    for line in out.read_text().splitlines()[2:]:
        series, x, y, _ = line.split(",")
        rows[series, round(float(x))] = float(y)
    counts = (1, 1500, 3000)
    for dp in (0.5, 1.0):
        cfg = SystemConfig(alpha_wg_db_per_m=float(alpha), delta_p=dp)
        half = uniform_deltas(6000, cfg)
        refined = [refined_half_deltas(3000, cfg, side=s)[0] for s in ("right", "left")]
        g_uni, b_uni = direct_gains(half, half, cfg, counts)
        g_ref, b_ref = direct_gains(*refined, cfg, counts)
        for kind, want, bound in (("uniform", g_uni, b_uni), ("bound", b_uni, b_uni),
                                  ("refined", g_ref, b_ref)):
            got = [rows[f"{kind}_dp{dp:g}_case2", 2 * m] for m in counts]
            assert np.all(np.abs(np.array(got) - want) <= 1e-9 * bound + 1e-11 * want), kind


@pytest.mark.parametrize("d_m", ["1e154", "1e155", "1e300"])
def test_huge_height_exits_2_naming_d_m(tmp_path, d_m):
    # far outside the domain the coupling sweep's analytic rows would leave
    # the normal float range (at 1e154 eta / d^2 is subnormal); the config is
    # refused as it is built
    cfgfile = tmp_path / "high.cfg"
    cfgfile.write_text(f"d_m = {d_m}\n")
    res = run_cli("gain-vs-delta-mc", "--config", str(cfgfile), "--grid-step", "0.1",
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error:") and res.stderr.count("\n") == 1
    assert "d_m" in res.stderr and "RuntimeWarning" not in res.stderr


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing_dir", "a_directory"])
def test_unwritable_out_exits_2(tmp_path, target):
    out = tmp_path / target
    res = run_cli("fub-curve", "--x-max", "1", "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"config error: cannot write CSV to {out}:")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


# ------------------------------------------------ exit-code contract, in process

_EXTREMES = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"])


def _number(lo, hi):
    """A float in [lo, hi], or one of the extremes, as text."""
    return st.one_of(st.floats(lo, hi).map(repr), _EXTREMES)


def _count(lo, hi, *extremes):
    """An integer in [lo, hi], or one of ``extremes``, as text."""
    return st.one_of(st.integers(lo, hi), *map(st.just, extremes)).map(str)


def _list(element):
    return st.lists(element, min_size=1, max_size=3).map(",".join)


_SCENARIOS = st.fixed_dictionaries({}, optional={
    "f_c_hz": _number(1e8, 1e12),
    "d_m": _number(0.1, 30.0),
    "n_eff": _number(1.0, 3.0),
    "x_u_m": _number(-20.0, 20.0),
    "x_0_m": st.one_of(st.just("auto"), _number(-100.0, 10.0)),
    "alpha_wg_db_per_m": _number(0.0, 1.0),
    "delta_p": _number(0.05, 5.0),
})
_CASE_FLAG = {"--case": st.sampled_from(["1", "2", "both"])}
# each subcommand's own flags, kept small enough for tens of runs a second
_FLAGS = {
    "fub-curve": {"--x-max": _number(-1.0, 20.0), "--grid-step": _number(1e-3, 1.0)},
    "fmc-curve": {"--n-eff-list": _list(_number(0.5, 3.0)), "--grid-step": _number(1e-3, 0.5)},
    "gain-vs-n": {"--delta-p": _list(_number(0.05, 5.0)), **_CASE_FLAG,
                  "--n-max": _count(-2, 400, 2000002), "--grid-step": _count(-2, 20)},
    "maxgain-vs-spacing": {"--delta-p": _list(_number(0.05, 5.0)), **_CASE_FLAG,
                           "--n-max": _count(-2, 400, 2000002),
                           "--trials": _count(-1, 40, 1000001)},
    "gain-vs-delta-mc": {"--n-list": _list(_count(-2, 16, 1001)),
                         "--grid-step": _number(0.05, 0.5)},
}
_RUNS = st.sampled_from(sorted(_FLAGS)).flatmap(lambda name: st.tuples(
    st.just(name), st.fixed_dictionaries({}, optional=_FLAGS[name]),
    _SCENARIOS, _count(-3, 2**32)))


@settings(max_examples=100, deadline=None)
@given(run=_RUNS)
def test_any_drawn_run_keeps_the_exit_code_contract(tmp_path_factory, run):
    # exit 0, 2 or 3 over drawn scenarios and flags; a failure is one stderr
    # line naming its kind, never a traceback.  Flags go as --flag=value, so
    # that argparse takes values such as -inf as values
    name, flags, scenario, seed = run
    folder = tmp_path_factory.getbasetemp()
    config = folder / "drawn.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in scenario.items()))
    argv = [name, f"--config={config}", f"--out={folder / 'drawn.csv'}", f"--seed={seed}",
            *(f"{flag}={value}" for flag, value in flags.items())]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # diagnostics, not failures
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    if code:
        assert err.startswith(("config error:", "numeric failure:")), (argv, err)
        assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)
    else:
        assert err == "", (argv, err)


# ------------------------------------------------ the process entry

def script_target():
    """``(module, function)`` that pyproject.toml's ``passgain`` script runs."""
    text = (ROOT / "pyproject.toml").read_text()  # no tomllib before Python 3.11
    scripts = text[text.index("[project.scripts]"):].split("\n[")[0]
    return re.search(r'^passgain\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()


def entry_in_child(route, *argv):
    """Exit code and frozen-object count of a child running ``passgain argv``
    as ``python -m passgain`` does (route "module") or as the script does."""
    module, function = script_target()
    run = {"module": "runpy.run_module('passgain', run_name='__main__')",
           "script": f"sys.exit(importlib.import_module({module!r}).{function}())"}[route]
    code = (f"import gc, importlib, runpy, sys\nsys.argv = ['passgain', *{list(argv)!r}]\n"
            f"try:\n    {run}\nexcept SystemExit as exc:\n"
            f"    print(exc.code, gc.get_freeze_count())\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    return tuple(int(v) for v in res.stdout.split()[-2:])


@pytest.mark.parametrize("route", ["module", "script"])
@pytest.mark.parametrize("argv, code", [
    (("fub-curve", "--x-max", "1"), 0),
    (("fub-curve", "--x-max", "1", "--seed", "-3"), 2),  # a configuration error
    (("fub-curve", "--x-max", "1", "--trials", "3"), 2),  # refused by argparse
], ids=["exit0", "config_error", "usage_error"])
def test_process_entry_freezes_the_heap_once_the_exit_code_is_known(tmp_path, route, argv, code):
    exit_code, frozen = entry_in_child(route, *argv, "--out", str(tmp_path / "f.csv"))
    assert exit_code == code and frozen > 0


def test_script_and_module_share_one_entry():
    module, function = script_target()
    assert module == passgain.__main__.__name__
    assert callable(getattr(passgain.__main__, function))
    # python -m passgain runs the same function under its __main__ guard
    guard = next(node for node in ast.parse(Path(passgain.__main__.__file__).read_text()).body
                 if isinstance(node, ast.If))
    assert function in {node.func.id for node in ast.walk(guard)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_main_called_from_python_leaves_the_heap_unfrozen(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    assert main(["fub-curve", "--x-max", "1", "--out", str(tmp_path / "f.csv")]) == 0
    assert main(["fub-curve", "--seed", "-3", "--out", str(tmp_path / "f.csv")]) == 2
    with pytest.raises(SystemExit):
        main(["fub-curve", "--trials", "3", "--out", str(tmp_path / "f.csv")])
    assert gc.get_freeze_count() == frozen
