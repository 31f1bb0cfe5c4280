import subprocess
import sys

import pytest


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
    assert any(l.startswith("fub_peak,") for l in lines)


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


def test_cli_import_leaves_scipy_out():
    code = "import sys, passgain.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_unknown_flag_exits_2(tmp_path):
    res = run_cli("fub-curve", "--out", str(tmp_path / "x.csv"), "--frobnicate")
    assert res.returncode == 2


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
