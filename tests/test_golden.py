"""Golden outputs: the CLI's CSV files, held against ``golden.json``.

``golden.json`` maps each argv to the sha256 of the CSV it writes (the five
README commands and the Monte Carlo benchmark argv).  It also keeps one check
byte per CSV line, so that a moved digest names the first line whose check
byte moved, not only the hash.  The coupling benchmark argv is held row by
row to 1e-10 relative instead of by digest: its floored rows (coupling
matrices whose small eigenvalues are floored before the inverse square root)
amplify input rounding about tenfold, so one ulp of another libm's ``exp`` or
``sin`` can move their last printed digits.

The digests hold on one machine and numpy build.  A second test reruns the
README argvs, the coupling argv and a ``gain-vs-n`` at 1e6 dB/m in child
processes at each SIMD dispatch level numpy offers on this CPU
(``NPY_DISABLE_CPU_FEATURES``) and holds every row to one unit in its 12th
digit, printing how many rows differ in bytes (``pytest -rP`` shows it).  A
change that moves a digest rewrites the file and names the rows that moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import base64
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
import zlib
from pathlib import Path

import pytest

import passgain
from passgain.cli import main

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

GOLDEN = Path(__file__).resolve().parent / "golden.json"

DIGESTS = [
    "fub-curve",
    "fmc-curve --n-eff-list 1.44,2.0",
    "gain-vs-n --delta-p 0.5,1 --case both --n-max 6000",
    "maxgain-vs-spacing --trials 1000 --seed 7 --delta-p 0.5,1,1.5,2",
    "gain-vs-delta-mc --n-list 2,4",
    "maxgain-vs-spacing --trials 2000 --seed 1 --delta-p 0.5,1,1.5,2 --case both",
]
ROWS = ["gain-vs-delta-mc --n-list 8,16,32,2,4 --grid-step 0.2 --seed 1"]
REL_TOL = 1e-10


def csv_lines(argv, folder):
    """The lines of the CSV that ``cli.main`` writes for ``argv``."""
    out = Path(folder) / "golden.csv"
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore", RuntimeWarning)  # the coupling floor warning
        assert main([*shlex.split(argv), "--out", str(out)]) == 0
    return out.read_bytes().splitlines(keepends=True)


def check_bytes(lines):
    """One check byte per line, the low byte of its CRC-32."""
    return bytes(zlib.crc32(line) & 0xFF for line in lines)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", DIGESTS)
def test_csv_matches_its_golden_digest(golden, argv, tmp_path):
    lines = csv_lines(argv, tmp_path)
    if hashlib.sha256(b"".join(lines)).hexdigest() == golden["sha256"][argv]:
        return
    want = base64.b64decode(golden["line_checks"][argv])
    got = check_bytes(lines)
    moved = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    if moved:
        i = moved[0]
        pytest.fail(f"{argv}: digest moved; line {i + 1} differs from the golden, "
                    f"now {lines[i].decode().strip()!r}")
    pytest.fail(f"{argv}: digest moved; {len(lines)} lines where the golden has {len(want)}"
                if len(lines) != len(want) else
                f"{argv}: digest moved, but no line's check byte did")


def rows(lines):
    return [line.decode().strip().split(",") for line in lines[2:]]


@pytest.mark.parametrize("argv", ROWS)
def test_coupling_rows_match_the_golden_to_1e_10(golden, argv, tmp_path):
    # not by digest: the floored rows amplify input rounding (a 1e-11 scaling
    # of the channel moves mc_N16 at 0.201 wavelengths by 2.1e-10), until the
    # coupling gain stops flooring its eigenvalues
    got = rows(csv_lines(argv, tmp_path))
    want = [line.split(",") for line in golden["rows"][argv]]
    assert len(got) == len(want), f"{argv}: {len(got)} rows where the golden has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        close = all(abs(float(a) - float(b)) <= REL_TOL * max(abs(float(a)), abs(float(b)))
                    for a, b in zip(g[1:], w[1:]))
        assert g[0] == w[0] and close, f"{argv}: row {i + 1} is {g}, the golden {w}"


# NPY_DISABLE_CPU_FEATURES values, one per dispatch level below the top that
# this CPU offers: each switches off one dispatched feature and all after it.
OFFERED = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
LEVELS = [" ".join(OFFERED[i:]) for i in range(len(OFFERED))]
CHILD = """
import shlex, sys, warnings
from passgain.cli import main
warnings.simplefilter("ignore", RuntimeWarning)
for i, argv in enumerate(sys.argv[2:]):
    assert main([*shlex.split(argv), "--out", f"{sys.argv[1]}/{i}.csv"]) == 0
"""


def within_one_unit(a, b):
    """Two printed numbers that differ by at most one unit in the 12th digit."""
    unit = 10.0 ** (max(int(a.split("e")[1]), int(b.split("e")[1])) - 11)
    return abs(float(a) - float(b)) < 1.5 * unit  # printed values lie whole units apart


@pytest.mark.skipif(not LEVELS, reason="numpy dispatches no optional SIMD feature on this CPU")
def test_rows_agree_across_simd_levels(tmp_path):
    # the README commands, the coupling benchmark and a loss whose right-side
    # factors 10^lo are nearly all below 10^-324, where they take no pow
    lossy = tmp_path / "lossy.cfg"
    lossy.write_text("alpha_wg_db_per_m = 1e6\n")
    argvs = DIGESTS[:5] + ROWS + [
        "gain-vs-n --case 2 --delta-p 0.5 --n-max 200000 --grid-step 200 "
        f"--config {shlex.quote(str(lossy))}"]
    want = [csv_lines(argv, tmp_path) for argv in argvs]
    src = str(Path(passgain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    differ = 0
    for level in LEVELS:
        out = tmp_path / level.split()[0]
        out.mkdir()
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": level, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-c", CHILD, str(out), *argvs],
                       env=env, check=True, capture_output=True)
        for i, argv in enumerate(argvs):
            got = (out / f"{i}.csv").read_bytes().splitlines(keepends=True)
            assert len(got) == len(want[i]), f"{argv} without {level}: row count moved"
            moved = [(g, w) for g, w in zip(rows(got), rows(want[i])) if g != w]
            for g, w in moved:
                assert g[0] == w[0] and all(map(within_one_unit, g[1:], w[1:])), \
                    f"{argv} without {level}: {g} where this level prints {w}"
            differ += len(moved)
    print(f"{differ} rows differ in bytes across {len(LEVELS)} lower SIMD levels")


def write_golden():
    """Rewrite ``golden.json`` from the CLI's current output."""
    with tempfile.TemporaryDirectory() as folder:
        runs = {argv: csv_lines(argv, folder) for argv in DIGESTS + ROWS}
    GOLDEN.write_text(json.dumps({
        "sha256": {a: hashlib.sha256(b"".join(runs[a])).hexdigest() for a in DIGESTS},
        "line_checks": {a: base64.b64encode(check_bytes(runs[a])).decode() for a in DIGESTS},
        "rows": {a: [line.decode().strip() for line in runs[a][2:]] for a in ROWS},
    }, indent=1) + "\n")


if __name__ == "__main__":
    write_golden()
