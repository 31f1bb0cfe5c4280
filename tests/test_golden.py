"""Golden outputs: the CLI's CSV files, held against ``golden.json``.

``golden.json`` maps each argv to the sha256 of the CSV it writes (the five
README commands and the Monte Carlo benchmark argv).  It also keeps one check
byte per CSV line, so that a moved digest names the first line whose check
byte moved, not only the hash.  The coupling benchmark argv is held row by
row to 1e-10 relative instead of by digest: its floored rows (coupling
matrices whose small eigenvalues are floored before the inverse square root)
move by up to 4e-11 relative with numpy's SIMD dispatch level.

The digests hold on one machine and numpy build.  A change that moves one
rewrites the file and names the rows that moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import base64
import contextlib
import hashlib
import io
import json
import shlex
import tempfile
import warnings
import zlib
from pathlib import Path

import pytest

from passgain.cli import main

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
    # not by digest: the floored rows move with numpy's SIMD dispatch level
    # (4e-11 relative at mc_N16, 0.201 wavelengths), until the coupling gain
    # stops flooring its eigenvalues
    got = rows(csv_lines(argv, tmp_path))
    want = [line.split(",") for line in golden["rows"][argv]]
    assert len(got) == len(want), f"{argv}: {len(got)} rows where the golden has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        close = all(abs(float(a) - float(b)) <= REL_TOL * max(abs(float(a)), abs(float(b)))
                    for a, b in zip(g[1:], w[1:]))
        assert g[0] == w[0] and close, f"{argv}: row {i + 1} is {g}, the golden {w}"


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
