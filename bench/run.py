"""passgain benchmark: CLI wall time, warm compute, set-up and memory per workload.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

One process generates all load and runs one CLI child at a time.  A run
warms up (one fresh import of ``passgain.cli``, one in-process pass over the
workload's commands) and then, for ``--seconds``, repeats rounds made of one
fresh import, one CLI pass and two in-process passes.  Rounds alternate the
order of the passes and of the commands, so none always runs on caches or
freed memory that its predecessor left behind.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``      spawn-to-exit of ``python -c "import passgain.cli"``;
* ``wall_s``       CLI wall time, spawn until exit with the CSV written,
                   summed over the workload's commands;
* ``compute_s``    ``passgain.cli.main(argv)`` in this process, imports warm,
                   summed over the workload's commands;
* ``peak_rss_mb``  peak resident memory of the largest CLI child, read per
                   child from ``os.wait4`` (``RUSAGE_CHILDREN`` would carry the
                   largest child seen so far into every later reading),
                   median over rounds.

The three times are medians over rounds, per command, in reference seconds:
each sample is timed between two runs of a fixed calibration kernel and
scaled by ``KERNEL_REF_S`` over their mean (:class:`Clock`).  The host these
figures come from is shared, and other tenants slow it by up to 2x in bursts
and phases that no steal time reveals; the program's process CPU time grows
with them as much as its wall time, so neither is steady on its own, while
the ratio to the kernel is.  The process and its children are pinned to one
vCPU, so the kernel runs where the work does.  Raw medians are printed and
recorded too.

``--trace 1`` reports the per-layer metrics instead: import times from
``python -X importtime`` (median over rounds), and calls, self times and
counters of the passgain layers from :mod:`tracing`, taken from the fastest
of the traced in-process passes, which alternate with untraced ones;
``trace.overhead_s`` is the fastest traced minus the fastest untraced pass.

Every command's CSV is checked: the first file of each distinct content by
the oracles, every other one by its sha256.  A command fails when it exits
non-zero or its CSV fails a check; ``fail_frac`` = failed / attempted.  The
last stdout line is the JSON result; the full record, with provenance and
the traced spans, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import marshal
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

LIB_REPS = 2  # in-process passes per round: cheaper than a CLI pass, so more samples
MIN_ROUNDS = 3  # also the fewest set-ups whose median is setup_s
CHILD_LIMIT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ------------------------------------------------------------------ workloads


def _shuffled(values, seed):
    values = list(values)
    random.Random(seed).shuffle(values)
    return ",".join(values)


# name -> (seed -> [(label, argv)]); why each workload is here is in the
# comment above it.
WORKLOADS = {
    # What users run: the five README commands, the Monte Carlo one on the
    # bench seed.  Imports are most of the wall time, so set-up dominates.
    # Every traced layer does work here: the per-draw count search
    # (maxgain), row building, write_csv and refine (gain_vs_n), channel,
    # geometry and a little coupling (mc).
    "readme": lambda seed: [
        ("fub", ["fub-curve"]),
        ("fmc", ["fmc-curve", "--n-eff-list", "1.44,2.0"]),
        ("gain_vs_n", ["gain-vs-n", "--delta-p", "0.5,1", "--case", "both",
                       "--n-max", "6000"]),
        ("maxgain", ["maxgain-vs-spacing", "--trials", "1000", "--seed", str(seed),
                     "--delta-p", "0.5,1,1.5,2"]),
        ("mc", ["gain-vs-delta-mc", "--n-list", "2,4"]),
    ],
    # Heavy search behind few rows: 2000 Monte Carlo draws per spacing and
    # case, each searching every even antenna count for the best one, make
    # 32 CSV rows.  That per-draw search in experiments is most of the
    # compute; coupling does nothing and refine little.
    "mc_trials": lambda seed: [
        ("maxgain", ["maxgain-vs-spacing", "--trials", "2000", "--seed", str(seed),
                     "--delta-p", "0.5,1,1.5,2", "--case", "both"]),
    ],
    # Coupling eigensolves: 30 gain_mc calls up to N=32 are nearly all of the
    # compute, and N >= 8 below half a wavelength is the floored region whose
    # values are known to be wrong; the oracles count it and leave it alone.
    "coupling_dense": lambda seed: [
        ("mc", ["gain-vs-delta-mc", "--n-list", _shuffled(["2", "4", "8", "16", "32"], seed),
                "--grid-step", "0.2", "--seed", str(seed)]),
    ],
}

IMPORTS = ("numpy", "passgain.coupling", "passgain.gain", "passgain.experiments", "passgain.cli")
TIMED_LAYERS = ("coupling.gain_mc", "coupling.gain_mc_two_closed",
                "refine.refined_half_deltas", "channel.array_gain_exact",
                "geometry.symmetric_uniform_layout", "gain.uniform_deltas",
                "gain.max_gain_estimate", "gain.find_xstar")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


# ------------------------------------------------------------------ execution


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, limit=CHILD_LIMIT_S):
    """Run one child to completion: (exit code, wall seconds, peak RSS MB, stderr)."""
    with open(OUT / "child.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


def cli_cmd(argv):
    return [sys.executable, "-m", "passgain", *argv]


def call_main(argv):
    """passgain.cli.main(argv) in this process: (exit code, seconds, error)."""
    import passgain.cli

    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        try:
            code = passgain.cli.main(argv)
            error = ""
        except SystemExit as exc:
            code, error = exc.code if isinstance(exc.code, int) else 1, "SystemExit"
        except Exception:  # noqa: BLE001 - any crash of the program is a failed command
            code, error = 1, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
    return code, elapsed, error


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Tally:
    """Attempted and failed commands, and the verdict on every CSV content."""

    attempted: int = 0
    failed: int = 0
    verdicts: dict = field(default_factory=dict)  # (label, sha256) -> oracles.Report
    errors: list = field(default_factory=list)

    def record(self, label, argv, code, path, error=""):
        """Count one command; True when it exited 0 and its CSV checks out."""
        self.attempted += 1
        ok = code == 0 and path.exists()
        if ok:
            key = (label, sha256(path))
            if key not in self.verdicts:
                self.verdicts[key] = oracles.check_csv(path, argv)
            ok = self.verdicts[key].ok
            if not ok:
                error = self.verdicts[key].summary(failing_only=True)
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: exit {code}: {error.strip()[-300:]}")
        return ok

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def with_out(argv, path):
    return [*argv, "--out", str(path)]


# ---------------------------------------------------------------- calibration

# The calibration kernel's lower-quartile seconds on a vCPU of the reference
# host (2-vCPU x86-64 VM, Python 3.11, OpenBLAS 0.3.31).  Timed metrics are
# scaled by it, so they read as seconds on that host at that speed.
KERNEL_REF_S = 0.035

_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_KERNEL_MATRIX = _KERNEL_MATRIX + _KERNEL_MATRIX.T
_KERNEL_GRID = np.linspace(0.0, 1.0, 50_000)
_KERNEL_CODE = marshal.dumps(compile(Path(oracles.__file__).read_text(), "oracles", "exec"))


def calibration_kernel():
    """Fixed work in the mix the program does: interpreted bytecode, small
    symmetric eigensolves, complex exponentials over a long vector, and
    unmarshalling a module's code as an import does."""
    total = 0
    for i in range(60_000):
        total += i * i % 7
    for _ in range(60):
        np.linalg.eigh(_KERNEL_MATRIX)
    for _ in range(12):
        np.abs(np.exp(-1j * _KERNEL_GRID)).sum()
    for _ in range(45):
        marshal.loads(_KERNEL_CODE)
    return total


class Clock:
    """Scales a measured time by how fast the host runs the calibration
    kernel just before and just after it: ``seconds * KERNEL_REF_S / kernel
    seconds`` keeps the program's own cost and drops most of the slowdown
    that other tenants of the host cause, which the kernel shares."""

    def __init__(self):
        calibration_kernel()  # warm-up
        self.kernel = [self._time_kernel()]  # every kernel time, raw seconds

    def _time_kernel(self):
        start = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - start

    def run(self, fn, *args):
        """``fn(*args)`` between two kernel runs (the one after it is also
        the one before the next call): its result, and the factor that turns
        the seconds it measured into reference seconds."""
        before = self.kernel[-1]
        result = fn(*args)
        self.kernel.append(self._time_kernel())
        return result, 2.0 * KERNEL_REF_S / (before + self.kernel[-1])


# ------------------------------------------------------------------ measuring


def import_once(importtime=False):
    """One fresh interpreter importing passgain.cli: its spawn-to-exit seconds,
    or with ``importtime`` the per-module times it reports."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", "import passgain.cli"]
    code, wall, _, err = spawn(cmd)
    if code != 0:
        raise RuntimeError(f"import passgain.cli failed: {err.strip()[-300:]}")
    return parse_importtime(err) if importtime else wall


def parse_importtime(text):
    """{module: cumulative seconds} from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            out.setdefault(name.strip(), int(cumulative) * 1e-6)
    return out


def lib_run(label, argv, tally):
    """One in-process command, checked; returns its seconds."""
    path = OUT / f"{label}.lib.csv"
    path.unlink(missing_ok=True)
    code, seconds, err = call_main(with_out(argv, path))
    tally.record(label, argv, code, path, err)
    return seconds


def cli_run(label, argv, tally):
    """One CLI child, checked; returns its wall seconds and peak RSS MB."""
    path = OUT / f"{label}.cli.csv"
    path.unlink(missing_ok=True)
    code, seconds, mb, err = spawn(cli_cmd(with_out(argv, path)))
    tally.record(label, argv, code, path, err)
    return seconds, mb


def warm_up(commands, tally):
    """Compile the package's bytecode, fill the page cache and the in-process
    caches; the outputs are checked like every other."""
    import_once()
    for label, argv in commands:
        lib_run(label, argv, tally)


def rounds(seconds, passes, commands, deadline):
    """Run rounds of ``passes`` until the next round would end past
    ``seconds`` (at least ``MIN_ROUNDS``, never past ``deadline``).

    Every other round reverses the command order, and every other pair of
    rounds the order of the passes, so no pass or command always runs on
    caches or freed memory its predecessor left behind."""
    start = time.perf_counter()
    i = 0
    while True:
        order = commands if i % 2 == 0 else commands[::-1]
        for p in passes if (i // 2) % 2 == 0 else passes[::-1]:
            p(order)
        i += 1
        elapsed = time.perf_counter() - start
        if time.perf_counter() + elapsed / i > deadline:
            return i
        if i >= MIN_ROUNDS and elapsed + elapsed / i > seconds:
            return i


def run_end_to_end(commands, seconds, tally, deadline):
    warm_up(commands, tally)
    clock = Clock()
    # Each sample is (raw seconds, reference seconds).
    setup, rss = [], []
    wall = {label: [] for label, _ in commands}
    compute = {label: [] for label, _ in commands}

    def setup_pass(order):
        raw, k = clock.run(import_once)
        setup.append((raw, raw * k))

    def cli_pass(order):
        peak = 0.0
        for label, argv in order:
            (raw, mb), k = clock.run(cli_run, label, argv, tally)
            wall[label].append((raw, raw * k))
            peak = max(peak, mb)
        rss.append(peak)

    def lib_pass(order):
        for label, argv in order:
            raw, k = clock.run(lib_run, label, argv, tally)
            compute[label].append((raw, raw * k))

    n = rounds(seconds, [setup_pass, cli_pass] + [lib_pass] * LIB_REPS, commands, deadline)

    def median(samples, scaled=True):
        return statistics.median(ref if scaled else raw for raw, ref in samples)

    metrics = {
        "setup_s": median(setup),
        "wall_s": sum(median(v) for v in wall.values()),
        "compute_s": sum(median(v) for v in compute.values()),
        "peak_rss_mb": statistics.median(rss),
    }
    raw = {
        "raw.setup_s": median(setup, scaled=False),
        "raw.wall_s": sum(median(v, scaled=False) for v in wall.values()),
        "raw.compute_s": sum(median(v, scaled=False) for v in compute.values()),
        "raw.kernel_s": statistics.median(clock.kernel),
    }
    samples = {"setup_s": setup, "wall_s": wall, "compute_s": compute, "peak_rss_mb": rss,
               "kernel_s": clock.kernel}
    return metrics, raw, samples, n


def run_traced(commands, seconds, tally, deadline, spans_out):
    warm_up(commands, tally)
    tracer = tracing.Tracer()
    imports, plain, traced = [], [], []

    def import_pass(order):
        imports.append(import_once(importtime=True))

    def lib_pass(order, trace):
        if trace:
            tracer.reset()
            tracer.install()
        try:
            total = sum(lib_run(label, argv, tally) for label, argv in order)
        finally:
            tracer.remove()
        if trace:
            spans_out.append(list(tracer.spans))
            traced.append(layer_sample(total, tracer.spans, tracer.counts))
        else:
            plain.append(total)

    passes = [import_pass,
              lambda order: lib_pass(order, trace=False),
              lambda order: lib_pass(order, trace=True)]
    n = rounds(seconds, passes, commands, deadline)
    # The fastest traced pass stands for the layers, so that its self times
    # add up to its trace.compute_s; the overhead compares fastest passes.
    fastest = min(traced, key=lambda sample: sample["trace.compute_s"])
    for module in IMPORTS:
        fastest[f"import.{module}_s"] = statistics.median(s.get(module, 0.0) for s in imports)
    fastest["trace.overhead_s"] = fastest["trace.compute_s"] - min(plain)
    metrics = {name: fastest[name] for name in PER_LAYER}
    medians = {"median.trace.compute_s": statistics.median(s["trace.compute_s"] for s in traced),
               "median.untraced_compute_s": statistics.median(plain)}
    return metrics, medians, {"untraced_compute_s": plain, "traced": traced}, n


def layer_sample(compute, spans, counts):
    """Per-layer values of one traced pass."""
    totals = tracing.layer_totals(spans)
    sample = {"trace.compute_s": compute}
    for layer in TIMED_LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        sample[f"{layer}.calls"], sample[f"{layer}.s"] = calls, self_s
    sample["experiments.run_sweep.self_s"] = totals.get("experiments.run_sweep", (0, 0.0))[1]
    sample["experiments.write_csv.s"] = totals.get("experiments.write_csv", (0, 0.0))[1]
    sample["cli.main.self_s"] = totals.get("cli.main", (0, 0.0))[1]
    for name in tracing.COUNTERS:
        sample[name] = counts.get(name, 0)
    calls = sample["coupling.gain_mc.calls"]
    sample["coupling.floored_share"] = sample["coupling.floored_points"] / calls if calls else 0.0
    sample["trace.unattributed_s"] = compute - sum(s for _, s in totals.values())
    return sample


# ----------------------------------------------------------------- provenance


def provenance(seed, tally):
    info = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: v for k, v in np.show_config(mode="dicts")["Build Dependencies"]["blas"]
                 .items() if k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "csv_sha256": {label: digest for label, digest in tally.verdicts},
    }
    lines = {}
    for path in sorted((SRC / "passgain").glob("*.py")):
        lines[f"{path.stem}.src_lines"] = path.read_bytes().count(b"\n")
    info["src_lines"] = sum(lines.values())
    info.update(lines)
    return info


# ----------------------------------------------------------------------- main


def check_checkout():
    if not (SRC / "passgain" / "cli.py").is_file():
        sys.exit(f"bench: no passgain sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def run(args):
    deadline = time.perf_counter() + 170.0
    # One vCPU for this process and, by inheritance, every child: the
    # calibration kernel then runs where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    commands = WORKLOADS[args.workload](args.seed % 2**32)
    tally = Tally()
    spans = []
    if args.trace:
        metrics, extra, samples, n = run_traced(commands, args.seconds, tally, deadline, spans)
    else:
        metrics, extra, samples, n = run_end_to_end(commands, args.seconds, tally, deadline)
    info = provenance(args.seed, tally)
    uncertified = sum(r.uncertified for r in tally.verdicts.values())

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={n}")
    for name, value in [*metrics.items(), *extra.items()]:
        print(f"  {name:40s} {value:14.6g} {UNITS.get(name, 's')}")
    print(f"  {'fail_frac':40s} {tally.fail_frac:14.6g} ({tally.failed}/{tally.attempted})")
    print(f"  {'uncertified_points':40s} {uncertified:14d} (mc_N>=8 below 0.5 wavelength)")
    for (label, digest), report in tally.verdicts.items():
        print(f"  oracle {label} {digest[:12]} ok={report.ok}: {report.summary()}")
    for line in tally.errors:
        print(f"  FAILED {line}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"metrics": metrics, "extra": extra, "samples": samples, "rounds": n,
              "provenance": info, "attempted": tally.attempted, "failed": tally.failed,
              "uncertified_points": uncertified,
              "oracles": {f"{l}:{d}": r.summary() for (l, d), r in tally.verdicts.items()}}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "passes": spans}))
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))


def self_test():
    """A CSV value nudged by 1e-6 relative, and a child exiting 3, must each
    count as a failed command."""
    commands = WORKLOADS["readme"](7)
    nudge = {"fub": "fub", "fmc": "fmc_neff2", "gain_vs_n": "uniform_dp0.5_case1",
             "maxgain": "uniform_case1", "mc": "mc_N4"}
    clean, tampered = Tally(), Tally()
    for label, argv in commands:
        path = OUT / f"{label}.cli.csv"
        code, _, _, err = spawn(cli_cmd(with_out(argv, path)))
        if not clean.record(label, argv, code, path, err):
            continue
        lines = path.read_text().split("\n")
        rows = [i for i, line in enumerate(lines) if line.startswith(nudge[label] + ",")]
        i = rows[-1]
        series, x, y, e = lines[i].split(",")
        lines[i] = f"{series},{x},{float(y) * (1 + 1e-6):.11e},{e}"
        bad = OUT / f"{label}.nudged.csv"
        bad.write_text("\n".join(lines))
        tampered.record(label, argv, 0, bad)
    code, _, _, err = spawn([sys.executable, "-c", "raise SystemExit(3)"])
    tampered.record("exit3", ["fub-curve"], code, OUT / "never-written.csv", err)
    print(f"clean:    fail_frac={clean.fail_frac:g} ({clean.failed}/{clean.attempted})")
    print(f"tampered: fail_frac={tampered.fail_frac:g} ({tampered.failed}/{tampered.attempted})")
    for line in clean.errors + tampered.errors:
        print(f"  {line}")
    ok = clean.failed == 0 and tampered.failed == tampered.attempted == len(commands) + 1
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    check_checkout()
    OUT.mkdir(exist_ok=True)
    try:
        if args.self_test:
            return self_test()
        run(args)
        return 0
    finally:
        for csv in OUT.glob("*.csv"):
            csv.unlink()
        (OUT / "child.err").unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
