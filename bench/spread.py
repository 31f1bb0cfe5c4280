"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 bench/spread.py [--runs 10] [--first-seed 1]

Run i gives every workload in ``BENCHMARK.json`` the seed ``first_seed + i``.
Workloads are interleaved run by run, forward on even runs and reversed on
odd ones, so none always follows the same neighbour (whose freed memory or
warm caches could favour it).  Each metric's spread is (Q3 - Q1) / median over the runs,
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and is shown
against the metric's bound in ``BENCHMARK.json``; ``!`` marks a spread above
a third of the bound, ``!!`` one above the bound.  All values go to
``.bench_out/spread-seed<first>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: INCORRECT ({result['failed']}/{result['attempted']})")
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            shown = " ".join(f"{m}={values[w][m][-1]:.4g}" for m in bounds)
            print(f"run {i} {w:15s} seed={seed} took={took:.1f}s {shown}", flush=True)

    print(f"\n{'workload':15s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w in workloads:
        for m, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[w][m], n=4)
            spread = (q3 - q1) / med
            flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            print(f"{w:15s} {m:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} "
                  f"{bound:6.2f} {flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-seed{args.first_seed}.json").write_text(json.dumps(values, indent=1))


if __name__ == "__main__":
    main()
