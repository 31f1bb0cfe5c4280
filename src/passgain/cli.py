"""Command-line experiment runner.

Subcommands map one-to-one onto the experiment sweeps and write CSV:

    passgain fub-curve           --out fub.csv
    passgain fmc-curve           --out fmc.csv
    passgain gain-vs-n           --out fig_gain_vs_n.csv --delta-p 0.5,1
    passgain maxgain-vs-spacing  --out fig_maxgain.csv --trials 1000 --seed 7
    passgain gain-vs-delta-mc    --out fig_mc.csv --n-list 2,4

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, NumericsError
from .experiments import SweepSpec, run_sweep, write_csv
from .geometry import SystemConfig, load_scenario


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _add_common(sub: argparse.ArgumentParser, default_case: str) -> None:
    sub.add_argument("--config", help="scenario file (flat key = value lines)")
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64)")
    sub.add_argument("--trials", type=int, default=1000, help="Monte Carlo trials")
    sub.add_argument(
        "--case",
        choices=["1", "2", "both"],
        default=default_case,
        help="waveguide loss: 1 = lossless, 2 = configured dB/m, both",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passgain",
        description="Pinching-antenna array-gain experiments (CSV output).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fub-curve", help="bound shape function f_ub with its peak")
    _add_common(p, "1")
    p.add_argument("--x-max", type=float, default=10.0)
    p.add_argument("--grid-step", type=float, default=0.01)

    p = subs.add_parser("fmc-curve", help="coupling shape function f_mc over one wavelength")
    _add_common(p, "1")
    p.add_argument("--grid-step", type=float, default=0.005)
    p.add_argument(
        "--n-eff-list",
        type=_float_list,
        default=None,
        help="refractive indices to plot (default: the configured one)",
    )

    p = subs.add_parser("gain-vs-n", help="gain and bounds versus antenna count")
    _add_common(p, "both")
    p.add_argument("--n-max", type=int, default=6000)
    p.add_argument("--delta-p", type=_float_list, default=(0.5, 1.0))
    p.add_argument("--grid-step", type=int, default=2, help="antenna-count step (even)")

    p = subs.add_parser(
        "maxgain-vs-spacing", help="Monte Carlo maximum gain versus minimum spacing"
    )
    _add_common(p, "both")
    p.add_argument("--n-max", type=int, default=10000)
    p.add_argument("--delta-p", type=_float_list, default=(0.5, 1.0, 1.5, 2.0))

    p = subs.add_parser("gain-vs-delta-mc", help="gain versus spacing with mutual coupling")
    _add_common(p, "1")
    p.add_argument("--n-list", type=_int_list, default=(2, 4))
    p.add_argument("--grid-step", type=float, default=0.005, help="spacing step, wavelengths")

    return parser


def _resolve_cases(case: str, cfg: SystemConfig) -> tuple[tuple[str, float], ...]:
    if case == "1":
        return (("case1", 0.0),)
    if case == "2":
        return (("case2", cfg.alpha_wg_db_per_m),)
    return (("case1", 0.0), ("case2", cfg.alpha_wg_db_per_m))


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    cfg = load_scenario(args.config) if args.config else SystemConfig()
    cases = _resolve_cases(args.case, cfg)
    kind = args.command.replace("-", "_")
    common = dict(cfg=cfg, seed=args.seed, trials=args.trials, cases=cases)
    if kind == "fub_curve":
        return SweepSpec(kind=kind, x_max=args.x_max, grid_step=args.grid_step, **common)
    if kind == "fmc_curve":
        n_effs = args.n_eff_list if args.n_eff_list else (cfg.n_eff,)
        return SweepSpec(kind=kind, n_eff_values=n_effs, grid_step=args.grid_step, **common)
    if kind == "gain_vs_n":
        return SweepSpec(
            kind=kind,
            n_max=args.n_max,
            n_step=args.grid_step,
            delta_p_values=args.delta_p,
            **common,
        )
    if kind == "maxgain_vs_spacing":
        return SweepSpec(
            kind=kind,
            n_max=args.n_max,
            delta_p_values=args.delta_p,
            **common,
        )
    if kind == "gain_vs_delta_mc":
        if args.case != "1":
            raise ConfigError("the coupling sweep models the lossless waveguide only")
        return SweepSpec(kind=kind, n_values=args.n_list, grid_step=args.grid_step, **common)
    raise ConfigError(f"unknown subcommand {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        points = run_sweep(spec)
        write_csv(points, args.out, seed=spec.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(points)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
