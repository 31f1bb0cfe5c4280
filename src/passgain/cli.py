"""Command-line experiment runner.

Each subcommand runs one experiment sweep and writes CSV.  Every subcommand
takes ``--config`` (scenario file), ``--out`` (CSV path) and ``--seed``
(written to the ``# seed=`` header; the Monte Carlo sweep draws from it).
Its other flags are its own, declared once in :data:`SUBCOMMANDS`.

:func:`main` builds the parser of the subcommand named by ``argv[0]`` alone,
so an unknown flag is reported against that subcommand.  Help, a missing or
an unknown subcommand go to the five-subcommand tree of :func:`build_parser`,
which declares each subcommand's flags through the same helper.

Exit codes: 0 success, 2 configuration error (including a flag the
subcommand does not take), 3 numerical failure (including an overflow, a
division by zero or a non-finite result at extreme inputs).

Public: Subcommand, SUBCOMMANDS, build_parser, main.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from dataclasses import dataclass

from . import experiments
from .errors import ConfigError, NumericsError
from .experiments import write_csv
from .geometry import SystemConfig, load_scenario


def _list_of(kind: type) -> Callable[[str], tuple]:
    """argparse type for a comma-separated list of ``kind`` values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {kind.__name__} list {text!r}") from exc

    return parse


@dataclass(frozen=True)
class Subcommand:
    """One subcommand: its help line, its own flags as ``(flag, add_argument
    keywords)`` pairs, and ``run(args, cfg)`` returning the sweep's curves."""

    help: str
    flags: tuple
    run: Callable


_CASE = ("--case", dict(choices=["1", "2", "both"], default="both",
                        help="waveguide loss: 1 = lossless, 2 = configured dB/m, both"))
_DELTA_P = dict(type=_list_of(float),
                help="minimum spacings to sweep, wavelengths (the scenario's delta_p is not used); "
                     "coupling-free model, exact only for uniform layouts at multiples of 1/2")


def _cases(args: argparse.Namespace, cfg: SystemConfig) -> tuple[tuple[str, float], ...]:
    both = (("case1", 0.0), ("case2", cfg.alpha_wg_db_per_m))
    return {"1": both[:1], "2": both[1:], "both": both}[args.case]


SUBCOMMANDS = {
    "fub-curve": Subcommand(
        "bound shape function f_ub with its peak",
        (("--x-max", dict(type=float, default=10.0)),
         ("--grid-step", dict(type=float, default=0.01))),
        lambda a, cfg: experiments.run_fub_curve(a.x_max, a.grid_step),
    ),
    "fmc-curve": Subcommand(
        "coupling shape function f_mc over one wavelength",
        (("--n-eff-list", dict(type=_list_of(float),
                               help="refractive indices to plot (default: the configured one)")),
         ("--grid-step", dict(type=float, default=0.005))),
        lambda a, cfg: experiments.run_fmc_curve(a.n_eff_list or (cfg.n_eff,), a.grid_step),
    ),
    "gain-vs-n": Subcommand(
        "gain and bounds versus antenna count",
        (("--delta-p", dict(_DELTA_P, default=(0.5, 1.0))), _CASE,
         ("--n-max", dict(type=int, default=6000)),
         ("--grid-step", dict(type=int, default=2, help="antenna-count step (even)"))),
        lambda a, cfg: experiments.run_gain_vs_n(cfg, a.delta_p, _cases(a, cfg),
                                                 a.n_max, a.grid_step),
    ),
    "maxgain-vs-spacing": Subcommand(
        "Monte Carlo maximum gain versus minimum spacing",
        (("--delta-p", dict(_DELTA_P, default=(0.5, 1.0, 1.5, 2.0))), _CASE,
         ("--n-max", dict(type=int, default=10000)),
         ("--trials", dict(type=int, default=1000, help="Monte Carlo trials"))),
        lambda a, cfg: experiments.run_maxgain_vs_spacing(cfg, a.delta_p, _cases(a, cfg),
                                                          a.trials, a.seed, a.n_max),
    ),
    "gain-vs-delta-mc": Subcommand(
        "gain versus spacing with mutual coupling (lossless waveguide)",
        (("--n-list", dict(type=_list_of(int), default=(2, 4))),
         ("--grid-step", dict(type=float, default=0.005, help="spacing step, wavelengths"))),
        lambda a, cfg: experiments.run_gain_vs_delta_mc(cfg, a.n_list, a.grid_step),
    ),
}


def _add_flags(parser: argparse.ArgumentParser, command: Subcommand) -> argparse.ArgumentParser:
    """Declare the shared ``--config``/``--out``/``--seed`` and ``command``'s own flags."""
    parser.add_argument("--config", help="scenario file (flat key = value lines)")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64), kept in the CSV")
    for flag, keywords in command.flags:
        parser.add_argument(flag, **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passgain",
        description="Pinching-antenna array-gain experiments (CSV output).",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in SUBCOMMANDS.items():
        _add_flags(subs.add_parser(name, help=command.help), command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:  # build only the named subcommand's parser
        parser = _add_flags(argparse.ArgumentParser(prog=f"passgain {argv[0]}"),
                            SUBCOMMANDS[argv[0]])
        args = parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:  # help, no subcommand or an unknown one: the full tree reports it
        args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        cfg = load_scenario(args.config) if args.config else SystemConfig()
        rows = write_csv(SUBCOMMANDS[args.command].run(args, cfg), args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError) as exc:  # e.g. overflow at extreme inputs
        print(f"numeric failure: {exc if isinstance(exc, NumericsError) else repr(exc)}",
              file=sys.stderr)
        return 3
    print(f"wrote {rows} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
