"""Command-line interface.

    chainsde <command> [--config FILE] [field flags...]

Commands: simulate, couple, bounds, excursions, converge.  Every
ExperimentConfig field is exposed as a flag; values come from the
defaults, then the config file, then explicit flags.  The environment
variable CHAINSDE_WORKERS overrides the worker count.  Exit codes:
0 checks passed, 1 an invariant check failed, 2 configuration or
runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .config import COMMANDS, SCHEMES, ExperimentConfig, parse_config_file
from .errors import ChainSDEError, ConfigError
from . import runner


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("experiment")
    g.add_argument("--config", metavar="FILE", help="flat key = value config file")
    g.add_argument("--alpha", type=float, help="Holder exponent in (0, 1)")
    g.add_argument("--chain-order", type=int, choices=(2, 3), help="chain dimension")
    g.add_argument("--initial-x", type=float, help="initial x coordinate")
    g.add_argument("--initial-y", type=float, help="initial y coordinate")
    g.add_argument("--initial-z", type=float, help="initial z coordinate (order 3)")
    g.add_argument("--band-n", type=int, help="band level n of the annulus (2^-n, 2^n)")
    g.add_argument("--level", type=int, help="grid level (2^level steps over the horizon)")
    g.add_argument("--levels", help="comma-separated levels (converge)")
    g.add_argument("--level-ref", type=int, help="reference level (converge)")
    g.add_argument("--horizon", type=float, help="integration horizon")
    g.add_argument("--ensemble", type=int, help="number of paths")
    g.add_argument("--seed", type=int, help="master seed (spawns per-path seeds)")
    g.add_argument(
        "--perturbation",
        help="couple perturbation: jitter:<delta> | resolution:<la>,<lb> | scheme",
    )
    g.add_argument("--scheme", choices=SCHEMES, help="stepping scheme")
    g.add_argument(
        "--zero-noise", action=argparse.BooleanOptionalAction, help="zero all increments"
    )
    g.add_argument("--origin-eps", type=float, help="origin-hit tolerance")
    g.add_argument("--workers", type=int, help="worker pool size")
    g.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
    g.add_argument("--trace-stride", type=int, help="trace decimation stride (simulate)")
    g.add_argument("--tol-abs", type=float, help="absolute bound tolerance override")
    g.add_argument("--tol-step-scale", type=float, help="grid-step tolerance multiplier")
    g.add_argument(
        "--dump-paths",
        action=argparse.BooleanOptionalAction,
        help="dump the Brownian paths in BPATH1 format (simulate)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsde",
        description="Coupled Monte Carlo experiments for the triangular noise chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "simulate": "integrate an ensemble and tabulate stop events",
        "couple": "coupled pairs on shared noise and their divergence",
        "bounds": "verify the case and growth bounds on a window ensemble",
        "excursions": "zero-hit gap statistics before the band stop",
        "converge": "strong self-convergence order against a fine reference",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name], argument_default=argparse.SUPPRESS)
        _add_experiment_flags(p)
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    mapping: dict[str, object] = {"command": args.command}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        file_map = dict(parse_config_file(config_path))
        file_command = file_map.pop("command", None)
        if file_command is not None and file_command != args.command:
            raise ConfigError(
                f"command {file_command!r} in {config_path} does not match "
                f"the invoked command {args.command!r}"
            )
        mapping.update(file_map)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        mapping[key] = value
    return ExperimentConfig.from_mapping(mapping)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return runner.run(config)
    except ConfigError as exc:
        print(f"chainsde: config error: {exc}", file=sys.stderr)
        return 2
    except ChainSDEError as exc:
        print(f"chainsde: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other failure (I/O, memory, a lost pool worker, a bug) is a
        # runtime error; exit 1 is kept for failed invariant checks
        print(f"chainsde: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
