"""Command-line interface.

    chainsde <command> [--config FILE] [field flags...]

The commands and their help lines are `config.COMMANDS`.  The flags are
derived from the ExperimentConfig fields, one per field:
`--<field-with-dashes>` (`--out DIR` for out_dir), booleans as
`--flag/--no-flag`.  Flag text is parsed by the same `_coerce` as file
values, so a bad value is a config error naming the field; a value may
start with a dash wherever `float` reads it as a number (`-1e-3`,
`-inf`).  Values come from the defaults, then the config file, then
explicit flags.  The environment variable CHAINSDE_WORKERS overrides the
worker count.  Exit codes: 0 checks passed, 1 an invariant check failed,
2 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .config import _TYPES, COMMANDS, ExperimentConfig, parse_config_file
from .errors import ChainSDEError, ConfigError
from . import runner


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads any text `float` parses as a value.

    argparse takes only -N and -N.N for negative numbers; every other
    word with a leading dash, such as -1e-3, -2.5E+1 or -inf, would be
    read as an unknown option and the flag before it left without its
    value.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("experiment")
    g.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for f in fields(ExperimentConfig):
        if f.name == "command":
            continue
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        kind = ({"action": argparse.BooleanOptionalAction} if _TYPES[f.name] is bool
                else {"metavar": f.metadata.get("metavar")})
        g.add_argument(flag, dest=f.name, help=f.metadata["help"], **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainsde",
        description="Coupled Monte Carlo experiments for the triangular noise chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
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
