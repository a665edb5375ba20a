"""Experiment configuration: the one definition of every field.

`ExperimentConfig` is the only place a field's name, type, default and
help text are written.  Everything else is derived from it: `_coerce`
parses a value by the field's annotation (bool, int, float, str,
X | None, tuple[int, ...]), the CLI adds one flag per field
(`--<field-with-dashes>`, `--out` for out_dir), the scheme names are the
`Scheme` values and `COMMANDS` maps each command to its help line.

A config file is a flat key = value text document; keys are the field
names, values plain literals (lists comma separated, optional fields may
say none).  Lines starting with # and blank lines are ignored.  File and
flag values go through the same `_coerce`; flags override file values,
which override the defaults.  Every run echoes its fully resolved config
into summary.json, and the echo reparses to an equal ExperimentConfig.

A config is checked whole when it is made: `__post_init__` also builds
what `runner.run` builds for the command (`system_params`, the
`SolveConfig` of every level it solves, the couple perturbation, the
bounds `case_label` and its window) and checks each of those solves
against `integrate_block`'s memory budget for one chunk of paths, so a
value the run would reject fails first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, get_args, get_origin, get_type_hints

from .analysis import _reference_stride
from .core import ChainState, SystemParams
from .coupling import _TRACE_POINTS, _pair_grids, _pair_setup, parse_perturbation
from .errors import ConfigError
from .integrator import _BLOCK_BUDGET, Scheme, SolveConfig, _block_bytes
from .noise import _block_width
from .stopping import CaseLabel, classify, guaranteed_window

__all__ = ["CHUNK", "COMMANDS", "ExperimentConfig", "parse_config_file"]

# paths per worker task; fixed so chunking (and therefore output bytes)
# never depends on the worker count
CHUNK = 256

COMMANDS = {
    "simulate": "integrate an ensemble and tabulate stop events",
    "couple": "coupled pairs on shared noise and their divergence",
    "bounds": "verify the case and growth bounds on a window ensemble",
    "excursions": "zero-hit gap statistics before the band stop",
    "converge": "strong self-convergence order against a fine reference",
}


def _field(default: Any, help_text: str, **flag: str) -> Any:
    """A field with its help text; `flag`/`metavar` override the CLI flag."""
    return field(default=default, metadata={"help": help_text, **flag})


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    alpha: float = _field(0.9, "Holder exponent in (0, 1)")
    chain_order: int = _field(3, "chain dimension, 2 or 3")
    initial_x: float = _field(0.0, "initial x coordinate")
    initial_y: float = _field(1.0, "initial y coordinate")
    initial_z: float = _field(0.0, "initial z coordinate (order 3)")
    band_n: int = _field(4, "band level n of the annulus (2^-n, 2^n)")
    level: int = _field(12, "grid level (2^level steps over the horizon)")
    levels: tuple[int, ...] = _field((10, 12, 14), "comma-separated levels (converge)")
    level_ref: int = _field(18, "reference level (converge)")
    horizon: float = _field(1.0, "integration horizon")
    ensemble: int = _field(100, "number of paths")
    seed: int = _field(0, "master seed (spawns per-path seeds)")
    perturbation: str = _field(
        "jitter:0", "couple perturbation: jitter:<delta> | resolution:<la>,<lb> | scheme"
    )
    scheme: str = _field(Scheme.DRIFT_EXACT_EM.value, "stepping scheme")
    zero_noise: bool = _field(False, "zero all increments")
    origin_eps: float | None = _field(None, "origin-hit tolerance")
    workers: int = _field(1, "worker pool size")
    out_dir: str = _field("out", "output directory", flag="--out", metavar="DIR")
    trace_stride: int | None = _field(None, "trace decimation stride (simulate)")
    tol_abs: float | None = _field(None, "absolute bound tolerance override")
    tol_step_scale: float = _field(1.0, "grid-step tolerance multiplier")
    dump_paths: bool = _field(False, "dump the Brownian paths in BPATH1 format (simulate)")

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"command must be one of {tuple(COMMANDS)}, got {self.command!r}")
        for name in ("initial_x", "initial_y", "initial_z"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.chain_order == 2 and self.initial_z != 0.0:
            raise ConfigError("initial_z must be 0 for chain_order 2")
        if self.band_n < 1:
            raise ConfigError(f"band_n must be >= 1, got {self.band_n}")
        if not self.levels or any(lv < 0 for lv in self.levels):
            raise ConfigError(f"levels must be a non-empty list of ints >= 0, got {self.levels}")
        if self.command == "converge":
            if len(self.levels) < 2:
                raise ConfigError("converge needs at least two levels to fit an order")
            if len(set(self.levels)) != len(self.levels):
                raise ConfigError("levels must be distinct")
            if self.level_ref <= max(self.levels):
                raise ConfigError(
                    f"level_ref ({self.level_ref}) must exceed every entry of levels {self.levels}"
                )
        if not 0.0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be finite and > 0, got {self.horizon}")
        if self.ensemble < 1:
            raise ConfigError(f"ensemble must be >= 1, got {self.ensemble}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        schemes = tuple(s.value for s in Scheme)
        if self.scheme not in schemes:
            raise ConfigError(f"scheme must be one of {schemes}, got {self.scheme!r}")
        if self.origin_eps is not None and not self.origin_eps > 0.0:
            raise ConfigError(f"origin_eps must be > 0, got {self.origin_eps}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.trace_stride is not None and self.trace_stride < 1:
            raise ConfigError(f"trace_stride must be >= 1, got {self.trace_stride}")
        if self.tol_abs is not None and not 0.0 <= self.tol_abs < math.inf:
            raise ConfigError(f"tol_abs must be finite and >= 0, got {self.tol_abs}")
        if not 0.0 <= self.tol_step_scale < math.inf:
            raise ConfigError(
                f"tol_step_scale must be finite and >= 0, got {self.tol_step_scale}"
            )
        # build what `run` builds, so that a config it would reject fails
        # here, before any output is written
        params = self.system_params
        if self.command == "bounds":
            window = guaranteed_window(self.case_label, params.initial, self.band_n)
            if not window > 0.0:
                raise ConfigError(
                    f"band_n {self.band_n} leaves no guaranteed window: it underflows to 0.0"
                )
            SolveConfig(self.level, self.band_n, window)
            self._check_memory([(self.level, None, 1)])
            return
        cfg = self.solve_config  # caps the level before 2**level is formed
        if self.command == "couple":
            cfg_a, cfg_b, _ = _pair_setup(params, parse_perturbation(self.perturbation), cfg)
            lo, hi = sorted((cfg_a.level, cfg_b.level))
            # the coarser side of a resolution pair integrates the recorded matrix
            self._check_memory([
                (side.level, 2**lo if side.level < hi else None, grid)
                for side, grid in zip((cfg_a, cfg_b), _pair_grids(cfg_a, cfg_b, _TRACE_POINTS))
            ])
        if self.command == "converge":
            for lv in (*self.levels, self.level_ref):
                replace(cfg, level=lv)
            ref_stride = _reference_stride(self.levels, self.level_ref)
            self._check_memory([(self.level_ref, None, ref_stride),
                                *((lv, None, 1) for lv in self.levels)])
        if self.command == "simulate":
            if 2**self.level % (self.trace_stride or 1):
                raise ConfigError(
                    f"trace_stride {self.trace_stride} must divide the step count {2**self.level}"
                )
            self._check_memory([(self.level, None, self.record_stride)])
        if self.command == "excursions":
            self._check_memory([(self.level, None, 1)])

    def _check_memory(self, solves) -> None:
        """Check `integrate_block`'s memory budget for the solves of one
        chunk of paths, each (level, increment width or None for the
        stream's block width, record stride)."""
        paths = min(self.ensemble, CHUNK)
        for level, width, stride in solves:
            need = _block_bytes(paths, width or _block_width(paths, level), 2**level, stride,
                                self.chain_order)
            if need > _BLOCK_BUDGET:
                raise ConfigError(
                    f"level {level} with ensemble {self.ensemble} needs {need} bytes per "
                    f"chunk of {paths} paths (> {_BLOCK_BUDGET}); lower the level"
                )

    @property
    def initial_coords(self) -> tuple[float, ...]:
        if self.chain_order == 2:
            return (self.initial_x, self.initial_y)
        return (self.initial_x, self.initial_y, self.initial_z)

    @property
    def system_params(self) -> SystemParams:
        try:
            return SystemParams(self.alpha, self.chain_order, ChainState(0.0, self.initial_coords))
        except ValueError as exc:
            raise ConfigError(f"bad initial state or alpha: {exc}") from None

    @property
    def solve_config(self) -> SolveConfig:
        return SolveConfig(self.level, self.band_n, self.horizon, Scheme(self.scheme),
                           self.origin_eps, zero_noise=self.zero_noise)

    @property
    def record_stride(self) -> int:
        """Simulate's record stride: trace_stride, else 2^level / 128 (at least 1)."""
        return self.trace_stride or max(1, 2**self.level // 128)

    @property
    def case_label(self) -> CaseLabel:
        """The excursion case of the start, which bounds needs."""
        if self.chain_order != 3:
            raise ConfigError("bounds requires chain_order 3 (the case machinery is 3-d)")
        try:
            return classify(self.system_params.initial, self.band_n)
        except ValueError as exc:
            raise ConfigError(f"bad initial state for bounds: {exc}") from None

    def to_mapping(self) -> dict[str, Any]:
        """JSON-ready echo; reparses to an equal config via from_mapping."""
        out: dict[str, Any] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_mapping(cls, mapping: dict[str, Any]) -> "ExperimentConfig":
        kwargs = {key: _coerce(key, value) for key, value in mapping.items()}
        if "command" not in kwargs:
            raise ConfigError("missing config field 'command'")
        return cls(**kwargs)


_TYPES = get_type_hints(ExperimentConfig)


def _coerce(key: str, value: Any):
    """Parse a file, flag or echo value of field `key` by its annotation."""
    if key not in _TYPES:
        raise ConfigError(f"unknown config field {key!r}")
    try:
        return _parse(_TYPES[key], value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for config field {key!r}: {exc}") from None


def _parse(hint: Any, value: Any):
    args = get_args(hint)
    if get_origin(hint) is tuple:  # tuple[X, ...]: a comma or space separated list
        if isinstance(value, str):
            value = value.replace(",", " ").split()
        return tuple(_parse(args[0], v) for v in value)
    if args:  # X | None
        if value is None or (isinstance(value, str) and value.strip().lower() in ("none", "")):
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _parse(inner, value)
    if hint is bool:
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("true", "1", "yes", "on"):
            return True
        if text in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    if hint is int:
        return int(value, 0) if isinstance(value, str) else int(value)
    return hint(value)  # float or str


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key = value document into a string mapping."""
    mapping: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                if key in mapping:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                mapping[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return mapping
