"""Experiment configuration: defaults, file parsing, and validation.

A config file is a flat key = value text document; keys are the
ExperimentConfig field names, values plain literals (lists comma
separated, optional fields may say none).  Lines starting with # and
blank lines are ignored.  Command-line flags override file values, which
override the defaults.  Every run echoes its fully resolved config into
summary.json, and the echo reparses to an equal ExperimentConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .errors import ConfigError

__all__ = ["COMMANDS", "ExperimentConfig", "parse_config_file"]

COMMANDS = ("simulate", "couple", "bounds", "excursions", "converge")
SCHEMES = ("drift-exact-em", "plain-em")


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    alpha: float = 0.9
    chain_order: int = 3
    initial_x: float = 0.0
    initial_y: float = 1.0
    initial_z: float = 0.0
    band_n: int = 4
    level: int = 12
    levels: tuple[int, ...] = (10, 12, 14)
    level_ref: int = 18
    horizon: float = 1.0
    ensemble: int = 100
    seed: int = 0
    perturbation: str = "jitter:0"
    scheme: str = "drift-exact-em"
    zero_noise: bool = False
    origin_eps: float | None = None
    workers: int = 1
    out_dir: str = "out"
    trace_stride: int | None = None
    tol_abs: float | None = None
    tol_step_scale: float = 1.0
    dump_paths: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"command must be one of {COMMANDS}, got {self.command!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.chain_order not in (2, 3):
            raise ConfigError(f"chain_order must be 2 or 3, got {self.chain_order}")
        if self.chain_order == 2 and self.initial_z != 0.0:
            raise ConfigError("initial_z must be 0 for chain_order 2")
        if self.band_n < 1:
            raise ConfigError(f"band_n must be >= 1, got {self.band_n}")
        if self.level < 0:
            raise ConfigError(f"level must be >= 0, got {self.level}")
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
        if not self.horizon > 0.0:
            raise ConfigError(f"horizon must be > 0, got {self.horizon}")
        if self.ensemble < 1:
            raise ConfigError(f"ensemble must be >= 1, got {self.ensemble}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.origin_eps is not None and not self.origin_eps > 0.0:
            raise ConfigError(f"origin_eps must be > 0, got {self.origin_eps}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.trace_stride is not None and self.trace_stride < 1:
            raise ConfigError(f"trace_stride must be >= 1, got {self.trace_stride}")
        if self.tol_abs is not None and self.tol_abs < 0.0:
            raise ConfigError(f"tol_abs must be >= 0, got {self.tol_abs}")
        if self.tol_step_scale < 0.0:
            raise ConfigError(f"tol_step_scale must be >= 0, got {self.tol_step_scale}")

    @property
    def initial_coords(self) -> tuple[float, ...]:
        if self.chain_order == 2:
            return (self.initial_x, self.initial_y)
        return (self.initial_x, self.initial_y, self.initial_z)

    def to_mapping(self) -> dict[str, Any]:
        """JSON-ready echo; reparses to an equal config via from_mapping."""
        out: dict[str, Any] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_mapping(cls, mapping: dict[str, Any]) -> "ExperimentConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for key, value in mapping.items():
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}")
            kwargs[key] = _coerce(key, value)
        if "command" not in kwargs:
            raise ConfigError("missing config field 'command'")
        return cls(**kwargs)


_FLOAT_FIELDS = {"alpha", "initial_x", "initial_y", "initial_z", "horizon", "tol_step_scale"}
_INT_FIELDS = {"chain_order", "band_n", "level", "level_ref", "ensemble", "seed", "workers"}
_OPT_FLOAT_FIELDS = {"origin_eps", "tol_abs"}
_OPT_INT_FIELDS = {"trace_stride"}
_BOOL_FIELDS = {"zero_noise", "dump_paths"}
_STR_FIELDS = {"command", "perturbation", "scheme", "out_dir"}


def _coerce(key: str, value: Any):
    try:
        if key == "levels":
            if isinstance(value, str):
                value = [part for part in value.replace(",", " ").split() if part]
            return tuple(int(v) for v in value)
        if key in _BOOL_FIELDS:
            if isinstance(value, bool):
                return value
            text = str(value).strip().lower()
            if text in ("true", "1", "yes", "on"):
                return True
            if text in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if key in _OPT_FLOAT_FIELDS or key in _OPT_INT_FIELDS:
            if value is None or (isinstance(value, str) and value.strip().lower() in ("none", "")):
                return None
            return float(value) if key in _OPT_FLOAT_FIELDS else int(value)
        if key in _FLOAT_FIELDS:
            return float(value)
        if key in _INT_FIELDS:
            return int(str(value), 0) if isinstance(value, str) else int(value)
        if key in _STR_FIELDS:
            return str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for config field {key!r}: {exc}") from None
    raise ConfigError(f"unknown config field {key!r}")


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
