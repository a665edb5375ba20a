"""Experiment orchestration and bit-stable output writing.

Every command runs through one path, `run`.  It resolves the worker
count, creates the output directory, derives the per-path seeds and
splits them into fixed-size chunks.  It then hands the command's body
(looked up in the command table `_COMMANDS`) the configuration, the
seeds, an `over_chunks(task)` that evaluates the command's worker task
on every chunk over a bounded pool (processes; inline when workers = 1)
and returns the parts in path order, and the output directory.  The body
folds the parts and returns the trace header and columns (one per header
field, all of one length), its summary fields and its named checks; `run`
writes trace.csv and summary.json and picks the exit code.  Chunk
boundaries depend only on the ensemble size, so the output files are
byte-identical for any worker count.

The trace is written column by column in blocks of rows: each block
formats every column once by dtype (shortest round-trip `repr` for
floats), with the same bytes as formatting each cell with `_fmt`.  The
summary is sorted-key JSON, with no timestamps or machine-specific
content.  Both files are written under temporary names and moved into
place, trace first and summary last, after any summary of an earlier run
is removed; a run that fails part way leaves no summary beside a fresh
trace and no temporary file.

Outputs per run: <out_dir>/summary.json (config echo, checks, command
payload) and <out_dir>/trace.csv (per-path or per-time rows); simulate
can additionally dump the Brownian paths in the binary BPATH1 format
(<out_dir>/paths/path_NNNNN.bpath, written in place after an earlier
run's dumps and summary are removed).

Exit codes: 0 all checks passed, 1 an invariant check failed, 2 a
configuration or runtime error (ConfigError, ChainSDEError or any other
exception, mapped by the CLI).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import (
    BoundRecord,
    InvariantReport,
    _fold_convergence,
    convergence_errors,
    evaluate_case_bounds,
    excursion_scan,
)
from .config import ExperimentConfig
from .core import ChainState, SystemParams
from .coupling import (
    CoupledRun,
    InitJitter,
    Perturbation,
    ResolutionSplit,
    SchemeSplit,
    coupled_ensemble,
    estimate_divergence,
    gronwall_kernel_check,
)
from .errors import ChainSDEError, ConfigError
from .integrator import Scheme, SolveConfig, StopReason, solve_ensemble
from .noise import generate, path_seed, save_path
from .stopping import classify, guaranteed_window

__all__ = ["run", "parse_perturbation", "CHUNK"]

# paths per worker task; fixed so chunking (and therefore output bytes)
# never depends on the worker count
CHUNK = 256

# trace.csv rows formatted and written at a time
_WRITE_BLOCK = 8192

_WORKERS_ENV = "CHAINSDE_WORKERS"


def parse_perturbation(text: str) -> Perturbation:
    """Parse 'jitter:<delta>', 'resolution:<la>,<lb>', or 'scheme'."""
    head, _, tail = text.strip().partition(":")
    try:
        if head == "jitter":
            return InitJitter(float(tail))
        if head == "resolution":
            la, _, lb = tail.partition(",")
            return ResolutionSplit(int(la), int(lb))
        if head == "scheme":
            if tail:
                raise ValueError("scheme takes no argument")
            return SchemeSplit()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for config field 'perturbation': {exc}") from None
    raise ConfigError(
        f"bad value for config field 'perturbation': unknown kind {head!r} "
        "(expected jitter:<delta>, resolution:<la>,<lb>, or scheme)"
    )


def _system_params(config: ExperimentConfig) -> SystemParams:
    try:
        return SystemParams(
            config.alpha, config.chain_order, ChainState(0.0, config.initial_coords)
        )
    except ValueError as exc:
        raise ConfigError(f"bad initial state or alpha: {exc}") from None


def _solve_config(config: ExperimentConfig) -> SolveConfig:
    return SolveConfig(
        level=config.level,
        band_n=config.band_n,
        max_time=config.horizon,
        scheme=Scheme(config.scheme),
        origin_eps=config.origin_eps,
        zero_noise=config.zero_noise,
    )


def _resolve_workers(config: ExperimentConfig) -> int:
    override = os.environ.get(_WORKERS_ENV)
    if override is None:
        return config.workers
    try:
        value = int(override)
    except ValueError:
        raise ConfigError(f"bad value in {_WORKERS_ENV}: {override!r}") from None
    if value < 1:
        raise ConfigError(f"{_WORKERS_ENV} must be >= 1, got {value}")
    return value


def _chunked(seq, size):
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def _run_tasks(fn, tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


_BOOL_TEXT = ("false", "true")


def _format_column(column, lo: int, hi: int):
    """The cells of rows [lo, hi) of one trace column, with `_fmt`'s bytes.

    Numeric and bool arrays are formatted by dtype in one pass; any other
    sequence goes through `_fmt`, and None stands for an all-empty column.
    """
    if column is None:
        return [""] * (hi - lo)
    part = column[lo:hi]
    if isinstance(part, np.ndarray):
        kind = part.dtype.kind
        if kind == "f":
            return map(repr, part.tolist())
        if kind in "iu":
            return map(str, part.tolist())
        if kind == "b":
            return map(_BOOL_TEXT.__getitem__, part.tolist())
        part = part.tolist()
    return map(_fmt, part)


def _write_csv(path: Path, header, columns) -> None:
    """Write one CSV row per index of `columns`, one column per header field.

    Rows are formatted and written in blocks of _WRITE_BLOCK, column by
    column: no per-row list is built, and array columns skip `_fmt`.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header fields")
    lengths = {len(column) for column in columns if column is not None}
    if len(lengths) > 1:
        raise ValueError(f"trace columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, n_rows)
            cells = [_format_column(column, lo, hi) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def _write_summary(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_outputs(out_dir: Path, header, columns, payload: dict) -> None:
    """Write trace.csv and summary.json under temporary names, then move
    them into place, trace first and summary last.

    A summary left by an earlier run is removed before the first move, so
    a run that fails part way never leaves a fresh trace beside a stale
    summary; the temporary files are removed on any failure.
    """
    trace, summary = out_dir / "trace.csv", out_dir / "summary.json"
    tmp_trace = out_dir / f".trace.csv.{os.getpid()}.tmp"
    tmp_summary = out_dir / f".summary.json.{os.getpid()}.tmp"
    try:
        _write_csv(tmp_trace, header, columns)
        _write_summary(tmp_summary, payload)
        summary.unlink(missing_ok=True)
        os.replace(tmp_trace, trace)
        os.replace(tmp_summary, summary)
    except BaseException:
        tmp_trace.unlink(missing_ok=True)
        tmp_summary.unlink(missing_ok=True)
        raise


def _seeds(config: ExperimentConfig) -> list[int]:
    return [path_seed(config.seed, i) for i in range(config.ensemble)]


def _auto_stride(config: ExperimentConfig, n_steps: int) -> int:
    if config.trace_stride is not None:
        if n_steps % config.trace_stride != 0:
            raise ConfigError(
                f"trace_stride {config.trace_stride} must divide the step count {n_steps}"
            )
        return config.trace_stride
    return max(1, n_steps // 128)


# Each command is a worker task and a body.  Both call the public
# functions by module-global name, so wrappers installed on this module's
# attributes (tracing, tests) see every call; _COMMANDS therefore holds
# the bodies, never those functions themselves.

# ---------------------------------------------------------------- simulate


def _simulate_task(arg):
    config, seeds = arg
    stride = _auto_stride(config, 2**config.level)
    ens = solve_ensemble(_system_params(config), _solve_config(config), seeds,
                         record_stride=stride)
    return ens.times, ens.coords, ens.stop_reasons, ens.stop_indices


def _simulate(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    parts = over_chunks(_simulate_task)
    times = parts[0][0]
    coords = np.concatenate([p[1] for p in parts], axis=0)
    reasons = np.concatenate([p[2] for p in parts])
    indices = np.concatenate([p[3] for p in parts])
    h = config.horizon * 2.0**-config.level

    n_paths, n_times = coords.shape[:2]
    columns = [
        np.repeat(np.arange(n_paths), n_times),
        np.repeat(np.asarray(seeds, dtype=np.uint64), n_times),
        np.tile(times, n_paths),
        *(coords[:, :, k].ravel() for k in range(coords.shape[2])),
    ]
    if config.chain_order == 2:
        columns.append(None)

    if config.dump_paths:
        # An earlier run's dumps and summary go first: a rerun holds exactly
        # n_paths dumps, and a crash while dumping leaves no summary.
        (out_dir / "summary.json").unlink(missing_ok=True)
        pdir = out_dir / "paths"
        pdir.mkdir(exist_ok=True)
        for stale in pdir.glob("*.bpath"):
            stale.unlink()
        for i, seed in enumerate(seeds):
            with open(pdir / f"path_{i:05d}.bpath", "wb") as fh:
                save_path(generate(seed, config.horizon, config.level), fh)

    stop_counts = {
        StopReason(code).name.lower(): int((reasons == code).sum())
        for code in sorted(set(reasons.tolist()))
    }
    stop_times = indices * h
    fields = {
        "n_paths": len(seeds),
        "stop_counts": stop_counts,
        "stop_time_min": float(stop_times.min()),
        "stop_time_mean": float(stop_times.mean()),
        "stop_time_max": float(stop_times.max()),
    }
    return ["path", "seed", "time", "x", "y", "z"], columns, fields, {}


# ---------------------------------------------------------------- bounds


def _bounds_task(arg):
    config, seeds = arg
    return evaluate_case_bounds(
        _system_params(config),
        config.band_n,
        seeds,
        config.level,
        scheme=Scheme(config.scheme),
        zero_noise=config.zero_noise,
        abs_tol_case=1e-9 if config.tol_abs is None else config.tol_abs,
        abs_tol_apriori=config.tol_abs,
        step_scale=config.tol_step_scale,
    )


def _bounds(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    if config.chain_order != 3:
        raise ConfigError("bounds requires chain_order 3 (the case machinery is 3-d)")
    params = _system_params(config)
    try:
        label = classify(params.initial, config.band_n)
    except ValueError as exc:
        raise ConfigError(f"bad initial state for bounds: {exc}") from None
    window = guaranteed_window(label, params.initial, config.band_n)
    records: list[BoundRecord] = [rec for part in over_chunks(_bounds_task) for rec in part]
    report = InvariantReport(tuple(records))

    columns = [
        [getattr(rec, name) for rec in records]
        for name in ("path_seed", "label", "inequality", "window", "margin", "tol", "passed")
    ]
    fields = {
        "case_label": str(label),
        "band_n": config.band_n,
        "window": window,
        "n_paths": len(seeds),
        "pass_rates": report.pass_rates(),
        "worst_margins": report.worst_margins(),
    }
    header = ["seed", "label", "inequality", "window", "margin", "tol", "passed"]
    return header, columns, fields, {"all_bounds_hold": report.all_passed}


# ---------------------------------------------------------------- couple


def _couple_task(arg):
    config, seeds = arg
    runs = coupled_ensemble(
        _system_params(config), seeds, parse_perturbation(config.perturbation),
        _solve_config(config),
    )
    return [(run.path_seed, run.divergence) for run in runs]


def _couple(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    params = _system_params(config)
    pert = parse_perturbation(config.perturbation)
    runs = [
        CoupledRun(seed, pert, div) for part in over_chunks(_couple_task) for seed, div in part
    ]
    trace = estimate_divergence(runs)

    columns = [trace.times, trace.D, trace.D_abs, trace.stderr, trace.counts]

    checks: dict[str, bool] = {}
    if isinstance(pert, InitJitter) and pert.delta == 0.0:
        checks["null_coupling_identical"] = bool(
            all(np.all(run.sq_diff == 0.0) for run in runs)
        )

    kernel = None
    if config.chain_order == 3:
        try:
            label = classify(params.initial, config.band_n)
        except ValueError:
            label = None
        if label is not None:
            chk = gronwall_kernel_check(
                config.alpha, label, trace, float(trace.times[-1])
            )
            kernel = {
                "case_label": str(label),
                "kappa": chk.kappa,
                "integrable": chk.integrable,
                "c_hat": chk.c_hat,
                "window": chk.window,
            }

    fields = {
        "perturbation": config.perturbation,
        "n_runs": len(runs),
        "terminal_D": float(trace.D[-1]),
        "terminal_stderr": float(trace.stderr[-1]),
        "terminal_count": int(trace.counts[-1]),
        "kernel_check": kernel,
    }
    return ["time", "D", "D_abs", "stderr", "count"], columns, fields, checks


# ---------------------------------------------------------------- excursions


def _excursions_task(arg):
    config, seeds = arg
    cfg = _solve_config(config)
    ens = solve_ensemble(_system_params(config), cfg, seeds)
    out = []
    for i in range(ens.n_paths):
        stats = excursion_scan(ens.trajectory(i), cfg.origin_tolerance)
        out.append((stats.hit_times, stats.gaps))
    return out


def _excursions(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    paths = [item for part in over_chunks(_excursions_task) for item in part]
    counts = [hits.size for hits, _ in paths]
    min_gaps = [float(gaps.min()) for _, gaps in paths if gaps.size]
    # one row per hit; the first hit of a path has no gap
    columns = [
        np.repeat(np.asarray(seeds, dtype=np.uint64), counts),
        np.concatenate([np.arange(count) for count in counts]),
        np.concatenate([hits for hits, _ in paths]),
        [gap for hits, gaps in paths if hits.size for gap in (None, *gaps.tolist())],
    ]

    fields = {
        "n_paths": len(seeds),
        "total_hits": int(sum(counts)),
        "paths_with_returns": len(min_gaps),
        "min_gap": min(min_gaps) if min_gaps else None,
        "min_gap_p5": float(np.percentile(min_gaps, 5.0)) if min_gaps else None,
        "min_gap_median": float(np.median(min_gaps)) if min_gaps else None,
    }
    checks = {"gaps_positive": all(g > 0.0 for g in min_gaps)}
    return ["seed", "hit_index", "hit_time", "gap"], columns, fields, checks


# ---------------------------------------------------------------- converge


def _converge_task(arg):
    config, seeds = arg
    return convergence_errors(
        _system_params(config), _solve_config(config), config.levels, config.level_ref, seeds
    )


def _converge(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    errors = np.concatenate(over_chunks(_converge_task), axis=1)
    result = _fold_convergence(config.levels, config.horizon, errors)

    n_levels, n_paths = errors.shape
    columns = [
        np.repeat(config.levels, n_paths),
        np.tile(np.arange(n_paths), n_levels),
        np.tile(np.asarray(seeds, dtype=np.uint64), n_levels),
        errors.ravel(),
    ]

    ordered = np.asarray(result.mean_errors)[np.argsort(config.levels)]
    monotone = result.all_exact or bool(np.all(np.diff(ordered) <= 0.0))
    fields = {
        "levels": result.levels,
        "steps": result.steps,
        "mean_errors": result.mean_errors,
        "fitted_order": result.order,
        "exact": result.all_exact,
    }
    checks = {"errors_nonincreasing_in_level": monotone}
    return ["level", "path", "seed", "sup_error"], columns, fields, checks


_COMMANDS = {
    "simulate": _simulate,
    "bounds": _bounds,
    "couple": _couple,
    "excursions": _excursions,
    "converge": _converge,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code (0 or 1).

    Configuration and runtime problems raise (ConfigError, another
    ChainSDEError or any other exception); the CLI maps them to exit code 2.
    """
    workers = _resolve_workers(config)
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ChainSDEError(f"cannot create output directory {out_dir}: {exc}") from None
    seeds = _seeds(config)
    tasks = [(config, chunk) for chunk in _chunked(seeds, CHUNK)]

    def over_chunks(task):
        return _run_tasks(task, tasks, workers)

    header, columns, fields, checks = _COMMANDS[config.command](
        config, seeds, over_chunks, out_dir
    )
    exit_code = 0 if all(checks.values()) else 1
    _write_outputs(out_dir, header, columns, {
        "command": config.command,
        "config": config.to_mapping(),
        **fields,
        "checks": checks,
        "exit_code": exit_code,
    })
    return exit_code
