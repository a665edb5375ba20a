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
floats), with the same bytes as formatting each cell with `_fmt`.  A
column of repeated values (the path, seed, time and level columns) is
an `_Indexed` column that formats each distinct value once.  The
summary is sorted-key JSON, with no timestamps or machine-specific
content.  Both files are written under temporary names and moved into
place, trace first and summary last, after any summary of an earlier run
is removed; a run that fails part way leaves no summary beside a fresh
trace and no temporary file.

Outputs per run: <out_dir>/summary.json (config echo, checks, command
payload) and <out_dir>/trace.csv (per-path or per-time rows); simulate
can additionally dump the Brownian paths in the binary BPATH1 format
(<out_dir>/paths/path_NNNNN.bpath, each written under a temporary name
and moved into place, after an earlier run's dumps and summary are
removed).

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
from .config import CHUNK, ExperimentConfig
from .coupling import (
    InitJitter,
    coupled_ensemble,
    estimate_divergence,
    gronwall_kernel_check,
    parse_perturbation,
)
from .errors import ChainSDEError, ConfigError
from .integrator import Scheme, StopReason, solve_ensemble
from .noise import generate, path_seed, save_path
from .stopping import guaranteed_window

__all__ = ["run", "parse_perturbation", "CHUNK"]

# trace.csv rows formatted and written at a time
_WRITE_BLOCK = 8192

_WORKERS_ENV = "CHAINSDE_WORKERS"


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


class _Indexed:
    """A trace column whose row i holds values[index[i]].

    Each distinct value is formatted once, when the column is made; the
    rows then only look up their cells.
    """

    def __init__(self, values, index: np.ndarray):
        self.cells = np.array(list(_format_column(values, 0, len(values))), dtype=object)
        self.index = index

    def __len__(self) -> int:
        return self.index.size


def _repeated(values, counts) -> _Indexed:
    """np.repeat(values, counts) as a trace column."""
    return _Indexed(values, np.repeat(np.arange(len(values)), counts))


def _tiled(values, reps: int) -> _Indexed:
    """np.tile(values, reps) as a trace column."""
    return _Indexed(values, np.tile(np.arange(len(values)), reps))


def _format_column(column, lo: int, hi: int):
    """The cells of rows [lo, hi) of one trace column, with `_fmt`'s bytes.

    Numeric and bool arrays are formatted by dtype in one pass; an
    `_Indexed` column looks up its formatted values; any other sequence
    goes through `_fmt`, and None stands for an all-empty column.
    """
    if column is None:
        return [""] * (hi - lo)
    if isinstance(column, _Indexed):
        return column.cells[column.index[lo:hi]].tolist()
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


def _write_summary(path: Path, payload: dict) -> None:
    # numpy scalars and arrays become Python ones (np.float64 is a float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=lambda v: v.tolist())
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


# Each command is a worker task and a body.  Both call the public
# functions by module-global name, so wrappers installed on this module's
# attributes (tracing, tests) see every call; _COMMANDS therefore holds
# the bodies, never those functions themselves.

# ---------------------------------------------------------------- simulate


def _simulate_task(arg):
    config, seeds = arg
    ens = solve_ensemble(config.system_params, config.solve_config, seeds,
                         record_stride=config.record_stride)
    return ens.times, ens.coords, ens.stop_reasons, ens.stop_indices


def _simulate(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    parts = over_chunks(_simulate_task)
    times = parts[0][0]
    coords = np.concatenate([p[1] for p in parts], axis=0)
    reasons = np.concatenate([p[2] for p in parts])
    indices = np.concatenate([p[3] for p in parts])
    h = config.solve_config.grid_step

    n_paths, n_times = coords.shape[:2]
    columns = [
        _repeated(np.arange(n_paths), n_times),
        _repeated(np.asarray(seeds, dtype=np.uint64), n_times),
        _tiled(times, n_paths),
        *(coords[:, :, k].ravel() for k in range(coords.shape[2])),
    ]
    if config.chain_order == 2:
        columns.append(None)

    if config.dump_paths:
        # An earlier run's dumps and summary go first: a rerun holds exactly
        # n_paths dumps, and a crash while dumping leaves no summary.  Each
        # dump is written under a temporary name and moved into place, so
        # no partial dump is left under its final name.
        (out_dir / "summary.json").unlink(missing_ok=True)
        pdir = out_dir / "paths"
        pdir.mkdir(exist_ok=True)
        for stale in pdir.glob("*.bpath"):
            stale.unlink()
        for i, seed in enumerate(seeds):
            dump = pdir / f"path_{i:05d}.bpath"
            tmp = pdir / f".{dump.name}.{os.getpid()}.tmp"
            try:
                with open(tmp, "wb") as fh:
                    save_path(generate(seed, config.horizon, config.level), fh)
                os.replace(tmp, dump)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise

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
        config.system_params,
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
    label = config.case_label
    window = guaranteed_window(label, config.system_params.initial, config.band_n)
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
    return coupled_ensemble(
        config.system_params, seeds, parse_perturbation(config.perturbation),
        config.solve_config,
    )


def _couple(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    pert = parse_perturbation(config.perturbation)
    runs = [run for part in over_chunks(_couple_task) for run in part]
    trace = estimate_divergence(runs)

    columns = [trace.times, trace.D, trace.D_abs, trace.stderr, trace.counts]

    checks: dict[str, bool] = {}
    if isinstance(pert, InitJitter) and pert.delta == 0.0:
        checks["null_coupling_identical"] = bool(
            all(np.all(run.sq_diff == 0.0) for run in runs)
        )

    kernel = None
    try:
        label = config.case_label
    except ConfigError:  # the start is no excursion start
        label = None
    # a trace of one point (every pair stopped at t = 0) has no window
    if label is not None and trace.times.size > 1:
        chk = gronwall_kernel_check(config.alpha, label, trace, float(trace.times[-1]))
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
    cfg = config.solve_config
    ens = solve_ensemble(config.system_params, cfg, seeds)
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
        _repeated(np.asarray(seeds, dtype=np.uint64), counts),
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
        config.system_params, config.solve_config, config.levels, config.level_ref, seeds
    )


def _converge(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    errors = np.concatenate(over_chunks(_converge_task), axis=1)
    result = _fold_convergence(config.levels, config.horizon, errors)

    n_levels, n_paths = errors.shape
    columns = [
        _repeated(np.asarray(config.levels), n_paths),
        _tiled(np.arange(n_paths), n_levels),
        _tiled(np.asarray(seeds, dtype=np.uint64), n_levels),
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
