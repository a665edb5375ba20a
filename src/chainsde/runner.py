"""Experiment orchestration and bit-stable output writing.

Every command runs through one path, `run`.  It resolves the worker
count, creates the output directory, derives the per-path seeds and
splits them into fixed-size chunks.  It then hands the command's body
(looked up in the command table `_COMMANDS`) the configuration, the
seeds, an `over_chunks(task)` that evaluates the command's worker task
on every chunk over a bounded pool (processes; inline when workers = 1)
and returns the parts in path order, and the output directory.  The body
folds the parts and returns the trace header and rows, its summary
fields and its named checks; `run` writes trace.csv and summary.json and
picks the exit code.  Chunk boundaries depend only on the ensemble size,
so the output files are byte-identical for any worker count.  Numeric
cells are written with shortest round-trip formatting and summaries as
sorted-key JSON, with no timestamps or machine-specific content.

Outputs per run: <out_dir>/summary.json (config echo, checks, command
payload) and <out_dir>/trace.csv (per-path or per-time rows); simulate
can additionally dump the Brownian paths in the binary BPATH1 format.

Exit codes: 0 all checks passed, 1 an invariant check failed, 2 a
configuration or runtime error (raised as ConfigError / ChainSDEError
and mapped by the CLI).
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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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


def _write_summary(out_dir: Path, payload: dict) -> None:
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


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

    rows = []
    for i, seed in enumerate(seeds):
        for r, t in enumerate(times):
            row = [i, seed, float(t)]
            row.extend(float(c) for c in coords[i, r])
            if config.chain_order == 2:
                row.append(None)
            rows.append(row)

    if config.dump_paths:
        pdir = out_dir / "paths"
        pdir.mkdir(exist_ok=True)
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
    return ["path", "seed", "time", "x", "y", "z"], rows, fields, {}


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

    rows = [
        [rec.path_seed, rec.label, rec.inequality, rec.window, rec.margin, rec.tol,
         rec.passed]
        for rec in records
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
    return header, rows, fields, {"all_bounds_hold": report.all_passed}


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

    rows = [
        [float(t), float(d), float(da), float(se), int(c)]
        for t, d, da, se, c in zip(
            trace.times, trace.D, trace.D_abs, trace.stderr, trace.counts
        )
    ]

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
    return ["time", "D", "D_abs", "stderr", "count"], rows, fields, checks


# ---------------------------------------------------------------- excursions


def _excursions_task(arg):
    config, seeds = arg
    cfg = _solve_config(config)
    ens = solve_ensemble(_system_params(config), cfg, seeds)
    out = []
    for i in range(ens.n_paths):
        stats = excursion_scan(ens.trajectory(i), cfg.origin_tolerance)
        out.append((seeds[i], stats.hit_times, stats.gaps))
    return out


def _excursions(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    rows = []
    min_gaps = []
    counts = []
    for part in over_chunks(_excursions_task):
        for seed, hits, gaps in part:
            counts.append(hits.size)
            if gaps.size:
                min_gaps.append(float(gaps.min()))
            for j, t in enumerate(hits):
                rows.append([seed, j, float(t), float(gaps[j - 1]) if j else None])

    fields = {
        "n_paths": len(seeds),
        "total_hits": int(sum(counts)),
        "paths_with_returns": len(min_gaps),
        "min_gap": min(min_gaps) if min_gaps else None,
        "min_gap_p5": float(np.percentile(min_gaps, 5.0)) if min_gaps else None,
        "min_gap_median": float(np.median(min_gaps)) if min_gaps else None,
    }
    checks = {"gaps_positive": all(g > 0.0 for g in min_gaps)}
    return ["seed", "hit_index", "hit_time", "gap"], rows, fields, checks


# ---------------------------------------------------------------- converge


def _converge_task(arg):
    config, seeds = arg
    return convergence_errors(
        _system_params(config), _solve_config(config), config.levels, config.level_ref, seeds
    )


def _converge(config: ExperimentConfig, seeds, over_chunks, out_dir: Path):
    errors = np.concatenate(over_chunks(_converge_task), axis=1)
    result = _fold_convergence(config.levels, config.horizon, errors)

    rows = []
    for j, lv in enumerate(config.levels):
        for i, seed in enumerate(seeds):
            rows.append([lv, i, seed, float(errors[j, i])])

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
    return ["level", "path", "seed", "sup_error"], rows, fields, checks


_COMMANDS = {
    "simulate": _simulate,
    "bounds": _bounds,
    "couple": _couple,
    "excursions": _excursions,
    "converge": _converge,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code (0 or 1).

    Configuration and runtime problems raise ConfigError or another
    ChainSDEError, which the CLI maps to exit code 2.
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

    header, rows, fields, checks = _COMMANDS[config.command](
        config, seeds, over_chunks, out_dir
    )
    _write_csv(out_dir / "trace.csv", header, rows)
    exit_code = 0 if all(checks.values()) else 1
    _write_summary(out_dir, {
        "command": config.command,
        "config": config.to_mapping(),
        **fields,
        "checks": checks,
        "exit_code": exit_code,
    })
    return exit_code
