"""Benchmark of chainsde: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs one workload (see workloads.py and NOTES.md) from the root of a
source checkout.  Every measurement is a fresh child process, started
one at a time, with CHAINSDE_WORKERS cleared and the worker count given
on the command line.  A run:

1. spawns SETUP_RUNS set-up children that stop before the first noise
   draw; setup_s is the median of their lifetimes (the median also
   absorbs the byte-compiling first child of a fresh checkout);
2. repeats the workload, each time in a fresh directory, for --seconds
   seconds and at least twice; with --trace 1 a warm-up comes first and
   then at least two untraced and two traced repetitions alternate;
3. checks every repetition: exit code 0, every summary.json check true,
   the requested path count echoed, and output bytes equal across the
   repetitions; on pair_solve every trajectory must equal its lockstep
   row bitwise.  Output digests are also compared with the reference in
   baseline.json, and reported without gating;
4. prints every metric by name with its unit, then one JSON line
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.

Timings are medians over the repetitions of one run; peak RSS is the
largest over them.  Linux only: child
exit is awaited on a pidfd and peak RSS comes from wait4, which reports
the largest resident set of the child and its waited-for descendants.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"
BASELINE = HERE / "baseline.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_RUNS = 5
# A measured run must exit within 180 s.  Every child must have ended
# 15 s before that, which leaves time for the check child and the report.
RUN_LIMIT_S = 180.0
DEADLINE_S = RUN_LIMIT_S - 15.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "noise.self_s": "s",
    "noise.ns_per_path_step": "ns",
    "noise.philox_words": "count",
    "noise.matrix_bytes": "bytes",
    "noise.unrepaired_cells": "count",
    "integrator.self_s": "s",
    "integrator.vector_ns_per_path_step": "ns",
    "integrator.scalar_ns_per_step": "ns",
    "integrator.record_bytes": "bytes",
    **{f"integrator.stop.{r}": "count" for r in tracer.STOP_REASONS},
    "stopping.self_s": "s",
    "analysis.self_s": "s",
    "analysis.records": "count",
    "coupling.self_s": "s",
    "runner.residual_s": "s",
    "runner.bytes_written": "bytes",
    "runner.rows_written": "count",
    "runner.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
}
# Per-layer values that must repeat exactly between traced repetitions.
EXACT = {name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")}


@dataclass
class Child:
    code: int | None  # None: killed at the deadline
    wall_s: float
    spawn_ns: int  # perf_counter_ns, the CLOCK_MONOTONIC the tracer uses
    rss_mib: float
    cwd: Path


def _child_env(trace_dir: Path | None = None) -> dict:
    drop = ("CHAINSDE_WORKERS", tracer.TRACE_ENV, tracer.MAIN_PID_ENV)
    env = {k: v for k, v in os.environ.items() if k not in drop}
    if trace_dir is not None:
        env[tracer.TRACE_ENV] = str(trace_dir)
    return env


def _spawn(args: list[str], cwd: Path, env: dict, deadline: float) -> Child:
    """Run one child to its exit; wall time is spawn to exit."""
    cwd.mkdir(parents=True)
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args], cwd=cwd, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        fd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]
            wall = (time.perf_counter_ns() - start) / 1e9
            if not exited:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode if exited else None, wall, start, usage.ru_maxrss / 1024.0, cwd)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _outputs(w: Workload, rep: Path) -> list[Path]:
    if w.name == "pair_solve":
        return [rep / "trajectories.bin"]
    return [rep / "out" / "summary.json", rep / "out" / "trace.csv"]


def _check_rep(w: Workload, size: dict, seed: int, child: Child) -> tuple[bool, dict]:
    """(passed, digests) of one repetition; digests are empty if it failed."""
    files = _outputs(w, child.cwd)
    if child.code != 0 or not all(f.is_file() for f in files):
        return False, {}
    if w.name != "pair_solve":
        summary = json.loads(files[0].read_text())
        count = summary.get("n_paths", summary.get("n_runs"))
        if not (all(summary["checks"].values()) and count == w.paths(size)
                and summary["config"]["seed"] == seed):
            return False, {}
    return True, {f.name: _sha256(f) for f in files}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _reference_digests(w: Workload, seed: int) -> dict | None:
    if not BASELINE.is_file():
        return None
    ref = json.loads(BASELINE.read_text())
    return ref.get("workloads", {}).get(w.name, {}).get("digests", {}).get(str(seed))


def machine_facts() -> dict:
    """Facts that output bits and timings depend on."""
    import platform

    import numpy
    import scipy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": [f for f in umath.__cpu_dispatch__ if features.get(f)],
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool, size: dict) -> dict:
    """One benchmark run: the result fields plus a "detail" record."""
    run_dir = OUT / f"{w.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return _measure(w, seed, seconds, trace, size, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(w, seed, seconds, trace, size, run_dir) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = _child_env()
    args = w.args(size, seed, w.workers)
    errors: list[str] = []

    setups = [_spawn(["setup", *args], run_dir / f"setup-{k}", env, deadline)
              for k in range(SETUP_RUNS)]
    if any(s.code != 0 for s in setups):
        errors.append("a set-up child failed")
    setup_s = _median([s.wall_s for s in setups])

    # With --trace 1 the first repetition is a warm-up that is not timed,
    # so that first-touch costs of a fresh run do not fall on one side of
    # trace.overhead_s; then traced and untraced repetitions alternate,
    # at least two of each, so that the exact counts can be compared
    # between two traced repetitions.
    reps: list[tuple[Child, bool]] = []
    least = 5 if trace else 2
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep_dir = run_dir / f"rep-{len(reps)}"
        trace_dir = rep_dir / "spans" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir(parents=True)
        child = _spawn(["run", *args], rep_dir / "cwd", _child_env(trace_dir), deadline)
        reps.append((child, traced))
        now = time.monotonic()
        per_rep = (now - start) / len(reps)
        if child.code is None or now + 2 * per_rep > deadline:
            break
        if len(reps) >= least and now - start + per_rep > seconds:
            break

    checked = [_check_rep(w, size, seed, c) for c, _ in reps]
    digests = [json.dumps(d, sort_keys=True) for ok, d in checked if ok]
    common = collections.Counter(digests).most_common(1)[0][0] if digests else None
    passed = [ok and json.dumps(d, sort_keys=True) == common for ok, d in checked]
    failed = passed.count(False)

    request: dict = {}
    first_ok = next((c for (c, _), ok in zip(reps, passed) if ok), None)
    if w.name == "pair_solve" and first_ok is not None:
        request["pair"] = {
            "file": str(_outputs(w, first_ok.cwd)[0]),
            "levels": [size["level"], size["level_fine"], 8],
        }
    traced_reps = [c for c, t in reps if t]
    span_files = [tracer.load_spans(c.cwd.parent / "spans") for c in traced_reps]
    if span_files:
        request["calls"] = tracer.generate_matrix_calls(span_files[0])
    check = {}
    if request:
        req_path = run_dir / "check-request.json"
        req_path.write_text(json.dumps(request))
        c = _spawn(["check", str(req_path)], run_dir / "check", env, deadline)
        if c.code == 0:
            check = json.loads((c.cwd / "stdout.txt").read_text())
        else:
            errors.append("the check child failed")
    if check.get("lockstep_mismatches"):
        errors.append(f"{check['lockstep_mismatches']} trajectories differ from lockstep")
        failed = len(reps)

    # only a run cut short at the deadline lacks a timed untraced repetition
    untraced = [c for c, t in reps[1 if trace else 0 :] if not t] or [c for c, _ in reps]
    wall_s = _median([c.wall_s for c in untraced])
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "path_steps_per_s": w.path_steps(size) / (wall_s - setup_s),
        # a peak: the largest of the repetitions, whose own peaks depend on
        # how the pool happened to spread the chunks over the workers
        "peak_rss_mib": max(c.rss_mib for c in untraced),
    }
    if trace and len(traced_reps) < 2:
        errors.append(f"the run ended after {len(traced_reps)} traced repetitions, not 2")
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    elif trace:
        layers = _layer_metrics(w, size, traced_reps, span_files, errors)
        layers["noise.unrepaired_cells"] = check.get("unrepaired_cells", 0)
        layers["trace.overhead_s"] = _median([c.wall_s for c in traced_reps]) - wall_s
        metrics = layers

    reference = _reference_digests(w, seed) if size == w.full else None
    detail = {
        "workload": w.name,
        "seed": seed,
        "size": size,
        "workers": w.workers,
        "setup_walls_s": [s.wall_s for s in setups],
        "rep_walls_s": [c.wall_s for c, _ in reps],
        "rep_traced": [t for _, t in reps],
        "rep_rss_mib": [c.rss_mib for c, _ in reps],
        "failed_fraction": failed / len(reps),
        "digests": json.loads(common) if common else {},
        "reference_digests": (
            "none" if reference is None
            else "match" if common and json.loads(common) == reference else "differ"
        ),
        "errors": errors,
    }
    return {
        "correct": failed == 0 and not errors,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def _layer_metrics(w, size, traced_reps, span_files, errors) -> dict:
    per_rep = []
    for child, files in zip(traced_reps, span_files):
        exit_ns = child.spawn_ns + round(child.wall_s * 1e9)
        m = tracer.layer_metrics(files, child.spawn_ns, exit_ns, w.workers)
        outs = [f for f in _outputs(w, child.cwd) if w.name != "pair_solve" and f.is_file()]
        m["runner.bytes_written"] = sum(f.stat().st_size for f in outs)
        m["runner.rows_written"] = sum(f.read_bytes().count(b"\n") - 1 for f in outs
                                       if f.suffix == ".csv")
        expected = w.paths(size) * w.solves
        seen = sum(m[f"integrator.stop.{r}"] for r in tracer.STOP_REASONS)
        if seen != expected:
            errors.append(f"the trace saw {seen} integrated paths, expected {expected}")
        if any(f["missing"] for f in files):
            errors.append(f"untraced functions: {files[0]['missing']}")
        per_rep.append(m)
    out = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        if name in EXACT:
            if len(set(values)) > 1:
                errors.append(f"{name} differs between traced repetitions: {values}")
            out[name] = values[0]
        else:
            out[name] = _median(values)
    return out


def report(result: dict, units: dict) -> None:
    detail = result["detail"]
    print(f"workload {detail['workload']} seed {detail['seed']} size {json.dumps(detail['size'])}")
    print(f"runs {result['attempted']} failed {result['failed']} "
          f"failed_fraction {detail['failed_fraction']!r}")
    for name, value in result["metrics"].items():
        print(f"{name} {value!r} {units[name]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()},
    }))


def smoke() -> int:
    """Every workload at its tiny size, untraced and traced; checks that
    every metric named in BENCHMARK.json is emitted with its unit and
    that no repetition failed."""
    spec = json.loads(SPEC.read_text())
    problems = []
    for w in WORKLOADS.values():
        for trace in (False, True):
            result = measure(w, 1, 1.0, trace, w.smoke)
            units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
            named = spec["per_layer" if trace else "end_to_end"]
            print(f"{w.name} trace={int(trace)} correct={result['correct']} "
                  f"runs={result['attempted']} failed={result['failed']} "
                  f"errors={result['detail']['errors']}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w.name} trace={int(trace)}: a run failed")
            if set(result["metrics"]) != {m["name"] for m in named}:
                problems.append(f"{w.name} trace={int(trace)}: metric names differ")
            for m in named:
                if units.get(m["name"]) != m["unit"]:
                    problems.append(f"{w.name}: {m['name']} lacks unit {m['unit']}")
    for p in problems:
        print("FAIL " + p)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chainsde" / "__init__.py").is_file():
        print(f"perfbench: no chainsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    w = WORKLOADS[args.workload]
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text())["run_seconds"]
    result = measure(w, args.seed % 2**64, seconds, bool(args.trace), w.full)
    result["detail"]["machine"] = machine_facts()
    report(result, PER_LAYER_UNITS if args.trace else END_TO_END_UNITS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
