"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  The heavy ensemble criteria take a few minutes in
total.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import chainsde
from chainsde.analysis import InvariantReport, evaluate_case_bounds, excursion_scan
from chainsde.cli import main
from chainsde.core import ChainState, SystemParams
from chainsde.coupling import (
    InitJitter,
    ResolutionSplit,
    coupled_ensemble,
    estimate_divergence,
    gronwall_kernel_check,
)
from chainsde.integrator import SolveConfig, solve_ensemble
from chainsde.noise import generate, generate_matrix, path_seed, refine
from chainsde.stopping import CaseKind, StoppingBand
from helpers import reconstruction_ulps


def report(number: int, passed: bool, text: str) -> None:
    print(f"\nACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}: {text}")
    assert passed, f"acceptance criterion {number} failed: {text}"


def params_at(coords, alpha=0.9):
    return SystemParams(alpha, len(coords), ChainState(0.0, coords))


def test_01_zero_noise_exactness():
    # zero-noise runs reproduce X = x0 + y0 t + z0 t^2/2 (and the Y, Z
    # rows) at every grid point to <= 8 ulps for 100 random starts
    rng = np.random.default_rng(2718)
    level, T = 8, 1.0
    cfg = SolveConfig(level=level, band_n=8, max_time=T, zero_noise=True,
                      continue_after_stop=True)
    path = generate(1, T, level)
    worst = 0.0
    from chainsde.integrator import solve

    for _ in range(100):
        x0, y0, z0 = (float(v) for v in rng.uniform(-5.0, 5.0, size=3))
        traj = solve(params_at((x0, y0, z0)), path, cfg)
        t = traj.times
        scale_x = np.abs(x0) + np.abs(y0 * t) + np.abs(0.5 * z0 * t * t) + 1e-300
        scale_y = np.abs(y0) + np.abs(z0 * t) + 1e-300
        ux = np.max(np.abs(traj.x - (x0 + y0 * t + z0 * (0.5 * (t * t)))) / np.spacing(scale_x))
        uy = np.max(np.abs(traj.y - (y0 + z0 * t)) / np.spacing(scale_y))
        uz = 0.0 if np.all(traj.z == z0) else math.inf
        worst = max(worst, ux, uy, uz)
    report(1, worst <= 8.0,
           f"zero-noise drift within {worst:.2f} ulps (<= 8) over 100 random starts")


def test_02_band_arithmetic():
    ok = all(
        StoppingBand(n).outer * (StoppingBand(n).t0n + StoppingBand(n).t0n ** 2 / 2.0)
        <= StoppingBand(n).inner
        for n in range(1, 21)
    )
    report(2, ok, "2^n (t0n + t0n^2/2) <= 2^-n exactly in floating point for n = 1..20")


CASE_STARTS = {
    "I": (0.0, 1.0, 0.5 * 2.0**-4),
    "II": (0.0, 1.0, -0.5),
    "III": (0.0, 1.0, 0.5),
    "IV+": (0.0, 0.0, 1.0),
}

_bounds_reports = {}


def _bounds_report(n: int) -> InvariantReport:
    if n not in _bounds_reports:
        records = []
        for name, coords in CASE_STARTS.items():
            for reflect in (False, True):
                start = tuple(-c for c in coords) if reflect else coords
                seeds = [path_seed(31415, i) for i in range(1000)]
                records.extend(evaluate_case_bounds(params_at(start), n, seeds, 14))
        _bounds_reports[n] = InvariantReport(tuple(records))
    return _bounds_reports[n]


def test_03_case_bounds_full_pass():
    # cases I, II, III, IV and reflections; M = 1000, L = 14, n in {4, 6}
    ok = True
    detail = []
    for n in (4, 6):
        rep = _bounds_report(n)
        case_rates = {k: v for k, v in rep.pass_rates().items() if k.startswith("case_")}
        ok &= all(rate == 1.0 for rate in case_rates.values())
        detail.append(f"n={n}: {len(case_rates)} case inequalities")
    report(3, ok, "case bounds pass rate 100% (" + "; ".join(detail) + ")")


def test_04_apriori_bounds_full_pass():
    ok = True
    for n in (4, 6):
        rep = _bounds_report(n)
        apriori_rates = {k: v for k, v in rep.pass_rates().items() if k.startswith("apriori_")}
        ok &= all(rate == 1.0 for rate in apriori_rates.values())
    report(4, ok, "apriori growth bounds pass rate 100% on the same ensembles")


def test_05_coupling_null_test():
    # identical scheme, grid, noise, and start: bitwise-equal pairs
    par = params_at((0.0, 1.0, 0.0))
    cfg = SolveConfig(level=12, band_n=6, max_time=0.5)
    seeds = [path_seed(999, i) for i in range(100)]
    runs = coupled_ensemble(par, seeds, InitJitter(0.0), cfg)
    ok = all(np.all(run.sq_diff == 0.0) and np.all(run.sup_diff == 0.0) for run in runs)
    # the full state agrees bitwise, not just the recorded X gap
    ens_a = solve_ensemble(par, cfg, seeds)
    ens_b = solve_ensemble(par, cfg, seeds)
    ok &= bool(np.array_equal(ens_a.coords, ens_b.coords))
    report(5, ok, "null coupling is bitwise identical on 100 seeds")


def _chunked_coupled(par, seeds, pert, cfg, chunk=250):
    runs = []
    for lo in range(0, len(seeds), chunk):
        runs.extend(coupled_ensemble(par, seeds[lo : lo + chunk], pert, cfg))
    return runs


def test_06_uniqueness_proxy():
    par = params_at((0.0, 1.0, 0.0))
    window = StoppingBand(8).t0n
    seeds = [path_seed(4242, i) for i in range(1000)]

    res_terminal = {}
    for la in (10, 12, 14):
        cfg = SolveConfig(level=la, band_n=8, max_time=window)
        runs = _chunked_coupled(par, seeds, ResolutionSplit(la, 18), cfg)
        trace = estimate_divergence(runs)
        res_terminal[la] = (float(trace.D[-1]), float(trace.stderr[-1]))
    res_ok = all(
        res_terminal[hi][0]
        <= res_terminal[lo][0]
        + 2.0 * math.hypot(res_terminal[lo][1], res_terminal[hi][1])
        for lo, hi in ((10, 12), (12, 14))
    )

    jit_terminal = {}
    for delta in (1e-2, 1e-3, 1e-4):
        cfg = SolveConfig(level=14, band_n=8, max_time=window)
        runs = _chunked_coupled(par, seeds, InitJitter(delta), cfg)
        trace = estimate_divergence(runs)
        jit_terminal[delta] = (float(trace.D[-1]), float(trace.stderr[-1]))
    jit_ok = all(
        jit_terminal[small][0]
        <= jit_terminal[big][0]
        + 2.0 * math.hypot(jit_terminal[big][1], jit_terminal[small][1])
        for big, small in ((1e-2, 1e-3), (1e-3, 1e-4))
    )
    report(
        6,
        res_ok and jit_ok,
        "terminal divergence decreases with resolution "
        f"({res_terminal[10][0]:.3e} -> {res_terminal[12][0]:.3e} -> {res_terminal[14][0]:.3e}) "
        "and with jitter "
        f"({jit_terminal[1e-2][0]:.3e} -> {jit_terminal[1e-3][0]:.3e} -> {jit_terminal[1e-4][0]:.3e})",
    )


def test_07_kernel_threshold():
    times = np.linspace(0.0, 1.0, 65)
    from chainsde.coupling import DivergenceTrace

    trace = DivergenceTrace(
        times=times, D=np.full(65, 0.25), D_abs=np.full(65, 0.25),
        stderr=np.zeros(65), counts=np.full(65, 9, dtype=int), M=9,
    )
    ok = True
    for alpha in (0.5, 0.6, 0.75, 0.76, 0.9):
        for kind in CaseKind:
            chk = gronwall_kernel_check(alpha, kind, trace, 1.0)
            if kind in (CaseKind.CASE_I, CaseKind.CASE_II):
                ok &= chk.integrable == (alpha > 0.5)
            else:
                ok &= chk.integrable == (alpha > 0.75)
            ok &= (chk.c_hat is None) == (not chk.integrable)
    # trace evaluation on a real coupled ensemble stays finite
    par = params_at((0.0, 1.0, 0.0))
    cfg = SolveConfig(level=10, band_n=8, max_time=StoppingBand(8).t0n)
    runs = coupled_ensemble(par, [path_seed(5, i) for i in range(50)], ResolutionSplit(10, 14), cfg)
    real = estimate_divergence(runs)
    chk = gronwall_kernel_check(0.9, CaseKind.CASE_I, real, float(real.times[-1]))
    ok &= chk.integrable and chk.c_hat is not None and math.isfinite(chk.c_hat)
    report(7, ok, "kernel flagged non-integrable exactly for alpha <= 1/2 (I/II) "
                  "and alpha <= 3/4 (III/IV)")


def test_08_brownian_refinement():
    # 10^3 refinements reproduce parents to <= 4 ulps at the cell scale
    worst = 0.0
    for i in range(1000):
        p = generate(path_seed(8080, i), 1.0, 3)
        f = refine(p)
        worst = max(worst, reconstruction_ulps(f.increments, p.increments))
    # quadratic variation at level 16: ensemble mean over 10^3 paths
    qv = []
    seeds = [path_seed(6060, i) for i in range(1000)]
    for lo in range(0, 1000, 250):
        inc = generate_matrix(seeds[lo : lo + 250], 1.0, 16)
        qv.extend(np.sum(inc * inc, axis=1).tolist())
    qv_mean = float(np.mean(qv))
    ok = worst <= 4.0 and 0.98 <= qv_mean <= 1.02
    report(8, ok, f"refinement consistency {worst:.2f} ulps (<= 4); "
                  f"quadratic variation mean {qv_mean:.4f} in [0.98, 1.02]")


_CLI_CASES = [
    ["simulate", "--level", "8", "--ensemble", "20", "--horizon", "1.0",
     "--band-n", "6", "--seed", "5"],
    ["couple", "--perturbation", "jitter:1e-3", "--level", "8", "--ensemble", "20",
     "--horizon", "0.5", "--band-n", "6", "--seed", "5"],
    ["bounds", "--band-n", "4", "--level", "10", "--ensemble", "20", "--seed", "5"],
    ["excursions", "--initial-y", "0", "--initial-z", "1", "--band-n", "3",
     "--level", "9", "--horizon", "4.0", "--ensemble", "20", "--seed", "5"],
    ["converge", "--levels", "5,7", "--level-ref", "9", "--ensemble", "20",
     "--horizon", "0.5", "--band-n", "6", "--seed", "5"],
]


def test_09_reproducibility(tmp_path, monkeypatch):
    ok = True
    for case in _CLI_CASES:
        out = tmp_path / case[0]
        blobs = []
        for workers in ("1", "8", "1"):
            monkeypatch.setenv("CHAINSDE_WORKERS", workers)
            code = main(case + ["--out", str(out)])
            ok &= code == 0
            blobs.append(
                ((out / "summary.json").read_bytes(), (out / "trace.csv").read_bytes())
            )
        ok &= blobs[0] == blobs[1] == blobs[2]
    monkeypatch.delenv("CHAINSDE_WORKERS")
    # the installed entry point behaves like the library call
    out = tmp_path / "subproc"
    # the package's parent on the path: a checkout need not be installed
    env = {**os.environ, "PYTHONPATH": str(Path(chainsde.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "chainsde"] + _CLI_CASES[0] + ["--out", str(out)],
        capture_output=True, env=env,
    )
    ok &= proc.returncode == 0
    with open(out / "summary.json", "r", encoding="utf-8") as fh:
        sub_summary = json.load(fh)
    ok &= sub_summary["n_paths"] == 20
    report(9, ok, "every command byte-identical across reruns and worker counts 1 and 8")


def test_10_non_accumulation_proxy():
    ok = True
    detail = []
    for z0 in (1.0, -1.0):
        par = params_at((0.0, 0.0, z0))
        seeds = [path_seed(7777, i) for i in range(500)]
        p5 = {}
        for level in (12, 14):
            cfg = SolveConfig(level=level, band_n=4, max_time=8.0)
            ens = solve_ensemble(par, cfg, seeds)
            min_gaps = []
            for i in range(500):
                stats = excursion_scan(ens.trajectory(i), cfg.origin_tolerance)
                if stats.min_gap is not None:
                    ok &= stats.min_gap > 0.0
                    min_gaps.append(stats.min_gap)
            # single-hit paths have nothing to accumulate and pass vacuously
            p5[level] = float(np.percentile(min_gaps, 5.0))
        ok &= p5[14] >= 0.5 * p5[12]
        detail.append(f"z0={z0:+.0f}: p5 {p5[12]:.3f} -> {p5[14]:.3f}")
    report(10, ok, "zero-hit gaps stay bounded away from 0 under refinement ("
                   + "; ".join(detail) + ")")
