"""Pathwise inequality verification, excursion statistics, and strong
convergence estimation.

Every case bound checked here is a pathwise consequence of the band
constraint (the last coordinate stays within 2^n before truncation) and
sign conditions, not an expectation, so single trajectories either pass
or fail.  The checks run on grid samples of continuous-time statements,
and the tolerance accounts for exactly that: a small absolute term plus
one grid step of drift of the two compared curves (their largest
discrete slope).  Reflected starts are verified on the negated
trajectory.

Zero hits of the first coordinate are detected as entries into the
near-origin strip |x| <= eps or sign changes between neighbouring grid
points; consecutive detections of one crossing collapse to a single hit,
so gap statistics measure the spacing of separate excursions.  The
non-accumulation claim maps to the falsifiable statistic that the
minimal gap stays bounded away from zero as the grid refines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import SystemParams
from .coupling import _pair_divergence
from .integrator import CHUNK, Scheme, SolveConfig, Trajectory, solve_ensemble
from .noise import path_seed
from .stopping import CaseKind, CaseLabel, StoppingBand, classify, detect_Tn, guaranteed_window

__all__ = [
    "BoundRecord",
    "InvariantReport",
    "ExcursionStats",
    "ConvergenceResult",
    "check_apriori_bound",
    "check_case_bounds",
    "excursion_scan",
    "convergence_errors",
    "convergence_order",
    "fit_order",
    "evaluate_case_bounds",
]

_TN_KINDS = (CaseKind.CASE_III, CaseKind.CASE_IV_ZPOS, CaseKind.CASE_IV_ZNEG)


@dataclass(frozen=True)
class BoundRecord:
    """One inequality checked on one path: margin = min(LHS - RHS)."""

    path_seed: int | None
    label: str
    inequality: str
    window: float
    margin: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tol


@dataclass(frozen=True)
class InvariantReport:
    """Per-path bound records with ensemble pass rates."""

    records: tuple[BoundRecord, ...]

    def pass_rates(self) -> dict[str, float]:
        totals: dict[str, list[int]] = {}
        for rec in self.records:
            hit = totals.setdefault(rec.inequality, [0, 0])
            hit[0] += rec.passed
            hit[1] += 1
        return {k: ok / n for k, (ok, n) in sorted(totals.items())}

    def worst_margins(self) -> dict[str, float]:
        worst: dict[str, float] = {}
        for rec in self.records:
            cur = worst.get(rec.inequality)
            if cur is None or rec.margin < cur:
                worst[rec.inequality] = rec.margin
        return dict(sorted(worst.items()))

    @property
    def all_passed(self) -> bool:
        return all(rec.passed for rec in self.records)


def _step_tolerance(times: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> float:
    """One grid step of drift of both curves (h times their max slope)."""
    if times.size < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(lhs))) + np.max(np.abs(np.diff(rhs))))


def _records_for(pairs, seed, label, window, abs_tol, step_scale, times):
    out = []
    for name, lhs, rhs in pairs:
        margin = float(np.min(lhs - rhs))
        tol = abs_tol + step_scale * _step_tolerance(times, lhs, rhs)
        out.append(BoundRecord(seed, label, name, window, margin, tol))
    return out


def check_apriori_bound(
    traj: Trajectory,
    n: int,
    *,
    abs_tol: float | None = None,
    step_scale: float = 1.0,
) -> list[BoundRecord]:
    """Band-derived growth bounds up to the stop time of an excursion.

    On [0, stop]: |Y_t| <= 2^n (1 + t), |X_t| <= 2^n (t + t^2/2), and
    |X_t| <= 2^-n while t <= t0n.  The default absolute tolerance scales
    with the band, 1e-9 * 2^n.
    """
    if traj.x[0] != 0.0:
        raise ValueError(f"apriori bounds assume an excursion start x = 0, got {traj.x[0]}")
    band = StoppingBand(n)
    if abs_tol is None:
        abs_tol = 1e-9 * band.outer
    end = min(traj.stop_index, len(traj) - 1) + 1
    t = traj.times[:end]
    ax = np.abs(traj.x[:end])
    ay = np.abs(traj.y[:end])
    pairs = [
        ("apriori_y", band.outer * (1.0 + t), ay),
        ("apriori_x", band.outer * (t + 0.5 * t * t), ax),
    ]
    records = _records_for(
        pairs, traj.seed, "apriori", float(t[-1]), abs_tol, step_scale, t
    )
    inner_sel = t <= band.t0n * (1.0 + 1e-12)
    ti = t[inner_sel]
    axi = ax[inner_sel]
    records.extend(
        _records_for(
            [("apriori_x_inner", np.full_like(ti, band.inner), axi)],
            traj.seed, "apriori", float(ti[-1]), abs_tol, step_scale, ti,
        )
    )
    return records


def check_case_bounds(
    traj: Trajectory,
    label: CaseLabel,
    n: int,
    Tn: float | None = None,
    *,
    abs_tol: float = 1e-9,
    step_scale: float = 1.0,
) -> list[BoundRecord]:
    """Case-specific lower bounds for Y and X over the guaranteed window.

    Case I: Y >= 2^-n/2 and X >= (2^-n/2) t on [0, t0n].
    Case II: Y >= beta/2 and X >= (beta/2) t on [0, t0n ^ beta/2^(n+1)].
    Cases III/IV: Y >= (2^-n/2) t and X >= (2^-n/4) t^2 on [0, t0n ^ Tn].
    Reflected labels check the negated trajectory.  The trajectory must
    cover the window (run with continuation); a shorter one is checked
    on its available part.
    """
    initial = traj.state_at(0)
    expected = classify(initial, n)
    if expected != label:
        raise ValueError(f"label {label} does not match the initial state (expected {expected})")
    sign = -1.0 if label.uses_reflected_frame else 1.0
    window = guaranteed_window(label, initial, n)
    if label.kind in _TN_KINDS and Tn is not None:
        window = min(window, Tn)
    sel = traj.times <= window * (1.0 + 1e-12)
    t = traj.times[sel]
    xs = sign * traj.x[sel]
    ys = sign * traj.y[sel]
    band = StoppingBand(n)
    half_inner = 0.5 * band.inner
    if label.kind is CaseKind.CASE_I:
        pairs = [
            ("case_y_floor", ys, np.full_like(t, half_inner)),
            ("case_x_linear", xs, half_inner * t),
        ]
    elif label.kind is CaseKind.CASE_II:
        half_beta = 0.5 * abs(initial.y)
        pairs = [
            ("case_y_floor", ys, np.full_like(t, half_beta)),
            ("case_x_linear", xs, half_beta * t),
        ]
    else:
        pairs = [
            ("case_y_linear", ys, half_inner * t),
            ("case_x_quadratic", xs, 0.25 * band.inner * t * t),
        ]
    return _records_for(pairs, traj.seed, str(label), window, abs_tol, step_scale, t)


@dataclass(frozen=True)
class ExcursionStats:
    """Zero hits of X before the band stop and their gaps.

    min_gap is None when fewer than two hits were seen (nothing to
    accumulate); gaps are strictly positive by the entry-edge rule.
    """

    hit_times: np.ndarray
    gaps: np.ndarray
    count: int

    @property
    def min_gap(self) -> float | None:
        return float(self.gaps.min()) if self.gaps.size else None


def excursion_scan(traj: Trajectory, origin_eps: float) -> ExcursionStats:
    """Detect zero hits of X on [0, stop] and their gap statistics.

    A grid point is *near* when |x| <= origin_eps, and a crossing when
    the sign flips from the previous point; a hit is recorded at each
    entry into the near-or-crossing condition, so one transversal
    crossing counts once however many grid points it straddles.
    """
    if not origin_eps > 0.0:
        raise ValueError(f"origin_eps must be > 0, got {origin_eps}")
    end = min(traj.stop_index, len(traj) - 1) + 1
    x = traj.x[:end]
    cond = np.abs(x) <= origin_eps
    cond[1:] |= x[:-1] * x[1:] < 0.0
    entries = cond.copy()
    entries[1:] &= ~cond[:-1]
    hit_times = traj.times[:end][entries]
    gaps = np.diff(hit_times)
    return ExcursionStats(hit_times=hit_times, gaps=gaps, count=int(entries.sum()))


@dataclass(frozen=True)
class ConvergenceResult:
    """Strong self-convergence errors against a fine reference level."""

    levels: tuple[int, ...]
    steps: tuple[float, ...]
    mean_errors: tuple[float, ...]
    per_path_errors: np.ndarray
    order: float | None
    all_exact: bool


def _reference_stride(levels, level_ref: int) -> int:
    """Record stride of converge's level_ref run: one record per step of
    the finest of `levels`."""
    return 2 ** (level_ref - max(levels))


def convergence_errors(
    params: SystemParams,
    cfg: SolveConfig,
    levels,
    level_ref: int,
    seeds,
) -> np.ndarray:
    """Per-path sup errors |X^(L) - X^(ref)| for one block of seeds.

    Shape (len(levels), len(seeds)); each is the sup of the censored gap
    of the level/reference pair (`coupling._pair_divergence`).
    """
    levels = tuple(int(lv) for lv in levels)
    if any(lv >= level_ref for lv in levels):
        raise ValueError(f"all levels must be below level_ref = {level_ref}")
    errors = np.zeros((len(levels), len(seeds)))
    ref = solve_ensemble(
        params, replace(cfg, level=level_ref), seeds,
        record_stride=_reference_stride(levels, level_ref),
    )
    for j, lv in enumerate(levels):
        run = solve_ensemble(params, replace(cfg, level=lv), seeds)
        for i in range(len(seeds)):
            errors[j, i] = _pair_divergence(run, ref, 1, 2 ** (level_ref - lv), i)[-1, 2]
    return errors


def fit_order(steps, mean_errors) -> float | None:
    """Least-squares slope of log error against log step; None when
    fewer than two positive errors remain."""
    steps = np.asarray(steps, dtype=float)
    mean_errors = np.asarray(mean_errors, dtype=float)
    mask = mean_errors > 0.0
    if mask.sum() < 2:
        return None
    return float(np.polyfit(np.log(steps[mask]), np.log(mean_errors[mask]), 1)[0])


def _fold_convergence(levels, horizon: float, errors: np.ndarray) -> ConvergenceResult:
    """Mean error per level, exactness and fitted order of a (levels x paths) error matrix."""
    mean_errors = errors.mean(axis=1)
    steps = tuple(horizon * 2.0**-lv for lv in levels)
    all_exact = bool(np.all(mean_errors == 0.0))
    order = None if all_exact else fit_order(steps, mean_errors)
    return ConvergenceResult(
        levels=tuple(levels),
        steps=steps,
        mean_errors=tuple(float(e) for e in mean_errors),
        per_path_errors=errors,
        order=order,
        all_exact=all_exact,
    )


def convergence_order(
    params: SystemParams,
    cfg: SolveConfig,
    levels,
    level_ref: int,
    M: int,
    master_seed: int = 0,
) -> ConvergenceResult:
    """Strong error per level against the level_ref run on shared noise.

    Per path and level: sup over the level's grid of |X^(L) - X^(ref)|,
    compared up to the earlier stop of the pair; the fitted order is the
    least-squares slope of log mean error against log step.  Zero errors
    everywhere (zero noise: the drift is exact at any resolution) are
    reported as exact with no order.
    """
    levels = tuple(int(lv) for lv in levels)
    if len(levels) < 2:
        raise ValueError("order fitting needs at least two levels")
    if len(set(levels)) != len(levels):
        raise ValueError("levels must be distinct")
    if M < 1:
        raise ValueError("need at least one path")
    seeds = [path_seed(master_seed, i) for i in range(M)]
    parts = [
        convergence_errors(params, cfg, levels, level_ref, seeds[lo : lo + CHUNK])
        for lo in range(0, M, CHUNK)
    ]
    return _fold_convergence(levels, cfg.max_time, np.concatenate(parts, axis=1))


def evaluate_case_bounds(
    params: SystemParams,
    n: int,
    seeds,
    level: int,
    *,
    scheme: Scheme = Scheme.DRIFT_EXACT_EM,
    zero_noise: bool = False,
    abs_tol_case: float = 1e-9,
    abs_tol_apriori: float | None = None,
    step_scale: float = 1.0,
) -> list[BoundRecord]:
    """Solve one window ensemble and verify case plus apriori bounds.

    The horizon is the case's guaranteed window, integration continues
    through any in-window band stop (the truncated system), and cases
    III/IV additionally cap their window at the per-path Tn.
    """
    label = classify(params.initial, n)
    window = guaranteed_window(label, params.initial, n)
    cfg = SolveConfig(
        level=level,
        band_n=n,
        max_time=window,
        scheme=scheme,
        continue_after_stop=True,
        zero_noise=zero_noise,
    )
    ens = solve_ensemble(params, cfg, seeds)
    records: list[BoundRecord] = []
    for i in range(ens.n_paths):
        traj = ens.trajectory(i)
        tn = detect_Tn(traj, n) if label.kind in _TN_KINDS else None
        records.extend(
            check_case_bounds(
                traj, label, n, tn, abs_tol=abs_tol_case, step_scale=step_scale
            )
        )
        records.extend(
            check_apriori_bound(
                traj, n, abs_tol=abs_tol_apriori, step_scale=step_scale
            )
        )
    return records
