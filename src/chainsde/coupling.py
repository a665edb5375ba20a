"""Coupled same-noise runs and the mean-square divergence functional.

Two discretized solutions driven by identical inputs are identical, so
divergence is probed by perturbing exactly one ingredient while the
driving noise (one Brownian family per seed) stays shared
(`parse_perturbation` reads these from their config text):

    ResolutionSplit(a, b)  same scheme and start, grid levels a and b
    InitJitter(delta)      same grid and noise, X start offset by delta
    SchemeSplit()          drift-exact versus plain stepping

This is a numerical proxy for pathwise uniqueness, not a proof: the
resolution split measures how fast the coupled pair collapses as the
discretization refines, and the jitter measures continuity in the
initial condition.

Per coupled run the divergence series records, on the common grid and up
to the earlier of the two stop times (early-stopped runs are censored,
never extrapolated), the squared signed difference (X_a - X_b)^2, the
running sup of |X_a - X_b|, and the squared gap of magnitudes
(|X_a| - |X_b|)^2.  The signed version dominates the magnitude version
and is the one fed to the kernel check; both are kept.  The final
running sup is the per-path error of `analysis.convergence_errors`.

The kernel check integrates K_t = int_0^t r^kappa D_r dr by trapezoid,
with kappa = 2 alpha - 2 in cases I/II and 4 alpha - 4 in cases III/IV,
and reports the smallest constant C with D_t <= C K_t on the window.
kappa <= -1 is flagged as non-integrable instead (alpha <= 1/2 and
alpha <= 3/4 respectively).  For kappa < 0 the singular r = 0 node is
dropped from the quadrature; the kernel is integrable there, so this
only shaves the first sub-cell sliver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .core import SystemParams
from .errors import ConfigError
from .integrator import Scheme, SolveConfig, Trajectory, integrate_block
from .noise import _BlockStream
from .stopping import CaseKind, CaseLabel

__all__ = [
    "ResolutionSplit",
    "InitJitter",
    "SchemeSplit",
    "Perturbation",
    "parse_perturbation",
    "CoupledRun",
    "DivergenceTrace",
    "KernelCheck",
    "coupled_solve",
    "coupled_ensemble",
    "estimate_divergence",
    "gronwall_kernel_check",
]


# Points of the divergence grid of `coupled_ensemble` at most, by default.
_TRACE_POINTS = 1025


@dataclass(frozen=True)
class ResolutionSplit:
    level_a: int
    level_b: int

    def __post_init__(self):
        if self.level_a == self.level_b:
            raise ValueError("resolution split needs two distinct levels")
        if min(self.level_a, self.level_b) < 0:
            raise ValueError("levels must be >= 0")


@dataclass(frozen=True)
class InitJitter:
    """X-coordinate offset of the second run; 0 is the null coupling."""

    delta: float

    def __post_init__(self):
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")


@dataclass(frozen=True)
class SchemeSplit:
    pass


Perturbation = Union[ResolutionSplit, InitJitter, SchemeSplit]


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


@dataclass(frozen=True, eq=False)
class CoupledRun:
    """One coupled pair on a shared Brownian family.

    divergence columns: t, (X_a-X_b)^2, running sup |X_a-X_b|,
    (|X_a|-|X_b|)^2.  Trajectories are kept only when requested; large
    ensembles carry just the divergence series.
    """

    path_seed: int
    perturbation: Perturbation
    divergence: np.ndarray
    traj_a: Trajectory | None = None
    traj_b: Trajectory | None = None

    @property
    def times(self) -> np.ndarray:
        return self.divergence[:, 0]

    @property
    def sq_diff(self) -> np.ndarray:
        return self.divergence[:, 1]

    @property
    def sup_diff(self) -> np.ndarray:
        return self.divergence[:, 2]

    @property
    def sq_diff_abs(self) -> np.ndarray:
        return self.divergence[:, 3]


@dataclass(frozen=True, eq=False)
class DivergenceTrace:
    """Ensemble mean-square divergence with per-time censoring counts.

    D is the Monte Carlo estimate of E[(X_a - X_b)^2]; D_abs the
    (|X_a| - |X_b|)^2 variant; stderr the standard error of D (0 where
    fewer than two runs remain); counts the number of runs still alive.
    """

    times: np.ndarray
    D: np.ndarray
    D_abs: np.ndarray
    stderr: np.ndarray
    counts: np.ndarray
    M: int

    def __post_init__(self):
        if not (self.times.size == self.D.size == self.stderr.size == self.counts.size):
            raise ValueError("trace arrays must share one grid")


def _divergence_series(times: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    d = xa - xb
    out = np.empty((times.size, 4), dtype=np.float64)
    out[:, 0] = times
    out[:, 1] = d * d
    out[:, 2] = np.maximum.accumulate(np.abs(d))
    dm = np.abs(xa) - np.abs(xb)
    out[:, 3] = dm * dm
    return out


def _pair_setup(params: SystemParams, pert: Perturbation, cfg: SolveConfig):
    """Resolve (cfg_a, cfg_b, initial_b) for one perturbation."""
    if isinstance(pert, ResolutionSplit):
        cfg_a = replace(cfg, level=pert.level_a)
        cfg_b = replace(cfg, level=pert.level_b)
        init_b = params.initial.coords
    elif isinstance(pert, InitJitter):
        cfg_a = cfg_b = cfg
        coords = params.initial.coords
        init_b = (coords[0] + pert.delta,) + coords[1:]
    elif isinstance(pert, SchemeSplit):
        other = Scheme.PLAIN_EM if cfg.scheme is Scheme.DRIFT_EXACT_EM else Scheme.DRIFT_EXACT_EM
        cfg_a = cfg
        cfg_b = replace(cfg, scheme=other)
        init_b = params.initial.coords
    else:
        raise ValueError(f"unknown perturbation {pert!r}")
    return cfg_a, cfg_b, init_b


def _pair_grids(cfg_a: SolveConfig, cfg_b: SolveConfig, max_trace_points: int | None):
    """The divergence grid's stride in each side's grid steps: the coarser
    grid, decimated to at most max_trace_points points when one is given."""
    lo = min(cfg_a.level, cfg_b.level)
    # the smallest power of two with 2^lo / rec <= max_trace_points - 1
    rec = 1 if max_trace_points is None else (
        1 << max(0, lo + 1 - (max_trace_points - 1).bit_length()))
    return rec * 2 ** (cfg_a.level - lo), rec * 2 ** (cfg_b.level - lo)


def _coupled_pair(params, seeds, pert, cfg, max_trace_points=None):
    """Both sides of the coupled pairs of `seeds`, sharing generated noise.

    The finer solve streams its noise in time blocks and records the
    blocks' pairwise sums at the coarser level, bitwise the coarsened
    increments, which the coarser solve then integrates; when both run at
    one level, each streams the same noise on its own.  The divergence
    grid is the coarser grid decimated to at most max_trace_points points
    (always keeping t = 0 and the horizon), and each side records only
    that grid; without max_trace_points it is the whole coarser grid and
    each side records every step of its own grid.  Returns the two
    ensembles and the divergence grid's stride in each side's grid steps.
    """
    cfg_a, cfg_b, init_b = _pair_setup(params, pert, cfg)
    hi = max(cfg_a.level, cfg_b.level)
    lo = min(cfg_a.level, cfg_b.level)
    full = max_trace_points is None
    grid_a, grid_b = _pair_grids(cfg_a, cfg_b, max_trace_points)
    m = len(seeds)

    def integrate(side_cfg, init, grid, inc):
        return integrate_block(
            params, side_cfg, inc,
            initial_coords=np.tile(np.asarray(init, dtype=np.float64), (m, 1)),
            record_stride=1 if full else grid, seeds=tuple(seeds),
        )

    if lo == hi:
        # Both solves walk the one stream, which regenerates bitwise on
        # each pass; nothing of paths x 2^level is held.
        noise = coarse = _BlockStream(seeds, cfg.max_time, hi, zero=cfg.zero_noise)
    else:
        # The finer solve runs first: its pass over the stream fills
        # noise.recorded, the increments of the coarser solve.
        noise = _BlockStream(seeds, cfg.max_time, hi, zero=cfg.zero_noise, record_level=lo)
        coarse = noise.recorded
    if cfg_a.level >= cfg_b.level:
        run_a = integrate(cfg_a, params.initial.coords, grid_a, noise)
        run_b = integrate(cfg_b, init_b, grid_b, coarse)
    else:
        run_b = integrate(cfg_b, init_b, grid_b, noise)
        run_a = integrate(cfg_a, params.initial.coords, grid_a, coarse)
    return run_a, run_b, grid_a, grid_b


def _pair_divergence(run_a, run_b, grid_a, grid_b, i) -> np.ndarray:
    """Divergence series of pair i on the common grid, up to the earlier stop."""
    rows = 1 + min(
        int(run_a.stop_indices[i]) // grid_a,
        int(run_b.stop_indices[i]) // grid_b,
    )
    ta = grid_a // run_a.record_stride
    tb = grid_b // run_b.record_stride
    return _divergence_series(
        run_a.times[::ta][:rows],
        run_a.coords[i, ::ta, 0][:rows],
        run_b.coords[i, ::tb, 0][:rows],
    )


def coupled_solve(
    params: SystemParams, seed: int, pert: Perturbation, cfg: SolveConfig
) -> CoupledRun:
    """Solve one coupled pair, keeping both trajectories.

    The one-seed case of `coupled_ensemble` with every grid step recorded:
    the divergence series lives on the whole coarser common grid and
    stops at the earlier of the two stop times.
    """
    pair = _coupled_pair(params, (seed,), pert, cfg)
    run_a, run_b = pair[:2]
    return CoupledRun(
        seed, pert, _pair_divergence(*pair, 0),
        traj_a=run_a.trajectory(0), traj_b=run_b.trajectory(0),
    )


def coupled_ensemble(
    params: SystemParams,
    seeds,
    pert: Perturbation,
    cfg: SolveConfig,
    *,
    max_trace_points: int = _TRACE_POINTS,
) -> list[CoupledRun]:
    """Vectorized coupled pairs, one per seed, sharing generated noise.

    Divergence is recorded on the coarser common grid decimated to at
    most max_trace_points points (always keeping t = 0 and the horizon).
    Trajectories are not retained.
    """
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    if max_trace_points < 2:
        raise ValueError("max_trace_points must be >= 2")
    pair = _coupled_pair(params, seeds, pert, cfg, max_trace_points)
    return [
        CoupledRun(seed, pert, _pair_divergence(*pair, i)) for i, seed in enumerate(seeds)
    ]


def estimate_divergence(runs: list[CoupledRun]) -> DivergenceTrace:
    """Pointwise ensemble mean and standard error of the squared gap.

    Runs that stopped early contribute up to their own censoring time;
    the per-time count of surviving runs is recorded alongside.
    """
    if not runs:
        raise ValueError("need at least one coupled run")
    lengths = np.array([run.divergence.shape[0] for run in runs])
    order = int(np.argmax(lengths))
    times = runs[order].times
    for run in runs:
        k = run.divergence.shape[0]
        if not np.array_equal(run.times, times[:k]):
            raise ValueError("coupled runs do not share a common grid")
    n_t = times.size
    counts = (lengths[:, None] > np.arange(n_t)[None, :]).sum(axis=0)
    d_sum = np.zeros(n_t)
    d_sq = np.zeros(n_t)
    dabs_sum = np.zeros(n_t)
    for run in runs:
        k = run.divergence.shape[0]
        d_sum[:k] += run.sq_diff
        d_sq[:k] += run.sq_diff**2
        dabs_sum[:k] += run.sq_diff_abs
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = d_sum / counts
        mean_abs = dabs_sum / counts
        var = (d_sq - counts * mean**2) / np.maximum(counts - 1, 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / counts)
    stderr[counts < 2] = 0.0
    return DivergenceTrace(
        times=times,
        D=mean,
        D_abs=mean_abs,
        stderr=stderr,
        counts=counts,
        M=len(runs),
    )


@dataclass(frozen=True)
class KernelCheck:
    """Outcome of the divergence-kernel inequality fit.

    c_hat is the smallest constant with D_t <= c_hat * K_t over the
    window grid (None when the kernel is non-integrable, 0.0 when the
    divergence is identically zero).
    """

    kappa: float
    integrable: bool
    c_hat: float | None
    window: float
    case_kind: CaseKind
    n_points: int


def kernel_exponent(alpha: float, case: CaseLabel | CaseKind) -> float:
    """2 alpha - 2 for cases I/II, 4 alpha - 4 for cases III/IV."""
    kind = case.kind if isinstance(case, CaseLabel) else case
    if kind in (CaseKind.CASE_I, CaseKind.CASE_II):
        return 2.0 * alpha - 2.0
    return 4.0 * alpha - 4.0


def gronwall_kernel_check(
    alpha: float,
    case: CaseLabel | CaseKind,
    trace: DivergenceTrace,
    window: float,
) -> KernelCheck:
    """Fit D_t <= C int_0^t r^kappa D_r dr on [0, window] by trapezoid.

    alpha may be anywhere in (0, 1]; the 1 endpoint probes the Lipschitz
    limit.  A kappa <= -1 kernel is flagged non-integrable and no
    constant is fitted.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not window > 0.0:
        raise ValueError(f"window must be > 0, got {window}")
    if window > trace.times[-1] * (1.0 + 1e-12):
        raise ValueError(
            f"window {window} exceeds the trace support [0, {trace.times[-1]}]"
        )
    kind = case.kind if isinstance(case, CaseLabel) else case
    kappa = kernel_exponent(alpha, kind)
    integrable = kappa > -1.0
    sel = trace.times <= window * (1.0 + 1e-12)
    times = trace.times[sel]
    d = trace.D[sel]
    if times.size < 2:
        raise ValueError("window covers fewer than two trace points")
    if not integrable:
        return KernelCheck(kappa, False, None, window, kind, times.size)

    g = np.empty_like(d)
    positive = times > 0.0
    g[positive] = times[positive] ** kappa * d[positive]
    if times[0] == 0.0:
        # r = 0 node: r^kappa is 1 at kappa = 0, 0 as r -> 0 for kappa > 0,
        # and singular-but-integrable for kappa in (-1, 0), where the node
        # is dropped from the trapezoid
        g[0] = d[0] if kappa == 0.0 else 0.0
    k_int = np.concatenate(
        [[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(times))]
    )
    valid = (k_int > 0.0) & (np.arange(times.size) >= 1)
    if not valid.any():
        return KernelCheck(kappa, True, 0.0, window, kind, times.size)
    c_hat = float(np.max(d[valid] / k_int[valid]))
    return KernelCheck(kappa, True, c_hat, window, kind, times.size)
