"""Drift-exact Euler-Maruyama stepping with band-stop detection.

The chain's drift subsystem (all rows except the noisy last coordinate)
is a nilpotent linear system, so between changes of the last coordinate
it integrates in closed form.  The default scheme exploits this by
keeping, per path, an *anchor*: the most recent state at which the last
coordinate actually changed.  Each grid value is evaluated as an exact
polynomial in (t - t_anchor) from the anchor, and the anchor moves
whenever a noise contribution is nonzero.  With noise on every step this
reduces to the classic one-step drift-exact update; with noise off (zero
increments, or after the band truncation) trajectories stay within a few
ulps of the closed-form drift solution over arbitrarily many steps.

Stopping predicates are evaluated at grid points only, in the fixed
priority order origin > inner band > outer band > blowup, with the
horizon assigned to paths that never trigger one.  The first grid time
of a violation is the recorded stop time, a resolution-dependent
approximation of the continuous first-hitting time.  After a band stop
the noise is switched off, and with `continue_after_stop` the drift
continues to the horizon (the truncated system); otherwise the
trajectory is cut at the stop point.

Ensembles integrate in lockstep as numpy row vectors, one row per path.
Single-path solves run a scalar loop with identical arithmetic (the
coefficient is evaluated through the same numpy ufuncs), so both code
paths produce bitwise-identical trajectories for the same seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ChainState, SystemParams, diffusion_coeff
from .errors import ConfigError, ResourceLimitError
from .noise import MAX_LEVEL, BrownianPath, _BlockStream, at_level

__all__ = [
    "Scheme",
    "StopReason",
    "SolveConfig",
    "Trajectory",
    "EnsembleResult",
    "linf_norm",
    "step",
    "solve",
    "solve_ensemble",
    "integrate_block",
]

# Memory budget for one lockstep block (one block of increments plus the
# records), bytes.
_BLOCK_BUDGET = 1_600_000_000


class Scheme(enum.Enum):
    DRIFT_EXACT_EM = "drift-exact-em"
    PLAIN_EM = "plain-em"


class StopReason(enum.IntEnum):
    NONE = 0  # sentinel: not stopped yet (never terminal)
    ORIGIN_HIT = 1
    INNER_BAND = 2
    OUTER_BAND = 3
    BLOWUP = 4
    HORIZON_REACHED = 5


_BAND_CODES = (StopReason.ORIGIN_HIT, StopReason.INNER_BAND, StopReason.OUTER_BAND)


@dataclass(frozen=True)
class SolveConfig:
    """Grid, band, and scheme selection for one integration.

    band_n sets the annulus (2^-n, 2^n); origin_eps is the origin-hit
    tolerance (default 2^-(n+6)) and must stay below the inner radius,
    otherwise origin detection would be coarser than the band itself.
    """

    level: int
    band_n: int
    max_time: float
    scheme: Scheme = Scheme.DRIFT_EXACT_EM
    origin_eps: float | None = None
    continue_after_stop: bool = False
    zero_noise: bool = False

    def __post_init__(self):
        if not 0 <= self.level <= MAX_LEVEL:
            raise ConfigError(f"level must lie in [0, {MAX_LEVEL}], got {self.level}")
        if self.band_n < 1:
            raise ConfigError(f"band_n must be >= 1, got {self.band_n}")
        if not (self.max_time > 0.0 and math.isfinite(self.max_time)):
            raise ConfigError(f"max_time must be finite and > 0, got {self.max_time}")
        if not isinstance(self.scheme, Scheme):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.origin_eps is not None:
            if not self.origin_eps > 0.0:
                raise ConfigError(f"origin_eps must be > 0, got {self.origin_eps}")
            if self.origin_eps > 2.0**-self.band_n:
                raise ConfigError(
                    f"origin_eps = {self.origin_eps} exceeds the inner band radius "
                    f"2^-{self.band_n}; origin detection must be finer than the band"
                )

    @property
    def origin_tolerance(self) -> float:
        if self.origin_eps is not None:
            return self.origin_eps
        return 2.0 ** -(self.band_n + 6)

    @property
    def inner_level(self) -> float:
        return 2.0**-self.band_n

    @property
    def outer_level(self) -> float:
        return 2.0**self.band_n

    @property
    def grid_step(self) -> float:
        return self.max_time * 2.0**-self.level


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid samples of one path with its terminal stop record.

    Without `continue_after_stop` the arrays end at the stop point; with
    it they run to the horizon and the noise is off past `stop_index`
    (the last coordinate stays bitwise constant there).
    """

    times: np.ndarray
    coords: np.ndarray
    stop: StopReason
    stop_time: float
    stop_index: int
    seed: int | None = None

    def __post_init__(self):
        if self.coords.shape != (self.times.size, self.coords.shape[1]):
            raise ValueError("coords must have one row per time")
        if self.stop is StopReason.NONE:
            raise ValueError("a finished trajectory needs a terminal stop reason")

    def __len__(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def x(self) -> np.ndarray:
        return self.coords[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.coords[:, 1]

    @property
    def z(self) -> np.ndarray:
        if self.dim != 3:
            raise ValueError("z is only defined for chain order 3")
        return self.coords[:, 2]

    def state_at(self, i: int) -> ChainState:
        row = self.coords[i]
        blown = not np.all(np.isfinite(row))
        return ChainState(float(self.times[i]), tuple(float(c) for c in row), blown_up=blown)

    @property
    def final_state(self) -> ChainState:
        return self.state_at(len(self) - 1)

    @property
    def band_stopped(self) -> bool:
        return self.stop in _BAND_CODES


def linf_norm(state: ChainState) -> float:
    """Maximum absolute coordinate (the annulus norm)."""
    return max(abs(c) for c in state.coords)


def step(
    state: ChainState,
    params: SystemParams,
    dB: float,
    h: float,
    scheme: Scheme = Scheme.DRIFT_EXACT_EM,
) -> ChainState:
    """One update of the chain over a step of length h with increment dB.

    Drift-exact: the drift subsystem advances by its exact flow and the
    last coordinate picks up |x|^alpha * dB with the coefficient frozen
    at the step start.  Plain: all rows forward-Euler.  A non-finite
    result is returned flagged as blown up rather than raised.
    """
    if state.dim != params.chain_order:
        raise ValueError("state dimension does not match params.chain_order")
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be finite and > 0, got {h}")
    coeff = diffusion_coeff(state.coords[0], params.alpha)
    if scheme is Scheme.DRIFT_EXACT_EM:
        if state.dim == 3:
            x, y, z = state.coords
            coords = (x + h * y + (0.5 * h * h) * z, y + h * z, z + coeff * dB)
        else:
            x, y = state.coords
            coords = (x + h * y, y + coeff * dB)
    elif scheme is Scheme.PLAIN_EM:
        if state.dim == 3:
            x, y, z = state.coords
            coords = (x + h * y, y + h * z, z + coeff * dB)
        else:
            x, y = state.coords
            coords = (x + h * y, y + coeff * dB)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    blown = not all(math.isfinite(c) for c in coords)
    return ChainState(state.t + h, coords, blown_up=blown)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Lockstep integration output for a block of paths.

    coords has shape (paths, recorded points, dim); stop indices are in
    full-resolution grid units regardless of the record stride.
    """

    times: np.ndarray
    coords: np.ndarray
    stop_reasons: np.ndarray
    stop_indices: np.ndarray
    record_stride: int
    step: float
    config: SolveConfig
    seeds: tuple[int, ...] | None = None

    @property
    def n_paths(self) -> int:
        return self.coords.shape[0]

    def stop_reason(self, i: int) -> StopReason:
        return StopReason(int(self.stop_reasons[i]))

    def stop_time(self, i: int) -> float:
        return float(self.stop_indices[i]) * self.step

    def trajectory(self, i: int) -> Trajectory:
        """Single-path view; requires full-resolution recording."""
        if self.record_stride != 1:
            raise ValueError("trajectories require record_stride == 1")
        stop_idx = int(self.stop_indices[i])
        end = self.times.size if self.config.continue_after_stop else stop_idx + 1
        seed = None if self.seeds is None else self.seeds[i]
        return Trajectory(
            times=self.times[:end],
            coords=self.coords[i, :end],
            stop=self.stop_reason(i),
            stop_time=self.stop_time(i),
            stop_index=stop_idx,
            seed=seed,
        )

    def trajectories(self) -> list[Trajectory]:
        return [self.trajectory(i) for i in range(self.n_paths)]


def _stop_code_scalar(coords: tuple[float, ...], eps: float, inner: float, outer: float) -> int:
    linf = max(abs(c) for c in coords)
    finite = math.isfinite(linf)
    if linf <= eps:
        return int(StopReason.ORIGIN_HIT)
    if linf <= inner:
        return int(StopReason.INNER_BAND)
    if finite and linf >= outer:
        return int(StopReason.OUTER_BAND)
    if not finite:
        return int(StopReason.BLOWUP)
    return 0


def _blocks(increments):
    """The (paths, w) time blocks of a block stream; a matrix is one block."""
    return (increments,) if isinstance(increments, np.ndarray) else increments


def _integrate_vector(params, cfg, increments, init, stride, h):
    """Lockstep kernel over (paths, steps) increments, a matrix or a block stream.

    Arithmetic mirrors _integrate_scalar expression by expression (the
    in-place ufuncs only reorder commutative additions), so a lockstep
    row is bitwise identical to the corresponding single-path solve.
    The hot loop works in preallocated buffers and only falls into the
    slow masked branches around stop events.  Blocks are consumed in
    time order; the state, anchors, stops and record index carry over.
    """
    M, n_steps = increments.shape
    d = init.shape[1]
    alpha = params.alpha
    eps, inner, outer = cfg.origin_tolerance, cfg.inner_level, cfg.outer_level
    drift_exact = cfg.scheme is Scheme.DRIFT_EXACT_EM
    n_rec = n_steps // stride

    rec = np.empty((M, n_rec + 1, d), dtype=np.float64)
    stop_code = np.zeros(M, dtype=np.int8)
    stop_idx = np.full(M, n_steps, dtype=np.int64)

    x = init[:, 0].copy()
    y = init[:, 1].copy()
    z = init[:, 2].copy() if d == 3 else np.zeros(M)
    # anchors for the drift-exact scheme; z anchors itself
    ax, ay, at = x.copy(), y.copy(), np.zeros(M)

    evolving = np.ones(M, dtype=bool)
    noisy = np.ones(M, dtype=bool)
    state = {"any_active": True, "all_evolving": True, "all_noisy": True}

    # work buffers
    coeff = np.empty(M)
    dlast = np.empty(M)
    dt = np.empty(M)
    tmp = np.empty(M)
    xn = np.empty(M)
    yn = np.empty(M)
    zn = np.empty(M)
    linf = np.empty(M)
    babs = np.empty(M)
    b1 = np.empty(M, dtype=bool)
    b2 = np.empty(M, dtype=bool)

    def _linf_now():
        np.abs(x, out=linf)
        np.abs(y, out=babs)
        np.maximum(linf, babs, out=linf)
        if d == 3:
            np.abs(z, out=babs)
            np.maximum(linf, babs, out=linf)

    def _apply_stops(idx):
        """Classify and record stops among still-active paths (slow path)."""
        finite = np.isfinite(linf)
        code = np.zeros(M, dtype=np.int8)
        code = np.where(linf <= eps, np.int8(StopReason.ORIGIN_HIT), code)
        code = np.where((code == 0) & (linf <= inner), np.int8(StopReason.INNER_BAND), code)
        code = np.where(
            (code == 0) & finite & (linf >= outer), np.int8(StopReason.OUTER_BAND), code
        )
        code = np.where((code == 0) & ~finite, np.int8(StopReason.BLOWUP), code)
        hit = (stop_code == 0) & (code > 0)
        if not hit.any():
            return
        np.copyto(stop_code, code, where=hit)
        np.copyto(stop_idx, idx, where=hit)
        if cfg.continue_after_stop:
            frozen = hit & (code == np.int8(StopReason.BLOWUP))
        else:
            frozen = hit
        np.logical_and(evolving, ~frozen, out=evolving)
        np.logical_and(noisy, ~hit, out=noisy)
        state["any_active"] = bool((stop_code == 0).any())
        state["all_evolving"] = bool(evolving.all())
        state["all_noisy"] = bool(noisy.all())

    def _maybe_stop(idx):
        if not state["any_active"]:
            return
        _linf_now()
        np.less_equal(linf, inner, out=b1)  # covers the origin predicate too
        np.greater_equal(linf, outer, out=b2)
        np.logical_or(b1, b2, out=b1)
        np.isfinite(linf, out=b2)
        if b1.any() or not b2.all():
            _apply_stops(idx)

    _maybe_stop(0)
    rec[:, 0, 0] = x
    rec[:, 0, 1] = y
    if d == 3:
        rec[:, 0, 2] = z

    k = 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for block in _blocks(increments):
            # step-contiguous layout for the column reads in the hot loop
            inc_t = np.ascontiguousarray(block.T)
            del block
            for dB in inc_t:
                t_next = (k + 1) * h
                # coefficient exp(alpha * ln|x|); ln 0 = -inf gives exactly 0
                np.abs(x, out=coeff)
                np.log(coeff, out=coeff)
                coeff *= alpha
                np.exp(coeff, out=coeff)
                np.multiply(coeff, dB, out=dlast)
                if not state["all_noisy"]:
                    np.copyto(dlast, 0.0, where=~noisy)

                if drift_exact:
                    np.subtract(t_next, at, out=dt)
                    if d == 3:
                        np.multiply(dt, dt, out=tmp)
                        tmp *= 0.5
                        np.multiply(tmp, z, out=xn)  # (0.5*(dt*dt))*z
                        np.multiply(dt, ay, out=tmp)
                        tmp += ax
                        xn += tmp  # + (ax + dt*ay)
                        np.multiply(dt, z, out=yn)
                        yn += ay
                        np.add(z, dlast, out=zn)
                    else:
                        np.multiply(dt, ay, out=xn)
                        xn += ax
                        np.add(ay, dlast, out=yn)
                else:
                    np.multiply(y, h, out=xn)
                    xn += x
                    if d == 3:
                        np.multiply(z, h, out=yn)
                        yn += y
                        np.add(z, dlast, out=zn)
                    else:
                        np.add(y, dlast, out=yn)

                if state["all_evolving"]:
                    x, xn = xn, x
                    y, yn = yn, y
                    if d == 3:
                        z, zn = zn, z
                else:
                    np.copyto(x, xn, where=evolving)
                    np.copyto(y, yn, where=evolving)
                    if d == 3:
                        np.copyto(z, zn, where=evolving)
                if drift_exact:
                    np.not_equal(dlast, 0.0, out=b1)
                    b1 &= evolving
                    np.copyto(ax, x, where=b1)
                    np.copyto(ay, y, where=b1)
                    np.copyto(at, t_next, where=b1)

                _maybe_stop(k + 1)

                if (k + 1) % stride == 0:
                    r = (k + 1) // stride
                    rec[:, r, 0] = x
                    rec[:, r, 1] = y
                    if d == 3:
                        rec[:, r, 2] = z
                k += 1
            # the last row view would keep this block alive while the next is drawn
            del inc_t, dB

    stop_code = np.where(stop_code == 0, np.int8(StopReason.HORIZON_REACHED), stop_code)
    times = h * np.arange(0, n_steps + 1, stride, dtype=np.float64)
    return times, rec, stop_code, stop_idx


def _integrate_scalar(params, cfg, increments, init, stride, h):
    """Single-path mirror of _integrate_vector with scalar arithmetic.

    The coefficient goes through the same numpy ufuncs, so the result is
    bitwise identical to the corresponding lockstep row.
    """
    n_steps = increments.shape[1]
    d = len(init[0])
    alpha = params.alpha
    eps, inner, outer = cfg.origin_tolerance, cfg.inner_level, cfg.outer_level
    drift_exact = cfg.scheme is Scheme.DRIFT_EXACT_EM
    n_rec = n_steps // stride

    rec = np.empty((1, n_rec + 1, d), dtype=np.float64)
    stop_code = 0
    stop_idx = n_steps

    if d == 3:
        x, y, z = (float(c) for c in init[0])
    else:
        x, y = (float(c) for c in init[0])
        z = 0.0
    ax, ay, at = x, y, 0.0
    evolving = True
    noisy = True

    def coords():
        return (x, y, z) if d == 3 else (x, y)

    code0 = _stop_code_scalar(coords(), eps, inner, outer)
    if code0:
        stop_code, stop_idx = code0, 0
        noisy = False
        if not cfg.continue_after_stop or code0 == int(StopReason.BLOWUP):
            evolving = False
    rec[0, 0, :d] = coords()

    k = 0
    for block in _blocks(increments):
        for dB in block[0]:
            t_next = (k + 1) * h
            if evolving:
                if noisy and x != 0.0:
                    dlast = float(np.exp(alpha * np.log(abs(x)))) * dB
                else:
                    dlast = 0.0
                if drift_exact:
                    dt = t_next - at
                    if d == 3:
                        x = ax + dt * ay + (0.5 * (dt * dt)) * z
                        y = ay + dt * z
                        z = z + dlast
                    else:
                        x = ax + dt * ay
                        y = ay + dlast
                    if dlast != 0.0:
                        ax, ay, at = x, y, t_next
                else:
                    if d == 3:
                        x, y, z = x + h * y, y + h * z, z + dlast
                    else:
                        x, y = x + h * y, y + dlast
                if stop_code == 0:
                    code = _stop_code_scalar(coords(), eps, inner, outer)
                    if code:
                        stop_code, stop_idx = code, k + 1
                        noisy = False
                        if not cfg.continue_after_stop or code == int(StopReason.BLOWUP):
                            evolving = False
            if (k + 1) % stride == 0:
                rec[0, (k + 1) // stride, :d] = coords()
            k += 1

    if stop_code == 0:
        stop_code = int(StopReason.HORIZON_REACHED)
    times = h * np.arange(0, n_steps + 1, stride, dtype=np.float64)
    return (
        times,
        rec,
        np.array([stop_code], dtype=np.int8),
        np.array([stop_idx], dtype=np.int64),
    )


def integrate_block(
    params: SystemParams,
    cfg: SolveConfig,
    increments: "np.ndarray | _BlockStream",
    *,
    initial_coords: np.ndarray | None = None,
    record_stride: int = 1,
    seeds: tuple[int, ...] | None = None,
    grid_step: float | None = None,
) -> EnsembleResult:
    """Lockstep-integrate a block of paths over shared grid increments.

    increments is a (paths, steps) matrix, or a noise block stream of that
    shape, which is walked one time block at a time and never built
    whole; the memory budget counts one block plus the records.
    initial_coords (paths, dim) overrides params.initial per path (used
    by jitter experiments).  grid_step defaults to cfg.grid_step and only
    differs when the increments come from a path whose horizon exceeds
    cfg.max_time.
    """
    if isinstance(increments, _BlockStream):
        width = increments.width
    else:
        increments = np.asarray(increments, dtype=np.float64)
        if increments.ndim != 2:
            raise ValueError("increments must be a (paths, steps) matrix")
        width = increments.shape[1]
    M, n_steps = increments.shape
    if M < 1 or n_steps < 1:
        raise ValueError("need at least one path and one step")
    if record_stride < 1 or n_steps % record_stride != 0:
        raise ValueError(f"record_stride {record_stride} must divide the step count {n_steps}")
    d = params.chain_order
    if initial_coords is None:
        initial_coords = np.tile(np.array(params.initial.coords), (M, 1))
    else:
        initial_coords = np.asarray(initial_coords, dtype=np.float64)
        if initial_coords.shape != (M, d):
            raise ValueError(f"initial_coords must have shape ({M}, {d})")
        if not np.all(np.isfinite(initial_coords)):
            raise ValueError("initial coordinates must be finite")
    footprint = 8 * M * width + 8 * M * (n_steps // record_stride + 1) * d
    if footprint > _BLOCK_BUDGET:
        raise ResourceLimitError(
            f"block needs {footprint} bytes (> {_BLOCK_BUDGET}); split it into chunks"
        )
    if seeds is not None and len(seeds) != M:
        raise ValueError("seeds must match the number of paths")
    h = cfg.grid_step if grid_step is None else float(grid_step)
    if not h > 0.0:
        raise ValueError(f"grid_step must be > 0, got {h}")

    kernel = _integrate_scalar if M == 1 else _integrate_vector
    times, rec, codes, idxs = kernel(params, cfg, increments, initial_coords, record_stride, h)
    return EnsembleResult(
        times=times,
        coords=rec,
        stop_reasons=codes,
        stop_indices=idxs,
        record_stride=record_stride,
        step=h,
        config=cfg,
        seeds=seeds,
    )


def _path_increments(path: BrownianPath, cfg: SolveConfig) -> tuple[np.ndarray, float]:
    if path.horizon < cfg.max_time * (1.0 - 1e-12):
        raise ValueError(
            f"path horizon {path.horizon} is shorter than max_time {cfg.max_time}"
        )
    aligned = at_level(path, cfg.level) if path.level != cfg.level else path
    h = aligned.step
    n = min(aligned.increments.size, int(math.floor(cfg.max_time / h + 1e-9)))
    if n < 1:
        raise ValueError("max_time is shorter than one grid step")
    return aligned.increments[:n], h


def solve(params: SystemParams, path: BrownianPath, cfg: SolveConfig) -> Trajectory:
    """Integrate one trajectory along `path` and detect its stop event.

    The path is refined or coarsened to cfg.level first (all levels of a
    seed are one Brownian family), and integration covers grid times up
    to cfg.max_time.  With zero_noise set, the increments are replaced
    by zeros.
    """
    inc, h = _path_increments(path, cfg)
    if cfg.zero_noise:
        inc = np.zeros_like(inc)
    block = integrate_block(
        params, cfg, inc.reshape(1, -1), record_stride=1, seeds=(path.seed,), grid_step=h
    )
    return block.trajectory(0)


def solve_ensemble(
    params: SystemParams,
    cfg: SolveConfig,
    seeds: "list[int] | tuple[int, ...]",
    *,
    record_stride: int = 1,
    initial_coords: np.ndarray | None = None,
) -> EnsembleResult:
    """Integrate one path per seed in lockstep over [0, max_time].

    Streams the level-cfg.level member of each seed's Brownian family in
    aligned time blocks (zero blocks with zero_noise), bitwise equal to
    generate_matrix.  Memory is bounded by the number of seeds times the
    block width plus the records, whatever the level; the width shrinks
    as the ensemble grows, so chunks of a few hundred paths keep the
    per-step overhead of the lockstep loop small.
    """
    return integrate_block(
        params,
        cfg,
        _BlockStream(seeds, cfg.max_time, cfg.level, zero=cfg.zero_noise),
        initial_coords=initial_coords,
        record_stride=record_stride,
        seeds=tuple(seeds),
    )
