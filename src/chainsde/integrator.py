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
approximation of the continuous first-hitting time.  A stopped path's
noise is off past its stop index.  With `continue_after_stop` the drift
of a band-stopped path continues to the horizon (the truncated system);
otherwise the trajectory is cut at the stop point.  Such a *held* path
(any stop without `continue_after_stop`, and every blowup) steps on
without noise, its records after the stop are set to its stop state
when the solve ends, and a solve whose paths are all held stops
stepping.

`integrate_block` owns a solve's result (the records, the t = 0 row,
the stop codes and indices, the horizon code and the time grid); the
one kernel, `_integrate`, only steps, writing into the arrays it is
handed.  It advances all paths in lockstep and checks stops and writes
records once per sub-block of `_SUB` steps (fewer only where a block of
increments ends), stepping a sub-block again only where a path stopped
in it and evolves on.  Only its step body depends on the path count:
two or more paths step in C (`_kernel.c`, compiled at import like the
noise library), or on numpy rows (`_step_rows`) where it is not built or
fails its load-time probe; a single path steps on Python floats
(`_step_floats`).  The Python bodies evaluate the one `core` definition
of the coefficient and the scheme update (plain operators and numpy
ufuncs, so one source serves floats and rows); the C step repeats it
operation for operation and calls numpy's own float64 `log` and `exp`
loops, so all three round alike.  So a path solved alone is bitwise its
ensemble row, as is iterating `step` where the grid times are exact.
The one exception is a row no record carries: on a path still noisy on
a non-finite state, the C step and the numpy rows may give NaNs of
different sign (a NaN plus a NaN keeps the sign of the operand the
instruction takes first).  A path is held from its first non-finite
row, and its later records are overwritten with its stop state.

A noise stream of two or more blocks is drawn one block ahead on a
helper thread (see `noise._BlockStream`), so the kernel steps block c
while block c + 1 is drawn; the C step, the Philox and split calls and
the inverse normal CDF all release the GIL.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import math
import subprocess
import sysconfig
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import ChainState, SystemParams, _abs_pow, _advance, diffusion_coeff
from .errors import ConfigError, ResourceLimitError
from .noise import MAX_LEVEL, BrownianPath, _BlockStream, _build_native, at_level

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

# Memory budget for one lockstep solve (the blocks of increments it holds
# plus the records), bytes.
_BLOCK_BUDGET = 1_600_000_000

# Steps the kernel advances between two stop checks and record
# writes (one sub-block).
_SUB = 32

# Paths per lockstep solve of a CLI run's worker task and of
# `analysis.convergence_order`; fixed so chunking (and therefore output
# bytes) never depends on the worker count.
CHUNK = 256

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")


def _probe(step_rows) -> bool:
    """Whether the C step's |x|^alpha is bitwise `_abs_pow`'s on zeros,
    subnormals, 1.0, huge values, infinities, NaN, scattered bit patterns
    and values of the band range, at two alphas: one drift-exact step
    from (x, 0, 0) with dB = 1 and no stop leaves it in `coef`."""
    tiny, huge = 5e-324, 1.7976931348623157e308
    special = [0.0, 1.0, tiny, 2.0**-1022, 2.0**-1022 - tiny, huge, 1e300, math.inf, math.nan]
    bits = np.arange(1, 2049, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    frac = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    band = np.ldexp(frac + 0.5, (bits % np.uint64(64)).astype(np.int64) - 32)
    x = np.concatenate([special, np.negative(special), bits.view(np.float64), band, -band])
    m = x.size
    inc, stop_idx, coef = np.ones(m), np.full(m, 2, dtype=np.int64), np.empty(m)
    state, out = np.vstack([x, np.zeros((2, m))]), np.empty((2, 3, m))
    ptrs = [a.ctypes.data for a in (stop_idx, state, state, out[0], out[1], coef)]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for alpha in (0.9, 0.7654321):
            step_rows(m, 3, 1, inc.ctypes.data, 1, 1.0, alpha, 1, *ptrs)
            if coef.tobytes() != _abs_pow(x, alpha).tobytes():
                return False
    return True


def _load_kernel(cache: Path):
    """The compiled lockstep step (`_kernel.c`'s step_rows), or None when
    it cannot be built or loaded, cannot bind numpy's float64 log and exp
    loops, or fails the probe."""
    # numpy's version rides in the command, so an upgrade rebuilds on its headers
    flags = ("-I", np.get_include(), "-I", sysconfig.get_config_var("INCLUDEPY") or "",
             f"-DCHAINSDE_NUMPY={np.__version__}")
    try:
        lib = ctypes.CDLL(str(_build_native(cache, _KERNEL_SOURCE, flags)))
    except (OSError, subprocess.SubprocessError):
        return None
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    lib.bind_loops.argtypes = [ctypes.py_object, ctypes.py_object]
    lib.step_rows.argtypes = [i64, i64, i64, ptr, i64, f64, f64, ctypes.c_int, ptr, ptr, ptr,
                              ptr, ptr, ptr]
    lib.step_rows.restype = None
    if lib.bind_loops(np.log, np.exp) != 0 or not _probe(lib.step_rows):
        return None
    return lib.step_rows


# The compiled step of two or more paths, or None for the numpy rows;
# nothing else selects it.
_kernel = _load_kernel(Path(__file__).with_name("__pycache__"))


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
        shape = self.coords.shape
        if len(shape) != 2 or shape[0] != self.times.size or shape[1] not in (2, 3):
            raise ValueError("coords must have one row of 2 or 3 coordinates per time")
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
    def band_stopped(self) -> bool:
        return self.stop in _BAND_CODES


def _linf(coords):
    """The annulus norm max |coordinate| of float coordinates or numpy rows;
    a NaN coordinate gives NaN."""
    out = abs(coords[0])
    for c in coords[1:]:
        out = np.maximum(out, abs(c))
    return out


def linf_norm(state: ChainState) -> float:
    """Maximum absolute coordinate (the annulus norm)."""
    return float(_linf(state.coords))


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
    if not isinstance(scheme, Scheme):
        raise ValueError(f"unknown scheme {scheme!r}")
    dlast = diffusion_coeff(state.coords[0], params.alpha) * dB
    coords = _advance(state.coords, h, dlast, scheme is Scheme.DRIFT_EXACT_EM)
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


def _stop_codes(linf, eps, inner, outer):
    """Stop code of each l-inf norm, 0 where none applies.

    Priority origin > inner band > outer band > blowup: each later
    assignment overrides the earlier ones.
    """
    finite = np.isfinite(linf)
    code = np.where(finite, np.int8(0), np.int8(StopReason.BLOWUP))
    code = np.where(finite & (linf >= outer), np.int8(StopReason.OUTER_BAND), code)
    code = np.where(linf <= inner, np.int8(StopReason.INNER_BAND), code)
    return np.where(linf <= eps, np.int8(StopReason.ORIGIN_HIT), code)


def _step_rows(inc, j0, h, alpha, exact, start, anchors, stop_idx, stacked, end_anchors, live):
    """The numpy rows step, the C step's oracle and fallback: advance the
    paths over the rows of `inc`, the first to grid index j0, from the
    (d, paths) `start` and (3, paths) `anchors` (ax, ay, at).  Writes the
    states into `stacked` (row, coordinate, path) and the anchors after
    the last row into `end_anchors`.  A path's noise is off at grid index
    j > stop_idx, and its anchor moves with its noise.  When as many move
    at one step as `live`, the paths not held before this sub-block,
    every anchor moves at once: a held path's anchor is never read again.
    Where a path is still noisy on a non-finite state, a NaN may differ in
    sign from the C step's; no record carries such a row.
    """
    n = inc.shape[0]
    s, (ax, ay, at) = tuple(start), anchors
    # the paths off at step j: the same at every step unless a stop index
    # falls inside the sub-block (it is being stepped again)
    off, varies = stop_idx < j0, np.any((stop_idx >= j0) & (stop_idx < j0 + n - 1))
    any_off = varies or off.any()
    states = []
    for j, dB in enumerate(inc, start=j0):
        t_next = j * h
        dlast = _abs_pow(s[0], alpha) * dB
        if any_off:
            np.copyto(dlast, 0.0, where=stop_idx < j if varies else off)
        if exact:
            s = _advance((ax, ay) + s[2:], t_next - at, dlast, True)
            moved = np.count_nonzero(dlast)
            if moved == live:
                ax, ay, at = s[0], s[1], t_next
            elif moved:
                m = dlast != 0.0
                ax, ay, at = np.where(m, s[0], ax), np.where(m, s[1], ay), np.where(m, t_next, at)
        else:
            s = _advance(s, h, dlast, False)
        states.extend(s)
    np.concatenate(states, out=stacked[:n].reshape(-1))
    end_anchors[0], end_anchors[1], end_anchors[2] = ax, ay, at


def _step_floats(inc, j0, h, alpha, exact, start, anchors, stop_idx, stacked, end_anchors, live):
    """`_step_rows` for a single path, on Python floats."""
    s = tuple(start.ravel().tolist())
    ax, ay, at = anchors.ravel().tolist()
    stop = stop_idx.item()
    states = []
    for j, dB in enumerate(inc[:, 0].tolist(), start=j0):
        t_next = j * h
        dlast = float(_abs_pow(s[0], alpha)) * dB if j <= stop else 0.0
        if exact:
            s = _advance((ax, ay) + s[2:], t_next - at, dlast, True)
            if dlast != 0.0:
                ax, ay, at = s[0], s[1], t_next
        else:
            s = _advance(s, h, dlast, False)
        states.extend(s)
    stacked[: inc.shape[0]].reshape(-1)[:] = states
    end_anchors[0, 0], end_anchors[1, 0], end_anchors[2, 0] = ax, ay, at


def _integrate(params, cfg, blocks, h, stride, rec, stop_code, stop_idx):
    """The integration kernel: step the paths of `rec` from its t = 0 row
    over the (paths, w) time `blocks`, writing the records, stop codes and
    stop indices in place.

    Each sub-block of `_SUB` steps (fewer only where a block ends) is
    stepped by one body (`_kernel` for two or more paths, or `_step_rows`
    without it; `_step_floats` for one) from the `start` and `anchors`
    arrays, classified at once (`stops`) and written to the records; one
    restore then carries its last state and end anchors on.  Where a path
    stopped before the last row and evolves on, its later rows were
    stepped with its noise on, so the sub-block is stepped once more from
    the same start and not checked again: paths are independent, so every
    other row keeps its bits.  A held path steps on; when the kernel ends,
    its saved stop state is written over its later records.  Once every
    path is held no more steps are taken, but the blocks are still
    consumed: a stream with a record level sums coarse increments as it
    is walked and publishes them only once every block has been taken.
    """
    M, _, d = rec.shape
    alpha = params.alpha
    eps, inner, outer = cfg.origin_tolerance, cfg.inner_level, cfg.outer_level
    drift_exact = cfg.scheme is Scheme.DRIFT_EXACT_EM

    # one sub-block of states, stacked (row, coordinate, path)
    stacked = np.empty((_SUB, d, M), dtype=np.float64)
    # a sub-block's start state and anchors (ax, ay, at), and the anchors
    # after it; a copy, since at one path the transpose views the t = 0 row
    start = rec[:, 0].T.copy()
    anchors = np.concatenate([start[:2], np.zeros((1, M))])
    end_anchors = np.empty((3, M))
    held = []  # (path, stop index, stop state) of each held path

    kernel = _kernel if M > 1 else None
    body = _step_rows if M > 1 else _step_floats
    if kernel is not None:
        coef = np.empty(M)  # the C step's scratch
        buffers = tuple(a.ctypes.data for a in (stop_idx, start, anchors, stacked, end_anchors,
                                                coef))

    def stops(states, idx):
        """Apply the first stop of each path not yet stopped in `states`,
        stacked (row, coordinate, path) with row r at grid index idx + r.

        A held path's stop state is saved in `held`; its later rows are
        left as stepped.  Returns whether a path stopped before the last
        row and evolves on (a band stop under continue_after_stop): its
        later rows were stepped with its noise on.
        """
        linf = _linf(states.transpose(1, 0, 2))
        # a NaN minimum or an infinite maximum fails this band test too
        if inner < linf.min() and linf.max() < outer:
            return False
        # a stopped path stops no more: 1 lies inside every band
        np.copyto(linf, 1.0, where=stop_code != 0)
        if inner < linf.min() and linf.max() < outer:
            return False
        code = _stop_codes(linf, eps, inner, outer)
        paths = np.flatnonzero(code.any(axis=0))
        rows = (code[:, paths] != 0).argmax(axis=0)
        codes = code[rows, paths]
        stop_code[paths] = codes
        stop_idx[paths] = idx + rows
        hold = (codes == np.int8(StopReason.BLOWUP)) | (not cfg.continue_after_stop)
        for p, r in zip(paths[hold].tolist(), rows[hold].tolist()):
            held.append((p, idx + r, states[r, :, p].copy()))
        return bool(np.any(rows[~hold] < states.shape[0] - 1))

    def record(k, n):
        """Write the recorded rows among steps k+1..k+n from `stacked`."""
        first = -(k + 1) % stride
        if first < n:
            rows = stacked[first:n:stride]
            r0 = (k + 1 + first) // stride
            rec[:, r0 : r0 + rows.shape[0]] = rows.transpose(2, 0, 1)

    def step(i, n, live):
        """Step rows i..i+n-1 of the current block into `stacked`."""
        if kernel is not None:
            kernel(M, d, n, base + 8 * M * i, k + 1, h, alpha, drift_exact, *buffers)
        else:
            body(inc_t[i : i + n], k + 1, h, alpha, drift_exact, start, anchors, stop_idx,
                 stacked, end_anchors, live)

    k = 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        stacked[0] = start
        stops(stacked[:1], 0)
        for block in blocks:
            # the hot loop reads one step's row at a time: stream blocks
            # arrive step-major and pass through, a matrix is copied
            inc_t = np.ascontiguousarray(block.T)
            base = inc_t.ctypes.data
            del block
            i = 0
            while i < inc_t.shape[0] and len(held) < M:
                n = min(_SUB, inc_t.shape[0] - i)
                live = M - len(held)
                step(i, n, live)
                if stops(stacked[:n], k + 1):
                    step(i, n, live)
                record(k, n)
                start[...] = stacked[n - 1]
                anchors[...] = end_anchors
                k += n
                i += n
            # a row view would keep this block alive while the next is drawn
            inc_t = None
        for p, idx, state in held:
            rec[p, idx // stride + 1 :] = state


def _block_bytes(paths: int, width: int, n_steps: int, record_stride: int, dim: int) -> int:
    """Bytes one lockstep solve holds against `_BLOCK_BUDGET`: the blocks of
    `width` increments it holds, two when `width < n_steps` (one stepped,
    one drawn) and one otherwise, plus the records."""
    blocks = 2 if width < n_steps else 1
    return 8 * paths * width * blocks + 8 * paths * (n_steps // record_stride + 1) * dim


def integrate_block(
    params: SystemParams,
    cfg: SolveConfig,
    increments: "np.ndarray | _BlockStream",
    *,
    initial_coords: np.ndarray | None = None,
    record_stride: int = 1,
    seeds: tuple[int, ...] | None = None,
) -> EnsembleResult:
    """Lockstep-integrate a block of paths over shared grid increments.

    increments is a (paths, steps) matrix, one time block, or a noise
    block stream of that shape, which is walked one time block at a time
    and never built whole; the memory budget counts the blocks in flight
    (two for a stream of two or more, one otherwise) plus the records.
    The result is allocated and finished here; the one kernel only
    steps, on floats for a single path and on rows otherwise.
    initial_coords (paths, dim) overrides params.initial per path (used
    by jitter experiments).
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
    footprint = _block_bytes(M, width, n_steps, record_stride, d)
    if footprint > _BLOCK_BUDGET:
        raise ResourceLimitError(
            f"block needs {footprint} bytes (> {_BLOCK_BUDGET}); split it into chunks"
        )
    if seeds is not None and len(seeds) != M:
        raise ValueError("seeds must match the number of paths")
    h = cfg.grid_step

    rec = np.empty((M, n_steps // record_stride + 1, d), dtype=np.float64)
    rec[:, 0] = initial_coords
    stop_code = np.zeros(M, dtype=np.int8)
    stop_idx = np.full(M, n_steps, dtype=np.int64)
    if isinstance(increments, np.ndarray):
        _integrate(params, cfg, (increments,), h, record_stride, rec, stop_code, stop_idx)
    else:
        # closing the pass joins its helper thread, also when the kernel raises
        with contextlib.closing(iter(increments)) as blocks:
            _integrate(params, cfg, blocks, h, record_stride, rec, stop_code, stop_idx)
    stop_code[stop_code == 0] = StopReason.HORIZON_REACHED
    return EnsembleResult(
        times=h * np.arange(0, n_steps + 1, record_stride, dtype=np.float64),
        coords=rec,
        stop_reasons=stop_code,
        stop_indices=stop_idx,
        record_stride=record_stride,
        step=h,
        config=cfg,
        seeds=seeds,
    )


def solve(params: SystemParams, path: BrownianPath, cfg: SolveConfig) -> Trajectory:
    """Integrate one trajectory along `path` and detect its stop event.

    The path is refined or coarsened to cfg.level first (all levels of a
    seed are one Brownian family), and integration covers grid times up
    to cfg.max_time.  With zero_noise set, the increments are replaced
    by zeros.
    """
    if path.horizon < cfg.max_time * (1.0 - 1e-12):
        raise ValueError(
            f"path horizon {path.horizon} is shorter than max_time {cfg.max_time}"
        )
    aligned = at_level(path, cfg.level)
    n = min(aligned.increments.size, int(math.floor(cfg.max_time / aligned.step + 1e-9)))
    if n < 1:
        raise ValueError("max_time is shorter than one grid step")
    inc = aligned.increments[:n]
    if cfg.zero_noise:
        inc = np.zeros_like(inc)
    # the grid step is the path's: its horizon may exceed max_time
    block = integrate_block(
        params, replace(cfg, max_time=aligned.horizon), inc.reshape(1, -1), seeds=(path.seed,)
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
