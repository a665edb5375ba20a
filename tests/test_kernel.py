"""The compiled lockstep step (`_kernel.c`) against its numpy rows oracle.

Two or more paths step in C when the kernel library builds, binds
numpy's float64 log and exp loops and passes its probe; the numpy rows
body of `integrator._integrate` is the oracle and the fallback.  Every
result here must be bitwise the same on both.
"""

import math

import numpy as np
import pytest

from chainsde import integrator
from chainsde.core import ChainState, SystemParams, _abs_pow
from chainsde.integrator import Scheme, SolveConfig, StopReason, integrate_block, solve_ensemble
from chainsde.noise import path_seed

PACKAGE_CACHE = integrator._KERNEL_SOURCE.with_name("__pycache__")


@pytest.fixture(autouse=True)
def needs_kernel():
    if integrator._kernel is None:
        pytest.skip("the compiled kernel is not loaded (no compiler, headers or probe)")


def params_at(coords, alpha=0.9):
    return SystemParams(alpha, len(coords), ChainState(0.0, coords))


_H = 2.0**-8  # T = 1 at level 8


def rows_case(m, order, seed, steps=260):
    """m starts cycling through the kinds below, and their increments.

    Band-edge starts reach the band 2^-1 or 2^1 by drift at a step set by
    the row; they draw increments of 1e-30, so they stop on time.  A
    start at x = 0 gives a zero coefficient on its first step (its anchor
    stays).  The huge starts leave the band at once and, drifting on
    under continue_after_stop, overflow to inf and NaN.  The origin start
    stops at once and a near-origin one drifts into the origin
    tolerance.  Every other start at (0, 1, 0) blows up on an infinite
    increment.
    """
    rng = np.random.default_rng(seed)
    starts, tiny = [], []
    for i in range(m):
        kind = i % 9
        k = 1 + (7 * i) % 250
        if kind == 0:
            starts.append((0.0, 1.0, 0.0))
        elif kind == 1:
            starts.append((2.0 - k * _H, 1.0, 0.0))
            tiny.append(i)
        elif kind == 2:
            starts.append((0.5 + k * _H * 0.25, -0.25, 0.0))
            tiny.append(i)
        elif kind == 3:
            starts.append((1e308, 1e308, -1e308))
        elif kind == 4:
            starts.append((0.0, 0.0, 0.0))
        elif kind == 5:
            starts.append((2.0**-9, -(2.0**-9) / (40 * _H), 0.0))
            tiny.append(i)
        elif kind == 6:
            starts.append((-1e300, 1e300, 1e300))
        else:
            starts.append(tuple(rng.uniform(-1.5, 1.5, 3).tolist()))
    init = np.array(starts)[:, :order]
    inc = rng.standard_normal((m, steps)) * math.sqrt(_H)
    inc[tiny] = 1e-30
    inc[0::18, 5] = math.inf
    return params_at((0.0, 1.0, 0.0)[:order]), init, inc


def both_bodies(monkeypatch, par, cfg, inc, init, stride=1):
    """The result on the C step and on the numpy rows, which must agree bitwise."""
    c = integrate_block(par, cfg, inc, initial_coords=init, record_stride=stride)
    with monkeypatch.context() as mp:
        mp.setattr(integrator, "_kernel", None)
        rows = integrate_block(par, cfg, inc, initial_coords=init, record_stride=stride)
    assert c.coords.tobytes() == rows.coords.tobytes()
    assert c.stop_reasons.tobytes() == rows.stop_reasons.tobytes()
    assert c.stop_indices.tobytes() == rows.stop_indices.tobytes()
    return c


@pytest.mark.parametrize("m", [2, 7, 256])
@pytest.mark.parametrize("stride", [1, 4, 5])
@pytest.mark.parametrize("cont", [False, True])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("order", [3, 2])
def test_c_step_is_numpy_rows_bitwise(monkeypatch, order, scheme, cont, stride, m):
    par, init, inc = rows_case(m, order, seed=m + stride)
    cfg = SolveConfig(level=8, band_n=1, max_time=1.0, scheme=scheme, continue_after_stop=cont)
    ens = both_bodies(monkeypatch, par, cfg, inc, init, stride)
    if m >= 7:
        reasons = set(ens.stop_reasons.tolist())
        assert {StopReason.ORIGIN_HIT, StopReason.BLOWUP} <= reasons


def test_cases_cover_every_stop(monkeypatch):
    par, init, inc = rows_case(256, 3, seed=1)
    cfg = SolveConfig(level=8, band_n=1, max_time=1.0, continue_after_stop=True)
    ens = both_bodies(monkeypatch, par, cfg, inc, init)
    assert set(ens.stop_reasons.tolist()) == {
        StopReason.ORIGIN_HIT, StopReason.INNER_BAND, StopReason.OUTER_BAND,
        StopReason.BLOWUP, StopReason.HORIZON_REACHED,
    }
    assert not np.all(np.isfinite(ens.coords[3::9, -1]))


@pytest.mark.parametrize("order", [3, 2])
def test_zero_coefficient_keeps_the_anchor(monkeypatch, order):
    # rows at x = 0 take dlast = 0 on their first step while the others
    # move: the anchors move per path
    par = params_at((0.0, 1.0, 0.0)[:order])
    init = np.array([(0.0, 1.0, 0.0), (0.3, 1.0, 0.2), (0.0, -2.0, 1.0), (1.0, 0.0, 0.0)])
    inc = np.random.default_rng(5).standard_normal((4, 64)) * math.sqrt(_H)
    inc[3, :10] = 0.0  # a noisy path with zero increments
    cfg = SolveConfig(level=8, band_n=30, max_time=1.0)
    both_bodies(monkeypatch, par, cfg, inc, init[:, :order])


@pytest.mark.parametrize("cont", [False, True])
def test_fully_held_solve(monkeypatch, cont):
    # every row stops early in the band; without continue_after_stop all
    # are held and stepping stops
    par, init, inc = rows_case(18, 3, seed=3)
    keep = [i for i in range(18) if i % 9 in (1, 2, 4)]
    cfg = SolveConfig(level=8, band_n=1, max_time=1.0, continue_after_stop=cont)
    ens = both_bodies(monkeypatch, par, cfg, inc[keep], init[keep])
    assert (ens.stop_indices < 255).all()


def test_stream_solve_matches(monkeypatch):
    # a solve over stream blocks, with stops, on both bodies
    par = params_at((0.0, 0.3, 0.0))
    cfg = SolveConfig(level=10, band_n=2, max_time=4.0, continue_after_stop=True)
    seeds = [path_seed(29, i) for i in range(40)]
    c = solve_ensemble(par, cfg, seeds, record_stride=8)
    monkeypatch.setattr(integrator, "_kernel", None)
    rows = solve_ensemble(par, cfg, seeds, record_stride=8)
    assert c.coords.tobytes() == rows.coords.tobytes()
    assert c.stop_indices.tobytes() == rows.stop_indices.tobytes()
    assert len(set(c.stop_reasons.tolist())) > 1


def test_probe_accepts_the_loaded_loops():
    assert integrator._load_kernel(PACKAGE_CACHE) is not None


def test_probe_mismatch_leaves_kernel_off(monkeypatch):
    # a coefficient one ulp away from the numpy loops' on some inputs
    def shifted(x, alpha):
        out = _abs_pow(x, alpha)
        return np.where(np.abs(x) > 1e10, np.nextafter(out, math.inf), out)

    monkeypatch.setattr(integrator, "_abs_pow", shifted)
    assert integrator._load_kernel(PACKAGE_CACHE) is None


def test_unbound_loops_leave_kernel_off(monkeypatch):
    # a ufunc without a float64 loop cannot be bound
    monkeypatch.setattr(integrator.np, "exp", np.logical_not)
    assert integrator._load_kernel(PACKAGE_CACHE) is None


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("order", [3, 2])
def test_one_sub_block_is_the_numpy_rows_step(order, scheme):
    # one sub-block straight from equal start states, anchors, increments
    # and stop indices; rows cycle through: noisy, held (stopped before
    # the sub-block), switching off at a row inside it or at its last row,
    # a zero coefficient (x = 0), an infinite increment, and held blown
    # states.  Noise on a non-finite state would propagate NaNs whose sign
    # IEEE 754 leaves open; a solve stops such a path at its first
    # non-finite row, so the infinite increment switches its path off there.
    n, m, j0 = 32, 27, 101
    rng = np.random.default_rng(order)
    start = rng.uniform(-1.5, 1.5, (order, m))
    start[0, 4::9] = 0.0
    start[:, 7::9] = math.inf
    start[:, 8::9] = math.nan
    anchors = np.vstack([rng.uniform(-1.5, 1.5, (2, m)), (j0 - rng.integers(1, 9, m)) * _H])
    inc = rng.standard_normal((n, m)) * math.sqrt(_H)
    inc[6, 5::9] = math.inf
    stop_idx = np.full(m, 2**20, dtype=np.int64)
    held = np.zeros(m, dtype=bool)
    for first in (1, 7, 8):
        stop_idx[first::9] = j0 - 1 - np.arange(3)
        held[first::9] = True
    stop_idx[2::9] = j0 + np.array([0, 5, n - 2])
    stop_idx[3::9] = j0 + n - 1
    stop_idx[5::9] = j0 + 6
    exact = scheme is Scheme.DRIFT_EXACT_EM
    given = [a.copy() for a in (inc, start, anchors, stop_idx)]

    stacked_c, end_c = np.empty((n, order, m)), np.empty((3, m))
    integrator._kernel(m, order, n, inc.ctypes.data, j0, _H, 0.9, exact, stop_idx.ctypes.data,
                       start.ctypes.data, anchors.ctypes.data, stacked_c.ctypes.data,
                       end_c.ctypes.data, np.empty(m).ctypes.data)
    for live, cols in ((m, slice(None)), (m - held.sum(), ~held)):
        # with `live` the paths not held, the rows may move a held path's
        # anchor, which is never read again
        stacked, end = np.empty((n, order, m)), np.empty((3, m))
        with np.errstate(all="ignore"):
            integrator._step_rows(inc, j0, _H, 0.9, exact, start, anchors, stop_idx, stacked,
                                  end, live)
        assert stacked.tobytes() == stacked_c.tobytes()
        assert end[:, cols].tobytes() == end_c[:, cols].tobytes()
    for a, b in zip(given, (inc, start, anchors, stop_idx)):
        assert a.tobytes() == b.tobytes()
    assert not np.isfinite(stacked_c[6:, -1, 5::9]).any()
    # a path's last coordinate stays put from the row of its stop index on
    for p in np.flatnonzero(~held & (stop_idx < j0 + n - 1)):
        r = stop_idx[p] - j0
        assert stacked_c[r:, -1, p].tobytes() == np.repeat(stacked_c[r, -1, p], n - r).tobytes()
