import math

import numpy as np
import pytest

from chainsde import integrator, noise
from chainsde.core import ChainState, SystemParams, diffusion_coeff, drift_flow
from chainsde.errors import ConfigError
from chainsde.integrator import (
    Scheme,
    SolveConfig,
    StopReason,
    Trajectory,
    integrate_block,
    linf_norm,
    solve,
    solve_ensemble,
    step,
)
from chainsde.noise import generate, path_seed


def params_at(coords, alpha=0.9):
    return SystemParams(alpha, len(coords), ChainState(0.0, coords))


class TestLinfNorm:
    def test_examples(self):
        assert linf_norm(ChainState(0.0, (0.3, -0.7, 0.2))) == 0.7
        assert linf_norm(ChainState(0.0, (0.0, 0.0, 0.0))) == 0.0
        assert linf_norm(ChainState(0.0, (-(2.0**5), 0.0, 0.0))) == 2.0**5


class TestStep:
    def test_zero_noise_is_drift_flow(self):
        out = step(ChainState(0.0, (0.0, 1.0, 0.0)), params_at((0.0, 1.0, 0.0)), 0.0, 0.25)
        assert out.coords == (0.25, 1.0, 0.0)

    def test_unit_x_coefficient(self):
        out = step(ChainState(0.0, (1.0, 0.0, 0.0)), params_at((1.0, 0.0, 0.0)), 0.1, 0.5)
        assert out.coords[2] == 0.1  # |1|^0.9 * 0.1

    def test_plain_em_rows(self):
        s = ChainState(0.0, (2.0, 3.0, -1.0))
        out = step(s, params_at((2.0, 3.0, -1.0)), 0.25, 0.5, scheme=Scheme.PLAIN_EM)
        coeff = math.exp(0.9 * math.log(2.0))
        assert out.coords == (2.0 + 0.5 * 3.0, 3.0 + 0.5 * (-1.0), -1.0 + coeff * 0.25)

    def test_order_two(self):
        out = step(ChainState(0.0, (1.0, 2.0)), params_at((1.0, 2.0)), 0.5, 0.25)
        assert out.coords == (1.0 + 0.25 * 2.0, 2.0 + 1.0 * 0.5)

    def test_overflow_flags_blowup(self):
        big = 1e308
        s = ChainState(0.0, (big, big, 0.0))
        out = step(s, params_at((big, big, 0.0)), 0.0, 1.0)
        assert out.blown_up
        assert not math.isfinite(out.coords[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            step(ChainState(0.0, (1.0, 2.0)), params_at((0.0, 1.0, 0.0)), 0.0, 0.1)


class TestSolveConfig:
    def test_origin_eps_must_fit_band(self):
        with pytest.raises(ConfigError):
            SolveConfig(level=8, band_n=4, max_time=1.0, origin_eps=2.0**-3)
        cfg = SolveConfig(level=8, band_n=4, max_time=1.0)
        assert cfg.origin_tolerance == 2.0**-10
        assert cfg.inner_level == 2.0**-4
        assert cfg.outer_level == 2.0**4

    def test_validation(self):
        with pytest.raises(ConfigError):
            SolveConfig(level=-1, band_n=4, max_time=1.0)
        with pytest.raises(ConfigError):
            SolveConfig(level=8, band_n=0, max_time=1.0)
        with pytest.raises(ConfigError):
            SolveConfig(level=8, band_n=4, max_time=0.0)


class TestSolveStops:
    def test_inner_band_at_start(self):
        # l-inf norm 0.125 < 2^-2 at t = 0
        n = 2
        par = params_at((0.0, 0.5 * 2.0**-n, 0.0))
        cfg = SolveConfig(level=6, band_n=n, max_time=1.0)
        traj = solve(par, generate(1, 1.0, 6), cfg)
        assert traj.stop is StopReason.INNER_BAND
        assert traj.stop_time == 0.0
        assert len(traj) == 1

    def test_origin_beats_inner_band(self):
        # inside both the origin tolerance and the inner band: origin wins
        par = params_at((0.0, 2.0**-9, 0.0))
        cfg = SolveConfig(level=6, band_n=2, max_time=1.0)  # eps = 2^-8
        traj = solve(par, generate(1, 1.0, 6), cfg)
        assert traj.stop is StopReason.ORIGIN_HIT

    def test_outer_band_at_start(self):
        par = params_at((0.0, 2.0**3, 0.0))
        cfg = SolveConfig(level=6, band_n=2, max_time=1.0)
        traj = solve(par, generate(1, 1.0, 6), cfg)
        assert traj.stop is StopReason.OUTER_BAND

    def test_zero_noise_reaches_horizon(self):
        # X_t = t stays inside (2^-8, 2^8) so only the horizon stops it
        par = params_at((0.0, 1.0, 0.0))
        cfg = SolveConfig(level=10, band_n=8, max_time=1.0, zero_noise=True)
        traj = solve(par, generate(3, 1.0, 10), cfg)
        assert traj.stop is StopReason.HORIZON_REACHED
        assert traj.stop_time == 1.0
        assert np.all(np.diff(traj.times) > 0)

    def test_outer_band_detected_on_growth(self):
        # zero noise from (0, 0, 1.5): Y = 1.5 t first hits 2^1 at t = 4/3
        par = params_at((0.0, 0.0, 1.5))
        cfg = SolveConfig(level=10, band_n=1, max_time=4.0, zero_noise=True)
        traj = solve(par, generate(3, 4.0, 10), cfg)
        assert traj.stop is StopReason.OUTER_BAND
        # first grid time at which a coordinate leaves the band
        assert traj.stop_time == pytest.approx(4.0 / 3.0, abs=2 * 4.0 * 2.0**-10)


class TestZeroNoiseExactness:
    def test_polynomial_reproduced_to_ulps(self):
        rng = np.random.default_rng(11)
        cfg = SolveConfig(
            level=8, band_n=8, max_time=1.0, zero_noise=True, continue_after_stop=True
        )
        path = generate(0, 1.0, 8)
        for _ in range(25):
            x0, y0, z0 = rng.uniform(-5.0, 5.0, size=3)
            par = params_at((x0, y0, z0))
            traj = solve(par, path, cfg)
            t = traj.times
            wantx = x0 + y0 * t + z0 * (0.5 * (t * t))
            wanty = y0 + z0 * t
            scale = np.abs(x0) + np.abs(y0 * t) + np.abs(0.5 * z0 * t * t) + 1e-30
            assert np.all(np.abs(traj.x - wantx) <= 8.0 * np.spacing(scale))
            assert np.all(np.abs(traj.y - wanty) <= 8.0 * np.spacing(np.abs(y0) + np.abs(z0 * t) + 1e-30))
            assert np.all(traj.z == z0)

    def test_order_two_chain_zero_noise(self):
        par = params_at((1.0, -0.5))
        cfg = SolveConfig(level=8, band_n=8, max_time=1.0, zero_noise=True,
                          continue_after_stop=True)
        traj = solve(par, generate(2, 1.0, 8), cfg)
        t = traj.times
        assert np.all(np.abs(traj.x - (1.0 - 0.5 * t)) <= 8 * np.spacing(1.0 + 0.5 * t))
        assert np.all(traj.y == -0.5)

    def test_plain_em_is_not_drift_exact(self):
        par = params_at((0.0, 0.0, 1.0))
        cfg = SolveConfig(
            level=6, band_n=8, max_time=1.0, zero_noise=True,
            continue_after_stop=True, scheme=Scheme.PLAIN_EM,
        )
        traj = solve(par, generate(0, 1.0, 6), cfg)
        # Euler polygon undershoots X = t^2/2 by O(h)
        err = abs(traj.x[-1] - 0.5)
        assert 1e-4 < err < 0.05


class TestTruncation:
    def _stopping_run(self, scheme=Scheme.DRIFT_EXACT_EM):
        par = params_at((0.0, 0.3, 0.0))
        cfg = SolveConfig(
            level=10, band_n=2, max_time=4.0, continue_after_stop=True, scheme=scheme
        )
        for i in range(50):
            traj = solve(par, generate(path_seed(17, i), 4.0, 10), cfg)
            if traj.band_stopped and traj.stop_index < len(traj) - 1:
                return traj
        raise AssertionError("no band-stopping path found")

    @pytest.mark.parametrize("scheme", [Scheme.DRIFT_EXACT_EM, Scheme.PLAIN_EM])
    def test_z_constant_after_band_stop(self, scheme):
        traj = self._stopping_run(scheme)
        zs = traj.z[traj.stop_index :]
        assert np.all(zs == zs[0])

    def test_no_continuation_truncates(self):
        par = params_at((0.0, 0.3, 0.0))
        cfg = SolveConfig(level=10, band_n=2, max_time=4.0)
        for i in range(50):
            traj = solve(par, generate(path_seed(17, i), 4.0, 10), cfg)
            if traj.band_stopped:
                assert traj.times[-1] == traj.stop_time
                assert len(traj) == traj.stop_index + 1
                return
        raise AssertionError("no band-stopping path found")


class TestScalarVectorConsistency:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("order", [3, 2])
    def test_bitwise_identical(self, order, scheme):
        par = params_at((0.0, 1.0, 0.0)[:order])
        cfg = SolveConfig(level=10, band_n=6, max_time=1.0, scheme=scheme)
        seeds = [path_seed(23, i) for i in range(6)]
        ens = solve_ensemble(par, cfg, seeds)
        for i, s in enumerate(seeds):
            single = solve(par, generate(s, 1.0, 10), cfg)
            full = ens.trajectory(i)
            assert single.stop is full.stop
            assert single.stop_index == full.stop_index
            assert np.array_equal(single.coords, full.coords)

    def test_bitwise_identical_with_stops(self):
        par = params_at((0.0, 0.3, 0.0))
        cfg = SolveConfig(level=9, band_n=2, max_time=4.0, continue_after_stop=True)
        seeds = [path_seed(29, i) for i in range(8)]
        ens = solve_ensemble(par, cfg, seeds)
        for i, s in enumerate(seeds):
            single = solve(par, generate(s, 4.0, 9), cfg)
            full = ens.trajectory(i)
            assert single.stop is full.stop and single.stop_index == full.stop_index
            assert np.array_equal(single.coords, full.coords)


@pytest.mark.usefixtures("numpy_rows")
class TestScalarVectorConsistencyNumpyRows(TestScalarVectorConsistency):
    """The same agreement with the ensemble stepped on numpy rows."""


class TestSharedArithmetic:
    """The public step, drift_flow and diffusion_coeff round as the kernel does."""

    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("order", [3, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_iterated_step_is_solve(self, seed, order, scheme):
        par = params_at((0.0, 1.0, 0.0)[:order])
        # a band this wide stops nothing on [0, 1]
        cfg = SolveConfig(level=8, band_n=30, max_time=1.0, scheme=scheme)
        path = generate(path_seed(41, seed), 1.0, 8)
        traj = solve(par, path, cfg)
        assert traj.stop is StopReason.HORIZON_REACHED
        state = par.initial
        coords = [state.coords]
        for dB in path.increments.tolist():
            state = step(state, par, dB, cfg.grid_step, scheme)
            coords.append(state.coords)
        assert np.array(coords).tobytes() == traj.coords.tobytes()

    def test_diffusion_coeff_is_kernel_coefficient(self):
        # one unit increment from (x, 1, 0) leaves z = |x|^alpha * 1 exactly
        rng = np.random.default_rng(19)
        n = 10_000
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 12.0, n)
        x[:2] = (0.0, -0.0)
        par = SystemParams(0.85, 3, ChainState(0.0, (1.0, 1.0, 0.0)))
        cfg = SolveConfig(level=0, band_n=60, max_time=1.0)
        init = np.column_stack([x, np.ones(n), np.zeros(n)])
        ens = integrate_block(par, cfg, np.ones((n, 1)), initial_coords=init)
        kernel = ens.coords[:, 1, 2]
        want = np.array([diffusion_coeff(v, par.alpha) for v in x.tolist()])
        assert want.tobytes() == kernel.tobytes()
        assert kernel[0] == 0.0 and kernel[1] == 0.0

    def test_drift_flow_is_zero_noise_step(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            h = float(rng.uniform(1e-6, 2.0))
            for order in (2, 3):
                s = ChainState(0.0, tuple(rng.uniform(-5.0, 5.0, order).tolist()))
                want = step(s, params_at(s.coords), 0.0, h)
                assert drift_flow(s, h) == want


class TestSelfConvergence:
    def test_coarse_vs_fine_same_noise(self):
        # same Brownian family at levels 12 and 20: sup|X difference| small
        par = params_at((0.0, 1.0, 0.0))
        base = generate(1234, 0.5, 12)
        cfg12 = SolveConfig(level=12, band_n=8, max_time=0.5)
        cfg20 = SolveConfig(level=20, band_n=8, max_time=0.5)
        t12 = solve(par, base, cfg12)
        t20 = solve(par, base, cfg20)
        assert t12.stop is StopReason.HORIZON_REACHED
        assert t20.stop is StopReason.HORIZON_REACHED
        sup = np.max(np.abs(t12.x - t20.x[:: 2**8]))
        assert sup <= 1e-2


class TestStopMonotonicity:
    def test_wider_band_stops_no_earlier(self):
        # tau_n <= tau_m for n < m on every shared path
        par = params_at((0.0, 0.6, 0.0))
        seeds = [path_seed(31, i) for i in range(1000)]
        idx = {}
        for n in (1, 3):
            cfg = SolveConfig(level=10, band_n=n, max_time=4.0)
            idx[n] = solve_ensemble(par, cfg, seeds).stop_indices
        assert np.any(idx[1] < idx[3])  # the comparison is not vacuous
        assert np.all(idx[1] <= idx[3])


class TestResolutionStability:
    def test_origin_hit_fraction_consistent_across_grids(self):
        # (0, 1, 0), n = 8, T = 1: origin hits are rare events whose
        # frequency estimate must agree across resolutions within 3%
        par = params_at((0.0, 1.0, 0.0))
        seeds = [path_seed(53, i) for i in range(300)]
        fracs = {}
        for lvl in (10, 12):
            cfg = SolveConfig(level=lvl, band_n=8, max_time=1.0)
            ens = solve_ensemble(par, cfg, seeds)
            fracs[lvl] = (ens.stop_reasons == int(StopReason.ORIGIN_HIT)).mean()
        assert abs(fracs[10] - fracs[12]) <= 0.03

    def test_band_stop_fraction_consistent_across_grids(self):
        # the inner-band hit fraction is a random event whose estimate
        # must be stable under grid refinement
        par = params_at((0.0, 0.6, 0.0))
        seeds = [path_seed(37, i) for i in range(1000)]
        fracs = {}
        for lvl in (10, 12):
            cfg = SolveConfig(level=lvl, band_n=1, max_time=4.0)
            ens = solve_ensemble(par, cfg, seeds)
            fracs[lvl] = (ens.stop_reasons == int(StopReason.INNER_BAND)).mean()
        assert fracs[10] > 0.05  # the experiment is not vacuous
        assert abs(fracs[10] - fracs[12]) <= 0.03


class TestEnsembleApi:
    def test_record_stride(self):
        par = params_at((0.0, 1.0, 0.0))
        cfg = SolveConfig(level=8, band_n=8, max_time=1.0)
        ens = solve_ensemble(par, cfg, [path_seed(0, i) for i in range(3)], record_stride=4)
        assert ens.times.size == 65
        assert ens.coords.shape == (3, 65, 3)
        with pytest.raises(ValueError):
            ens.trajectory(0)

    def test_stride_must_divide(self):
        par = params_at((0.0, 1.0, 0.0))
        cfg = SolveConfig(level=8, band_n=8, max_time=1.0)
        with pytest.raises(ValueError):
            solve_ensemble(par, cfg, [1], record_stride=3)

    def test_initial_override(self):
        par = params_at((0.0, 1.0, 0.0))
        cfg = SolveConfig(level=6, band_n=8, max_time=1.0, zero_noise=True)
        init = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
        ens = solve_ensemble(par, cfg, [1, 2], initial_coords=init)
        assert ens.coords[1, -1, 0] == pytest.approx(2.0, rel=1e-12)

    def test_horizon_shorter_than_path(self):
        par = params_at((0.0, 1.0, 0.0))
        path = generate(5, 1.0, 8)
        cfg = SolveConfig(level=8, band_n=8, max_time=0.5)
        traj = solve(par, path, cfg)
        assert traj.times[-1] == 0.5
        with pytest.raises(ValueError):
            solve(par, generate(5, 0.25, 8), SolveConfig(level=8, band_n=8, max_time=0.5))

    def test_increments_shape_errors(self):
        par = params_at((0.0, 1.0, 0.0))
        cfg = SolveConfig(level=3, band_n=8, max_time=1.0)
        with pytest.raises(ValueError):
            integrate_block(par, cfg, np.zeros(8))
        with pytest.raises(ValueError):
            integrate_block(par, cfg, np.zeros((2, 8)), initial_coords=np.zeros((3, 3)))

    def test_trajectory_validation(self):
        times = np.linspace(0.0, 1.0, 5)
        Trajectory(times, np.zeros((5, 2)), StopReason.HORIZON_REACHED, 1.0, 4)
        bad = [
            np.zeros(5),  # 1-D
            np.zeros((4, 3)),  # one row short
            np.zeros((5, 1)),  # one column
            np.zeros((5, 4)),  # four columns
        ]
        for coords in bad:
            with pytest.raises(ValueError, match="2 or 3 coordinates"):
                Trajectory(times, coords, StopReason.HORIZON_REACHED, 1.0, 4)
        with pytest.raises(ValueError, match="terminal stop"):
            Trajectory(times, np.zeros((5, 3)), StopReason.NONE, 1.0, 4)


_H = 2.0**-8  # grid step of the sub-block cases: T = 1, level 8


def _outer_at(k):
    """A start whose drift reaches the outer band 2^1 exactly at step k."""
    return (2.0 - k * _H, 1.0, 0.0)


def _inner_at(k):
    """A start whose drift reaches the inner band 2^-1 exactly at step k."""
    return (0.5 + k * _H * 0.25, -0.25, 0.0)


def _one_path_solves_match_rows(par, cfg, inc, init, stride=1):
    """Every row of the ensemble result is bitwise that row solved alone,
    which the kernel steps on floats."""
    ens = integrate_block(par, cfg, inc, initial_coords=init, record_stride=stride)
    for i in range(inc.shape[0]):
        one = integrate_block(par, cfg, inc[i : i + 1], initial_coords=init[i : i + 1],
                              record_stride=stride)
        assert one.coords.tobytes() == ens.coords[i : i + 1].tobytes(), i
        assert one.stop_reasons[0] == ens.stop_reasons[i], i
        assert one.stop_indices[0] == ens.stop_indices[i], i
    return ens


def count_steps(monkeypatch):
    """A list that grows by one per step taken: `_advance` calls of the
    Python bodies and the steps asked of the compiled one."""
    advance, kernel = integrator._advance, integrator._kernel
    calls = []

    def counted(*args):
        calls.append(None)
        return advance(*args)

    def counted_kernel(m, d, n, *args):
        calls.extend([None] * n)
        return kernel(m, d, n, *args)

    monkeypatch.setattr(integrator, "_advance", counted)
    if kernel is not None:
        monkeypatch.setattr(integrator, "_kernel", counted_kernel)
    return calls


class TestSubBlockEdges:
    """Stops and records at the edges of the lockstep kernel's sub-blocks."""

    @pytest.fixture(params=[1, 3, 32, 64], autouse=True)
    def sub(self, request, monkeypatch):
        monkeypatch.setattr(integrator, "_SUB", request.param)
        return request.param

    def _case(self, stops, n_noisy, steps=256, order=3, seed=0):
        """Rows stopping at the given steps, then noisy rows.

        The stopping rows draw increments of 1e-30: too small to move x or
        y, so they stop on time, but z keeps changing until the noise is
        switched off at the stop.
        """
        rng = np.random.default_rng(seed)
        starts = [_outer_at(k) if i % 2 else _inner_at(k) for i, k in enumerate(stops)]
        starts += [(0.0, 1.0, 0.0)] * n_noisy
        init = np.array(starts)[:, :order]
        inc = rng.standard_normal((len(starts), steps)) * math.sqrt(_H)
        inc[: len(stops)] = 1e-30
        return params_at((0.0, 1.0, 0.0)[:order]), init, inc

    @pytest.mark.parametrize("cont", [False, True])
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    @pytest.mark.parametrize("order", [3, 2])
    def test_stops_at_sub_block_edges(self, order, scheme, cont):
        # step 0; the first and last steps of sub-blocks of 1, 3, 32 and
        # 64; several stops in one sub-block; noisy rows stopping anywhere
        stops = [0, 1, 2, 3, 4, 6, 7, 31, 32, 33, 63, 64, 65, 127, 128, 129,
                 200, 200, 201, 201, 202]
        par, init, inc = self._case(stops, n_noisy=12, order=order)
        cfg = SolveConfig(level=8, band_n=1, max_time=1.0, scheme=scheme,
                          continue_after_stop=cont)
        for stride in (1, 4):
            ens = _one_path_solves_match_rows(par, cfg, inc, init, stride)
        assert ens.stop_indices[: len(stops)].tolist() == stops
        assert set(ens.stop_reasons[: len(stops)].tolist()) == {
            StopReason.OUTER_BAND, StopReason.INNER_BAND}

    _ALL_STOPPED = [5, 70, 33, 70, 34, 1, 99]  # the last stop falls mid-block

    @pytest.mark.parametrize("cont", [False, True])
    def test_every_path_stopped_mid_block(self, cont):
        stops = self._ALL_STOPPED
        # 260 steps, so that strides 4 and 5 both divide the step count
        par, init, inc = self._case(stops, n_noisy=0, steps=260)
        cfg = SolveConfig(level=8, band_n=1, max_time=1.0, continue_after_stop=cont)
        ens = _one_path_solves_match_rows(par, cfg, inc, init)
        assert ens.stop_indices.tolist() == stops
        for stride in (4, 5):
            strided = _one_path_solves_match_rows(par, cfg, inc, init, stride)
            assert strided.stop_indices.tolist() == stops
            assert strided.coords.tobytes() == ens.coords[:, ::stride].tobytes()
        if not cont:
            # a held path's records after its stop hold its stop state
            for i, k in enumerate(stops):
                assert np.all(ens.coords[i, k:] == ens.coords[i, k])

    def test_fully_held_solve_stops_stepping(self, monkeypatch, sub):
        calls = count_steps(monkeypatch)
        stops = self._ALL_STOPPED
        par, init, inc = self._case(stops, n_noisy=0, steps=260)
        cfg = SolveConfig(level=8, band_n=1, max_time=1.0)
        # every path is held by step 99: at most the sub-block holding that
        # step is stepped on, and a single path stops at its own stop
        for rows, last_stop in ((slice(None), max(stops)), (slice(5, 6), stops[5])):
            calls.clear()
            ens = integrate_block(par, cfg, inc[rows], initial_coords=init[rows])
            assert ens.stop_indices.tolist() == stops[rows]
            assert len(calls) < last_stop + 2 * sub

    def test_sub_block_is_stepped_at_most_twice(self, monkeypatch, sub):
        # three paths stop at steps 3, 10 and 20 and evolve on: each
        # sub-block holding such a stop is stepped once more, whatever the
        # number of stops in it
        calls = count_steps(monkeypatch)
        stops = [3, 10, 20]
        par, init, inc = self._case(stops, n_noisy=4, steps=64)
        cfg = SolveConfig(level=8, band_n=1, max_time=1.0, continue_after_stop=True)
        ens = integrate_block(par, cfg, inc, initial_coords=init)
        assert ens.stop_indices[:3].tolist() == stops
        stepped_again = {(s - 1) // sub for s in stops}
        assert len(calls) <= 64 + sub * len(stepped_again)

    def test_blowup_after_band_stop_continues(self):
        # row 0 leaves the band at step 0 and overflows as it drifts on;
        # row 1 blows up while active (an infinite increment) and freezes;
        # row 2 stops in the band the step before its infinite increment,
        # which the switched-off noise then ignores; the rest stop in the
        # band or run on with noise
        par, init, inc = self._case([3, 40, 41], n_noisy=8)
        init = np.vstack([[0.0, 1e308, 1e308], [0.0, 1.0, 0.0], init])
        inc = np.vstack([np.zeros((1, 256)), np.full((1, 256), 1e-3), inc])
        inc[1, 39] = math.inf  # the increment of step 40
        inc[2, 3] = math.inf  # the increment of step 4, after the stop at 3
        cfg = SolveConfig(level=8, band_n=1, max_time=1.0, continue_after_stop=True)
        ens = _one_path_solves_match_rows(par, cfg, inc, init)
        assert ens.stop_reason(0) is StopReason.OUTER_BAND and ens.stop_indices[0] == 0
        assert not np.all(np.isfinite(ens.coords[0, -1]))
        assert ens.stop_reason(1) is StopReason.BLOWUP and ens.stop_indices[1] == 40
        assert ens.stop_indices[2:5].tolist() == [3, 40, 41]

    @pytest.mark.parametrize("steps, stride", [(100, 1), (100, 4), (100, 5), (7, 7)])
    def test_matrix_width_not_a_multiple_of_sub(self, steps, stride):
        par, init, inc = self._case([0, 6, 50, 99], n_noisy=6, steps=steps)
        cfg = SolveConfig(level=8, band_n=1, max_time=1.0, continue_after_stop=True)
        _one_path_solves_match_rows(par, cfg, inc, init, stride)

    @pytest.mark.parametrize("width", [2, 8, 16])
    def test_stream_blocks_narrower_than_sub(self, monkeypatch, width):
        # the stream yields blocks of `width` steps; sub-blocks end with them
        seeds = [path_seed(61, i) for i in range(8)]
        monkeypatch.setattr(noise, "_BLOCK_CELLS", len(seeds) * width)
        par = params_at((0.0, 0.6, 0.0))
        cfg = SolveConfig(level=8, band_n=1, max_time=4.0)
        ens = solve_ensemble(par, cfg, seeds)
        assert len(set(ens.stop_indices.tolist())) > 2
        for i, s in enumerate(seeds):
            single = solve(par, generate(s, 4.0, 8), cfg)
            assert single.stop_index == ens.stop_indices[i]
            assert single.coords.tobytes() == ens.trajectory(i).coords.tobytes()


@pytest.mark.usefixtures("numpy_rows")
class TestSubBlockEdgesNumpyRows(TestSubBlockEdges):
    """The same edges with two or more paths stepped on numpy rows."""
