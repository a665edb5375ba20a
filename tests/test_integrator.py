import math

import numpy as np
import pytest

from chainsde.core import ChainState, SystemParams, diffusion_coeff, drift_flow
from chainsde.errors import ConfigError
from chainsde.integrator import (
    Scheme,
    SolveConfig,
    StopReason,
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


class TestSharedArithmetic:
    """The public step, drift_flow and diffusion_coeff round as the kernels do."""

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
