import numpy as np
import pytest

from chainsde.core import ChainState, SystemParams
from chainsde.integrator import SolveConfig, solve, solve_ensemble
from chainsde.noise import generate, path_seed
from chainsde.stopping import CaseKind, CaseLabel, StoppingBand, classify, detect_Tn, guaranteed_window


def state(y, z):
    return ChainState(0.0, (0.0, y, z))


class TestBandArithmetic:
    def test_window_inequality_exact_in_floating_point(self):
        # 2^n (t0n + t0n^2/2) <= 2^-n holds exactly for n = 1..20
        for n in range(1, 21):
            b = StoppingBand(n)
            t0 = b.t0n
            assert t0 == 2.0 ** (-2 * n) / 2.0
            assert b.outer * (t0 + t0 * t0 / 2.0) <= b.inner

    def test_radii(self):
        b = StoppingBand(3)
        assert b.inner == 0.125 and b.outer == 8.0
        assert b.inner < b.outer
        with pytest.raises(ValueError):
            StoppingBand(0)

    def test_window_is_far_below_two(self):
        # sanity only: the window never approaches the coarse cap of 2
        assert all(StoppingBand(n).t0n <= 0.125 < 2.0 for n in range(1, 21))


class TestClassify:
    def test_case_i(self):
        assert classify(state(1.0, 0.0), 1) == CaseLabel(CaseKind.CASE_I)

    def test_case_ii(self):
        assert classify(state(1.0, -0.75), 1) == CaseLabel(CaseKind.CASE_II)

    def test_case_iii(self):
        assert classify(state(1.0, 0.75), 1) == CaseLabel(CaseKind.CASE_III)

    def test_case_iv_both_signs(self):
        assert classify(state(0.0, 0.6), 1) == CaseLabel(CaseKind.CASE_IV_ZPOS)
        assert classify(state(0.0, -0.6), 1) == CaseLabel(CaseKind.CASE_IV_ZNEG)

    def test_boundary_tie_goes_to_case_i(self):
        assert classify(state(1.0, 0.5), 1).kind is CaseKind.CASE_I
        assert classify(state(1.0, -0.5), 1).kind is CaseKind.CASE_I

    def test_reflected_starts(self):
        lab = classify(state(-1.0, 0.75), 1)
        assert lab == CaseLabel(CaseKind.CASE_II, reflected=True)
        assert lab.uses_reflected_frame

    def test_errors(self):
        with pytest.raises(ValueError):
            classify(ChainState(0.0, (0.1, 1.0, 0.0)), 1)
        with pytest.raises(ValueError):
            classify(state(0.25, 0.25), 1)  # inside the inner band
        with pytest.raises(ValueError):
            classify(ChainState(0.0, (0.0, 1.0)), 1)  # chain order 2

    def test_reflection_equivariance(self):
        rng = np.random.default_rng(3)
        n = 2
        count = 0
        for _ in range(500):
            y = float(rng.uniform(-2, 2))
            z = float(rng.uniform(-2, 2))
            s = state(y, z)
            try:
                lab = classify(s, n)
            except ValueError:
                continue
            count += 1
            assert classify(s.reflected(), n) == lab.reflected_label()
        assert count > 300

    def test_total_on_precondition_domain(self):
        rng = np.random.default_rng(4)
        n = 3
        for _ in range(500):
            y = float(rng.uniform(-2, 2))
            z = float(rng.uniform(-2, 2))
            if max(abs(y), abs(z)) <= 2.0**-n:
                continue
            lab = classify(state(y, z), n)
            assert isinstance(lab.kind, CaseKind)


class TestGuaranteedWindow:
    def test_case_i_window(self):
        lab = CaseLabel(CaseKind.CASE_I)
        assert guaranteed_window(lab, state(1.0, 0.0), 2) == 0.03125  # 2^-4 / 2

    def test_case_ii_window_takes_min(self):
        lab = CaseLabel(CaseKind.CASE_II)
        # min(t0n = 0.125, beta / 2^2 = 0.25) = 0.125
        assert guaranteed_window(lab, state(1.0, -0.75), 1) == 0.125
        # beta < 0.5 flips the min to beta / 4
        assert guaranteed_window(lab, state(0.6, -0.75), 1) == 0.125
        assert guaranteed_window(lab, state(0.2, -0.75), 1) == 0.05

    def test_window_vanishes_for_large_n(self):
        lab = CaseLabel(CaseKind.CASE_I)
        assert guaranteed_window(lab, state(1.0, 0.0), 20) == 2.0**-40 / 2.0

    def test_reflected_case_ii_uses_abs_beta(self):
        lab = classify(state(-0.2, 0.75), 1)
        assert lab.kind is CaseKind.CASE_II and lab.reflected
        assert guaranteed_window(lab, state(-0.2, 0.75), 1) == 0.05


class TestDetectTn:
    def _traj(self, coords, alpha=0.9, level=8, T=1.0, zero_noise=True):
        par = SystemParams(alpha, 3, ChainState(0.0, coords))
        cfg = SolveConfig(
            level=level, band_n=1, max_time=T, zero_noise=zero_noise,
            continue_after_stop=True,
        )
        return solve(par, generate(11, T, level), cfg)

    def test_constant_z_never_hits(self):
        # zero noise keeps Z at 2^-n; the level 2^-n / 2 is never reached
        traj = self._traj((0.0, 1.0, 0.5))
        assert detect_Tn(traj, 1) is None

    def test_grid_detection_rule(self):
        from chainsde.integrator import StopReason, Trajectory

        # crossing landing on a grid point is reported at that point
        times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        z = 1.0 - times  # z(0.75) = 0.25, the n=1 level
        coords = np.column_stack([times, np.ones_like(times), z])
        traj = Trajectory(times, coords, StopReason.HORIZON_REACHED, 1.0, 4)
        assert detect_Tn(traj, 1) == 0.75
        # a crossing strictly between grid points reports the next one
        times2 = np.linspace(0.0, 1.0, 11)
        z2 = 1.0 - times2  # passes 0.25 between t = 0.7 and t = 0.8
        coords2 = np.column_stack([times2, np.ones_like(times2), z2])
        traj2 = Trajectory(times2, coords2, StopReason.HORIZON_REACHED, 1.0, 10)
        assert detect_Tn(traj2, 1) == 0.8

    def test_negative_branch_is_symmetric(self):
        from chainsde.integrator import StopReason, Trajectory

        times = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        z = -1.0 + times
        coords = np.column_stack([times, np.ones_like(times), z])
        traj = Trajectory(times, coords, StopReason.HORIZON_REACHED, 1.0, 4)
        assert detect_Tn(traj, 1) == 0.75

    def test_tn_positive_with_probability_one(self):
        # case IV start: Z starts at 1 > 2^-1/2, so Tn > 0 on every path
        par = SystemParams(0.9, 3, ChainState(0.0, (0.0, 0.0, 1.0)))
        cfg = SolveConfig(level=10, band_n=1, max_time=1.0, continue_after_stop=True)
        ens = solve_ensemble(par, cfg, [path_seed(41, i) for i in range(200)])
        for i in range(200):
            tn = detect_Tn(ens.trajectory(i), 1)
            assert tn is None or tn > 0.0
