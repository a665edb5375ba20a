import math

import numpy as np
import pytest

from chainsde.core import ChainState, SystemParams
from chainsde.coupling import (
    CoupledRun,
    DivergenceTrace,
    InitJitter,
    ResolutionSplit,
    SchemeSplit,
    coupled_ensemble,
    coupled_solve,
    estimate_divergence,
    gronwall_kernel_check,
    kernel_exponent,
)
from chainsde.integrator import SolveConfig
from chainsde.noise import path_seed
from chainsde.stopping import CaseKind, CaseLabel


def params_at(coords, alpha=0.9):
    return SystemParams(alpha, len(coords), ChainState(0.0, coords))


PAR = params_at((0.0, 1.0, 0.0))


class TestPerturbations:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResolutionSplit(10, 10)
        with pytest.raises(ValueError):
            InitJitter(-1e-3)
        with pytest.raises(ValueError):
            InitJitter(math.nan)
        InitJitter(0.0)  # the null coupling is allowed


class TestCoupledSolve:
    def test_null_coupling_bitwise(self):
        cfg = SolveConfig(level=10, band_n=6, max_time=1.0)
        run = coupled_solve(PAR, path_seed(1, 0), InitJitter(0.0), cfg)
        assert np.array_equal(run.traj_a.coords, run.traj_b.coords)
        assert np.all(run.sq_diff == 0.0)
        assert np.all(run.sup_diff == 0.0)

    def test_zero_noise_resolution_split_is_exact(self):
        # the drift is integrated exactly at any resolution
        cfg = SolveConfig(level=12, band_n=6, max_time=1.0, zero_noise=True)
        run = coupled_solve(PAR, 7, ResolutionSplit(12, 16), cfg)
        assert np.all(run.sq_diff == 0.0)

    def test_jitter_divergence_at_zero(self):
        cfg = SolveConfig(level=8, band_n=6, max_time=1.0)
        delta = 1e-3
        run = coupled_solve(PAR, 3, InitJitter(delta), cfg)
        assert run.sq_diff[0] == pytest.approx(delta**2, rel=1e-9)

    def test_scheme_split_starts_equal_then_diverges(self):
        cfg = SolveConfig(level=10, band_n=6, max_time=1.0)
        run = coupled_solve(PAR, 5, SchemeSplit(), cfg)
        assert run.sq_diff[0] == 0.0
        assert run.sq_diff[-1] > 0.0

    def test_resolution_split_common_grid(self):
        cfg = SolveConfig(level=10, band_n=6, max_time=1.0)
        run = coupled_solve(PAR, 9, ResolutionSplit(10, 13), cfg)
        # common grid is the coarser one
        assert run.times.size == run.traj_a.times.size
        assert np.array_equal(run.times, run.traj_a.times)


class TestCoupledEnsemble:
    def test_matches_single_runs_bitwise(self):
        cfg = SolveConfig(level=9, band_n=6, max_time=1.0)
        seeds = [path_seed(11, i) for i in range(5)]
        runs = coupled_ensemble(PAR, seeds, ResolutionSplit(9, 11), cfg)
        for seed, run in zip(seeds, runs):
            single = coupled_solve(PAR, seed, ResolutionSplit(9, 11), cfg)
            assert np.array_equal(run.divergence, single.divergence)

    def test_trace_point_cap(self):
        # (max_trace_points, level) -> points: the finest power-of-two
        # decimation of the grid within the cap
        seeds = [path_seed(13, i) for i in range(3)]
        for cap, level, points in [(257, 12, 257), (4, 8, 3), (100, 8, 65), (1025, 12, 1025)]:
            cfg = SolveConfig(level=level, band_n=6, max_time=1.0)
            runs = coupled_ensemble(PAR, seeds, InitJitter(1e-4), cfg, max_trace_points=cap)
            assert all(run.times.size == points for run in runs)
            assert all(run.times[-1] == 1.0 for run in runs)

    def test_censoring_at_band_stop(self):
        par = params_at((0.0, 0.6, 0.0))
        cfg = SolveConfig(level=10, band_n=1, max_time=4.0)
        seeds = [path_seed(17, i) for i in range(40)]
        runs = coupled_ensemble(par, seeds, InitJitter(1e-6), cfg)
        lengths = {run.times.size for run in runs}
        assert len(lengths) > 1  # some runs stopped early and were censored


class TestDivergenceShrinks:
    @pytest.mark.parametrize("alpha", [0.8, 0.9])
    def test_terminal_divergence_shrinks_with_resolution(self, alpha):
        from chainsde.stopping import StoppingBand

        par = params_at((0.0, 1.0, 0.0), alpha=alpha)
        window = StoppingBand(8).t0n
        seeds = [path_seed(23, i) for i in range(200)]
        terminal = {}
        for la in (10, 12):
            cfg = SolveConfig(level=la, band_n=8, max_time=window)
            runs = coupled_ensemble(par, seeds, ResolutionSplit(la, 16), cfg)
            trace = estimate_divergence(runs)
            terminal[la] = (float(trace.D[-1]), float(trace.stderr[-1]))
        lo, hi = terminal[10], terminal[12]
        assert hi[0] <= lo[0] + 2.0 * math.hypot(lo[1], hi[1])
        assert lo[0] > 0.0


class TestEstimateDivergence:
    def _synthetic(self, values, times=None):
        times = np.arange(len(values), dtype=float) if times is None else times
        xa = np.asarray(values, dtype=float)
        xb = np.zeros_like(xa)
        div = np.column_stack(
            [times, (xa - xb) ** 2, np.maximum.accumulate(np.abs(xa - xb)), (np.abs(xa) - np.abs(xb)) ** 2]
        )
        return CoupledRun(0, InitJitter(0.0), div)

    def test_identical_runs_zero(self):
        runs = [self._synthetic([0.0, 0.0, 0.0]) for _ in range(4)]
        trace = estimate_divergence(runs)
        assert np.all(trace.D == 0.0)
        assert np.all(trace.counts == 4)

    def test_constant_difference(self):
        c = 0.5
        runs = [self._synthetic([c, c, c]) for _ in range(3)]
        trace = estimate_divergence(runs)
        assert np.all(trace.D == c**2)
        assert np.all(trace.stderr == 0.0)

    def test_censored_counts(self):
        runs = [self._synthetic([1.0, 1.0, 1.0, 1.0]), self._synthetic([3.0, 3.0])]
        trace = estimate_divergence(runs)
        assert list(trace.counts) == [2, 2, 1, 1]
        assert trace.D[0] == (1.0 + 9.0) / 2
        assert trace.D[2] == 1.0
        assert trace.M == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_divergence([])

    def test_mismatched_grid_rejected(self):
        a = self._synthetic([1.0, 1.0, 1.0])
        b = self._synthetic([1.0, 1.0, 1.0], times=np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError):
            estimate_divergence([a, b])

    def test_real_ensemble_jitter_initial_value(self):
        cfg = SolveConfig(level=9, band_n=6, max_time=0.25)
        delta = 1e-3
        runs = coupled_ensemble(PAR, [path_seed(19, i) for i in range(100)], InitJitter(delta), cfg)
        trace = estimate_divergence(runs)
        assert trace.D[0] == pytest.approx(delta**2, rel=1e-9)
        assert np.all(trace.D >= 0.0)


class TestGronwallKernel:
    def _const_trace(self, c=2.0, n=33, T=1.0):
        times = np.linspace(0.0, T, n)
        arr = np.full(n, c)
        return DivergenceTrace(
            times=times, D=arr, D_abs=arr.copy(),
            stderr=np.zeros(n), counts=np.full(n, 7, dtype=int), M=7,
        )

    def test_kernel_exponents(self):
        assert kernel_exponent(0.9, CaseKind.CASE_I) == pytest.approx(-0.2)
        assert kernel_exponent(0.9, CaseKind.CASE_II) == pytest.approx(-0.2)
        assert kernel_exponent(0.9, CaseKind.CASE_III) == pytest.approx(-0.4)
        assert kernel_exponent(0.75, CaseKind.CASE_IV_ZPOS) == -1.0

    def test_nonintegrable_flag_boundary(self):
        trace = self._const_trace()
        # alpha = 3/4 exactly: kappa = -1 for cases III/IV, flagged
        chk = gronwall_kernel_check(0.75, CaseKind.CASE_III, trace, 1.0)
        assert not chk.integrable and chk.c_hat is None and chk.kappa == -1.0
        # but integrable for case I at the same alpha
        chk2 = gronwall_kernel_check(0.75, CaseKind.CASE_I, trace, 1.0)
        assert chk2.integrable and chk2.c_hat is not None

    def test_flag_sweep_matches_threshold(self):
        trace = self._const_trace()
        for alpha in (0.5, 0.6, 0.75, 0.76, 0.9):
            for kind in CaseKind:
                chk = gronwall_kernel_check(alpha, kind, trace, 1.0)
                if kind in (CaseKind.CASE_I, CaseKind.CASE_II):
                    assert chk.integrable == (alpha > 0.5)
                else:
                    assert chk.integrable == (alpha > 0.75)

    def test_constant_trace_closed_form(self):
        # kappa = 0 (alpha = 1, case I): K_t = c t and C = 1 / t_1
        c = 2.0
        trace = self._const_trace(c=c, n=33, T=1.0)
        chk = gronwall_kernel_check(1.0, CaseKind.CASE_I, trace, 1.0)
        assert chk.kappa == 0.0
        t1 = trace.times[1]
        assert chk.c_hat == pytest.approx(1.0 / t1, rel=1e-12)

    def test_integrable_case_finite_constant(self):
        trace = self._const_trace()
        chk = gronwall_kernel_check(0.9, CaseKind.CASE_I, trace, 1.0)
        assert chk.kappa == pytest.approx(-0.2)
        assert chk.integrable and math.isfinite(chk.c_hat)

    def test_zero_divergence_reports_zero(self):
        trace = self._const_trace(c=0.0)
        chk = gronwall_kernel_check(0.9, CaseKind.CASE_I, trace, 1.0)
        assert chk.c_hat == 0.0

    def test_window_domain(self):
        trace = self._const_trace(T=0.5)
        with pytest.raises(ValueError):
            gronwall_kernel_check(0.9, CaseKind.CASE_I, trace, 1.0)
        with pytest.raises(ValueError):
            gronwall_kernel_check(0.9, CaseKind.CASE_I, trace, 0.0)
        with pytest.raises(ValueError):
            gronwall_kernel_check(1.5, CaseKind.CASE_I, trace, 0.5)

    def test_case_label_accepted(self):
        trace = self._const_trace()
        chk = gronwall_kernel_check(0.9, CaseLabel(CaseKind.CASE_II, reflected=True), trace, 1.0)
        assert chk.case_kind is CaseKind.CASE_II
