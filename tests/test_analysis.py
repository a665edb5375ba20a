import math

import numpy as np
import pytest

from chainsde.analysis import (
    InvariantReport,
    check_apriori_bound,
    check_case_bounds,
    convergence_order,
    evaluate_case_bounds,
    excursion_scan,
)
from chainsde.core import ChainState, SystemParams
from chainsde.integrator import SolveConfig, solve, solve_ensemble
from chainsde.noise import generate, path_seed
from chainsde.stopping import CaseKind, CaseLabel, StoppingBand, classify


def params_at(coords, alpha=0.9):
    return SystemParams(alpha, len(coords), ChainState(0.0, coords))


def zero_noise_traj(coords, level=10, T=1.0, n=8, alpha=0.9):
    par = params_at(coords, alpha)
    cfg = SolveConfig(
        level=level, band_n=n, max_time=T, zero_noise=True, continue_after_stop=True
    )
    return solve(par, generate(1, T, level), cfg)


class TestAprioriBounds:
    def test_zero_noise_linear_path(self):
        # |X_t| = t <= 2 (t + t^2/2) for all t
        traj = zero_noise_traj((0.0, 1.0, 0.0), n=1)
        recs = check_apriori_bound(traj, 1)
        assert all(r.passed for r in recs)
        by = {r.inequality: r for r in recs}
        assert by["apriori_x"].margin >= 0.0
        assert by["apriori_y"].margin >= 0.0

    def test_window_bound_arithmetic(self):
        # at t = t0n the growth bound collapses under the inner radius:
        # 2^3 (t + t^2/2) <= 2^-3 for t = 2^-6/2
        n = 3
        band = StoppingBand(n)
        t = band.t0n
        assert t == 2.0**-6 / 2.0
        assert band.outer * (t + t * t / 2.0) <= band.inner

    def test_requires_excursion_start(self):
        traj = zero_noise_traj((0.5, 1.0, 0.0))
        with pytest.raises(ValueError):
            check_apriori_bound(traj, 2)

    def test_margins_scale_with_tolerance_knobs(self):
        traj = zero_noise_traj((0.0, 1.0, 0.0), n=1)
        recs = check_apriori_bound(traj, 1, abs_tol=0.0, step_scale=0.0)
        assert all(r.tol == 0.0 for r in recs)
        assert all(r.passed for r in recs)  # bounds hold with genuine slack here


class TestCaseBounds:
    def test_case_i_zero_noise(self):
        n = 3
        y0 = 2.0**-n + 2.0**-6
        traj = zero_noise_traj((0.0, y0, 0.0), n=n)
        label = classify(ChainState(0.0, (0.0, y0, 0.0)), n)
        assert label.kind is CaseKind.CASE_I
        recs = check_case_bounds(traj, label, n)
        assert all(r.passed for r in recs)
        by = {r.inequality: r for r in recs}
        # Y constant above 2^-n stays above 2^-n/2 with real slack
        assert by["case_y_floor"].margin > 2.0 ** -(n + 1) - 1e-12

    def test_case_iv_zero_noise(self):
        # Y_t = t >= (2^-1/2) t and X_t = t^2/2 >= (2^-1/4) t^2
        traj = zero_noise_traj((0.0, 0.0, 1.0), n=1)
        label = CaseLabel(CaseKind.CASE_IV_ZPOS)
        recs = check_case_bounds(traj, label, 1)
        assert all(r.passed for r in recs)

    def test_reflected_case_checks_negated_frame(self):
        n = 2
        traj = zero_noise_traj((0.0, -1.0, 0.0), n=n)
        label = classify(ChainState(0.0, (0.0, -1.0, 0.0)), n)
        assert label.reflected and label.kind is CaseKind.CASE_I
        recs = check_case_bounds(traj, label, n)
        assert all(r.passed for r in recs)

    def test_label_mismatch_rejected(self):
        traj = zero_noise_traj((0.0, 1.0, 0.0), n=2)
        with pytest.raises(ValueError):
            check_case_bounds(traj, CaseLabel(CaseKind.CASE_IV_ZPOS), 2)

    def test_tn_caps_the_window(self):
        n = 2
        traj = zero_noise_traj((0.0, 0.0, 1.0), n=n)
        label = CaseLabel(CaseKind.CASE_IV_ZPOS)
        full = check_case_bounds(traj, label, n)
        capped = check_case_bounds(traj, label, n, Tn=StoppingBand(n).t0n / 4.0)
        assert capped[0].window == StoppingBand(n).t0n / 4.0
        assert capped[0].window < full[0].window

    def test_case_ii_window_and_floor(self):
        n = 2
        beta = 0.8
        traj = zero_noise_traj((0.0, beta, -0.5), n=n, T=1.0)
        label = classify(ChainState(0.0, (0.0, beta, -0.5)), n)
        assert label.kind is CaseKind.CASE_II
        recs = check_case_bounds(traj, label, n)
        assert all(r.passed for r in recs)
        assert recs[0].window == min(StoppingBand(n).t0n, beta / 2.0 ** (n + 1))


CASE_STARTS = {
    "I": (0.0, 1.0, 0.5 * 2.0**-4),
    "II": (0.0, 1.0, -0.5),
    "III": (0.0, 1.0, 0.5),
    "IV+": (0.0, 0.0, 1.0),
}


class TestEnsembleBounds:
    @pytest.mark.parametrize("name", list(CASE_STARTS))
    @pytest.mark.parametrize("reflect", [False, True])
    def test_noisy_ensembles_pass_fully(self, name, reflect):
        coords = CASE_STARTS[name]
        if reflect:
            coords = tuple(-c for c in coords)
        par = params_at(coords)
        seeds = [path_seed(100, i) for i in range(100)]
        recs = evaluate_case_bounds(par, 4, seeds, 12)
        report = InvariantReport(tuple(recs))
        assert report.all_passed
        assert all(rate == 1.0 for rate in report.pass_rates().values())

    def test_margins_nondecreasing_with_level(self):
        par = params_at(CASE_STARTS["I"])
        seeds = [path_seed(88, i) for i in range(100)]
        med = {}
        for lvl in (10, 12):
            recs = evaluate_case_bounds(par, 4, seeds, lvl)
            by = {}
            for r in recs:
                by.setdefault(r.inequality, []).append(r.margin)
            med[lvl] = {k: float(np.median(v)) for k, v in by.items()}
        for k in med[10]:
            assert med[12][k] >= med[10][k] - 1e-12


class TestExcursionScan:
    def test_single_hit_at_start(self):
        traj = zero_noise_traj((0.0, 1.0, 0.0))
        stats = excursion_scan(traj, 2.0**-8)
        assert stats.count == 1
        assert stats.hit_times[0] == 0.0
        assert stats.min_gap is None

    def test_quadratic_return_gap(self):
        # X = -t + t^2/2 has roots at t = 0 and t = 2 (closed form)
        traj = zero_noise_traj((0.0, -1.0, 1.0), level=10, T=3.0, n=2)
        eps = 2.0**-8
        stats = excursion_scan(traj, eps)
        assert stats.count == 2
        h = 3.0 * 2.0**-10
        assert stats.min_gap == pytest.approx(2.0, abs=2 * (h + eps))

    def test_transversal_crossing_counts_once(self):
        # several consecutive grid points near one crossing collapse
        from chainsde.integrator import StopReason, Trajectory

        times = np.linspace(0.0, 1.0, 101)
        x = times - 0.5  # |x| <= eps on several grid points around 0.5
        coords = np.column_stack([x, np.ones_like(x), np.ones_like(x)])
        traj = Trajectory(times, coords, StopReason.HORIZON_REACHED, 1.0, 100)
        stats = excursion_scan(traj, 0.025)
        assert stats.count == 1

    def test_scan_clips_at_band_stop(self):
        par = params_at((0.0, 0.0, 1.0))
        cfg = SolveConfig(level=10, band_n=4, max_time=8.0)
        ens = solve_ensemble(par, cfg, [path_seed(500, i) for i in range(20)])
        for i in range(20):
            traj = ens.trajectory(i)
            stats = excursion_scan(traj, cfg.origin_tolerance)
            assert stats.count >= 1  # the start itself
            if stats.count > 1:
                assert np.all(stats.gaps > 0.0)
                assert stats.hit_times[-1] <= traj.stop_time

    def test_hit_count_stable_under_refinement(self):
        # doubling the resolution changes the count by <= 1 on >= 95% of paths
        par = params_at((0.0, 0.0, 1.0))
        seeds = [path_seed(77, i) for i in range(100)]
        counts = {}
        for lvl in (12, 13):
            cfg = SolveConfig(level=lvl, band_n=4, max_time=8.0)
            ens = solve_ensemble(par, cfg, seeds)
            counts[lvl] = np.array(
                [excursion_scan(ens.trajectory(i), cfg.origin_tolerance).count for i in range(100)]
            )
        assert np.mean(np.abs(counts[12] - counts[13]) <= 1) >= 0.95


class TestConvergenceOrder:
    def test_zero_noise_reported_exact(self):
        par = params_at((0.0, 1.0, 0.5))
        cfg = SolveConfig(level=8, band_n=8, max_time=1.0, zero_noise=True,
                          continue_after_stop=True)
        res = convergence_order(par, cfg, [6, 8], 12, 10, master_seed=3)
        assert res.all_exact
        assert res.order is None
        assert res.mean_errors == (0.0, 0.0)

    def test_strong_order_above_half_at_alpha_09(self):
        par = params_at((0.0, 1.0, 0.0))
        cfg = SolveConfig(level=10, band_n=8, max_time=0.5)
        res = convergence_order(par, cfg, [8, 10, 12], 16, 200, master_seed=7)
        assert res.order is not None and res.order >= 0.45
        assert res.mean_errors[0] > res.mean_errors[1] > res.mean_errors[2]

    def test_lipschitz_edge_alpha(self):
        # the closest representable exponent to the Lipschitz edge
        par = params_at((0.0, 1.0, 0.0), alpha=math.nextafter(1.0, 0.0))
        cfg = SolveConfig(level=10, band_n=8, max_time=0.5)
        res = convergence_order(par, cfg, [8, 10], 14, 100, master_seed=11)
        assert res.order is not None and res.order >= 0.45

    def test_degenerate_fit_rejected(self):
        par = params_at((0.0, 1.0, 0.0))
        cfg = SolveConfig(level=8, band_n=8, max_time=0.5)
        with pytest.raises(ValueError):
            convergence_order(par, cfg, [8], 12, 10)
        with pytest.raises(ValueError):
            convergence_order(par, cfg, [8, 12], 12, 10)
        with pytest.raises(ValueError):
            convergence_order(par, cfg, [8, 8], 12, 10)


class TestInvariantReport:
    def test_rates_and_margins(self):
        from chainsde.analysis import BoundRecord

        recs = (
            BoundRecord(1, "I", "a", 1.0, 0.5, 1e-9),
            BoundRecord(2, "I", "a", 1.0, -1.0, 1e-9),
            BoundRecord(1, "I", "b", 1.0, 0.1, 1e-9),
        )
        rep = InvariantReport(recs)
        assert rep.pass_rates() == {"a": 0.5, "b": 1.0}
        assert rep.worst_margins() == {"a": -1.0, "b": 0.1}
        assert not rep.all_passed
