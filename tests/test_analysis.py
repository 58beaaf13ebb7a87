"""Closed-form predictors, estimators, and deviation bounds."""

import math

import numpy as np
import pytest
from scipy import stats as scistats

from speccast import kernels
from speccast import rng as rngmod
from speccast.analysis import (
    AcceptanceEstimate,
    CostModel,
    PredictorReport,
    block_length_pmf,
    dependence_interval,
    deviation_bounds,
    estimate_alpha,
    expected_block_length,
    horizon_tv_bound,
    lossless_worthwhile,
    ops_factor,
    select_gamma,
    speedup_wall,
)
from speccast.prob import GaussianHead, GridSpec, overlap_closed_form


class TestBlockLengthPmf:
    def test_perfect_acceptance_point_mass(self):
        np.testing.assert_array_equal(block_length_pmf(1.0, 3), [0, 0, 0, 1])

    def test_zero_acceptance_point_mass(self):
        np.testing.assert_array_equal(block_length_pmf(0.0, 3), [1, 0, 0, 0])

    def test_half_acceptance_gamma_two(self):
        np.testing.assert_allclose(block_length_pmf(0.5, 2), [0.5, 0.25, 0.25], atol=1e-15)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a = rng.uniform(0, 1)
            gamma = int(rng.integers(1, 40))
            pmf = block_length_pmf(a, gamma)
            assert abs(pmf.sum() - 1.0) <= 1e-12
            assert np.all(pmf >= 0)

    def test_matches_bernoulli_simulation(self):
        # 10^6 simulated rounds as the Monte Carlo oracle
        alpha, gamma = 0.7, 4
        u = rngmod.stream(101).random((1_000_000, gamma))
        # equal accept rates in both chain states: the i.i.d. law
        lengths = kernels.block_lengths_markov(u, u, 0.5, alpha, alpha, 0.5, 0.5)
        counts = np.bincount(lengths, minlength=gamma + 2)[1:]
        expected = block_length_pmf(alpha, gamma) * len(lengths)
        chi = scistats.chisquare(counts, f_exp=expected)
        assert chi.pvalue > 0.01

    def test_domain(self):
        with pytest.raises(ValueError):
            block_length_pmf(1.5, 3)
        with pytest.raises(ValueError):
            block_length_pmf(0.5, 0)


class TestExpectedBlockLength:
    def test_zero_acceptance(self):
        assert expected_block_length(0.0, 7) == 1.0

    def test_perfect_acceptance_continuous_extension(self):
        assert expected_block_length(1.0, 3) == 4.0
        assert expected_block_length(1.0, 64) == 65.0

    def test_formula_values(self):
        # direct evaluations of (1 - a^(g+1)) / (1 - a)
        assert expected_block_length(0.9625, 3) == pytest.approx(3.7805723, abs=1e-6)
        assert expected_block_length(0.9133, 3) == pytest.approx(3.5092165, abs=1e-6)
        assert expected_block_length(0.5, 2) == pytest.approx(1.75, abs=1e-12)

    def test_equals_pmf_expectation(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = rng.uniform(0, 1)
            gamma = int(rng.integers(1, 50))
            pmf = block_length_pmf(a, gamma)
            dot = float(pmf @ np.arange(1, gamma + 2))
            assert abs(dot - expected_block_length(a, gamma)) <= 1e-10

    def test_near_one_stability(self):
        assert expected_block_length(1 - 1e-13, 10) == pytest.approx(11.0, abs=1e-9)


class TestSpeedupWall:
    def test_table_style_values(self):
        assert speedup_wall(1.0, 3, 0.244) == pytest.approx(2.309469, abs=1e-6)
        assert speedup_wall(0.973, 3, 0.285) == pytest.approx(2.070564, abs=1e-6)

    def test_large_cost_kills_speedup(self):
        assert speedup_wall(0.9, 4, 1e9) < 1e-8

    def test_identity_with_block_length(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = rng.uniform(0, 1)
            gamma = int(rng.integers(1, 30))
            c = rng.uniform(0.01, 2.0)
            lhs = speedup_wall(a, gamma, c) * (c * gamma + 1)
            assert lhs == pytest.approx(expected_block_length(a, gamma), abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            speedup_wall(0.5, 3, 0.0)


class TestOpsFactor:
    def test_self_speculation_overhead(self):
        assert ops_factor(1.0, 3, 0.25) == pytest.approx(1.1875, abs=1e-12)

    def test_half_acceptance(self):
        assert ops_factor(0.5, 3, 0.25) == pytest.approx(4.75 / 1.875, abs=1e-12)

    def test_ideal_limit(self):
        assert ops_factor(1.0, 1, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_matches_trace_pass_accounting(self):
        # self-speculation: gamma c_hat + gamma + 1 equivalents per gamma+1 outputs
        from speccast.engine import DecodeConfig, decode
        from speccast.models import History, persistence_model

        target = persistence_model(patch_len=1, sigma=1.0)
        h0 = History.from_patches(np.zeros((1, 1)), 1)
        cfg = DecodeConfig(
            variant="practical", horizon_patches=40, seed=0, gamma=3,
            sigma_target=1.0, sigma_draft=1.0,
        )
        _, trace = decode(target, target, h0, cfg)
        c_hat = 0.25
        measured = (c_hat * trace.totals.draft_passes + trace.totals.target_passes) / (
            trace.totals.patches_emitted
        )
        assert measured == pytest.approx(ops_factor(1.0, 3, c_hat), abs=1e-12)


class TestSelectGamma:
    def test_perfect_acceptance_maxes_out(self):
        choice = select_gamma(1.0, 0.3, 32)
        assert choice.gamma_rule == 32
        assert choice.gamma_scan == 32

    def test_unprofitable_speculation(self):
        choice = select_gamma(0.3, 0.9, 64)
        assert choice.gamma_scan == 1
        assert choice.gamma_rule == 1

    def test_rule_tracks_scan_on_grid(self):
        for a in np.linspace(0.05, 0.99, 20):
            for c in np.linspace(0.05, 1.1, 25):
                choice = select_gamma(float(a), float(c), 64)
                assert abs(choice.gamma_rule - choice.gamma_scan) <= 1

    def test_scan_is_argmax(self):
        a, c = 0.9, 0.2
        choice = select_gamma(a, c, 64)
        speeds = [speedup_wall(a, g, c) for g in range(1, 65)]
        assert choice.gamma_scan == int(np.argmax(speeds)) + 1


class TestLosslessWorthwhile:
    def test_boundary_false(self):
        assert lossless_worthwhile(0.95, 10) is False  # 0.05 < 0.1

    def test_true_case(self):
        assert lossless_worthwhile(0.5, 4) is True  # 0.5 >= 0.25

    def test_perfect_acceptance_never(self):
        for gamma in (1, 2, 8, 64):
            assert lossless_worthwhile(1.0, gamma) is False


class TestDependenceInterval:
    def test_degenerate(self):
        lo, hi = dependence_interval(0.8, 0.8, 5)
        assert lo == hi == expected_block_length(0.8, 5)

    def test_extreme_bounds(self):
        assert dependence_interval(0.0, 1.0, 3) == (1.0, 4.0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            dependence_interval(0.9, 0.5, 3)

    def test_markov_simulation_inside(self):
        gamma = 5
        a0, a1, t01, t10 = 0.8, 0.95, 0.4, 0.5
        pi1 = t01 / (t01 + t10)
        gen = rngmod.stream(404)
        u_accept = gen.random((200_000, gamma))
        u_state = gen.random((200_000, gamma))
        lengths = kernels.block_lengths_markov(u_accept, u_state, pi1, a0, a1, t01, t10)
        lo, hi = dependence_interval(a0, a1, gamma)
        assert lo <= lengths.mean() <= hi


class TestHorizonTvBound:
    def test_zero_deltas(self):
        hb = horizon_tv_bound([0.0, 0.0, 0.0])
        assert hb.bound == 0.0
        assert hb.sum_bound == 0.0

    def test_example_values(self):
        hb = horizon_tv_bound([0.1, 0.1])
        assert hb.bound == pytest.approx(0.19, abs=1e-12)
        assert hb.sum_bound == pytest.approx(0.2, abs=1e-12)

    def test_product_below_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            deltas = rng.uniform(0, 1, rng.integers(1, 15))
            hb = horizon_tv_bound(deltas)
            assert hb.bound <= hb.sum_bound + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            horizon_tv_bound([0.5, 1.2])


class TestCostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(c=0.0, c_hat=0.3)
        with pytest.raises(ValueError):
            CostModel(c=0.3, c_hat=float("inf"))
        with pytest.raises(ValueError):
            CostModel(c=0.3, c_hat=0.3, source="vibes")

    def test_roundtrip(self):
        cm = CostModel(c=0.3, c_hat=0.25, source="measured", n_timed_passes=100)
        assert CostModel.from_dict(cm.to_dict()) == cm


class TestEstimateAlpha:
    def test_identical_heads(self):
        h = GaussianHead.isotropic([0.0, 1.0], 0.7)
        est = estimate_alpha([(h, h)] * 12)
        assert est.alpha_bar_hat == pytest.approx(1.0, abs=1e-12)
        assert est.n_histories == 12
        assert est.mc_per_history is None

    def test_radius_formulas(self):
        closed = AcceptanceEstimate(0.5, 128, None, "closed_form")
        assert closed.radius(0.05) == pytest.approx(math.sqrt(math.log(40) / 256), abs=1e-12)
        two_stage = AcceptanceEstimate(0.5, 128, 16, "monte_carlo")
        assert two_stage.radius(0.05) == pytest.approx(
            math.sqrt(math.log(40) / (2 * 128 * 16)), abs=1e-12
        )

    def test_tail_bound_arithmetic(self):
        est = AcceptanceEstimate(0.5, 5000, 1, "monte_carlo")
        assert est.tail_bound(0.05) == pytest.approx(2 * math.exp(-25), rel=1e-12)
        assert est.tail_bound(0.05) == pytest.approx(2.8e-11, rel=0.05)

    def test_monte_carlo_unbiased(self):
        # mean over replications within 3 SE of the closed-form overlap
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([1.0], 1.0)
        truth = overlap_closed_form(p, q)
        gen = rngmod.stream(911)
        reps = 10_000
        estimates = np.empty(reps)
        for r in range(reps):
            estimates[r] = estimate_alpha(
                [(p, q)] * 4, mode="monte_carlo", mc_per_history=2, rng=gen
            ).alpha_bar_hat
        se = estimates.std(ddof=1) / math.sqrt(reps)
        assert abs(estimates.mean() - truth) <= 3 * se

    def test_closed_form_needs_equal_variance(self):
        p = GaussianHead(np.array([0.0]), np.array([1.0]))
        q = GaussianHead(np.array([0.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            estimate_alpha([(p, q)])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            estimate_alpha([])


class TestDeviationBounds:
    def test_identical_heads(self):
        p = GaussianHead.isotropic([0.0], 1.0)
        b = deviation_bounds(p, p)
        assert b.alpha_bar == pytest.approx(1.0, abs=1e-9)
        assert b.tv_numeric_1d == pytest.approx(0.0, abs=1e-9)

    def test_unit_gap_bound(self):
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([1.0], 1.0)
        b = deviation_bounds(p, q)
        assert b.alpha_bar == pytest.approx(overlap_closed_form(p, q), abs=1e-7)
        assert b.tv_numeric_1d <= b.alpha_bar
        assert b.tv_numeric_1d <= b.pinsker_tv + 1e-6
        assert b.kl_bound_1d >= 0.0

    def test_far_heads_both_collapse(self):
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([10.0], 1.0)
        b = deviation_bounds(p, q)
        assert b.alpha_bar <= 1e-6
        assert b.tv_numeric_1d <= 1e-6

    def test_tolerance_relaxation_raises_alpha(self):
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([1.0], 1.0)
        strict = deviation_bounds(p, q, tolerance_lambda=1.0)
        relaxed = deviation_bounds(p, q, tolerance_lambda=4.0)
        assert relaxed.alpha_bar > strict.alpha_bar
        assert relaxed.tv_numeric_1d <= relaxed.alpha_bar

    def test_grid_must_cover_both_heads(self):
        # a grid that misses most of one head's mass would undercount every
        # integral, so it is refused and names the head it misses
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([30.0], 1.0)
        with pytest.raises(ValueError, match=r"covers only 0\.000000 of q"):
            deviation_bounds(p, q, grid=GridSpec(lo=-8.0, hi=8.0))
        with pytest.raises(ValueError, match=r"covers only 0\.500000 of p"):
            deviation_bounds(p, q, grid=GridSpec(lo=0.0, hi=38.0))

    def test_higher_dim_reports_bound_only(self):
        p = GaussianHead.isotropic([0.0, 0.0], 1.0)
        q = GaussianHead.isotropic([1.0, 0.0], 1.0)
        b = deviation_bounds(p, q)
        assert b.tv_numeric_1d is None
        assert b.kl_bound_1d is None
        assert b.tv_bound == b.alpha_bar
        assert "alpha_bar" in b.note


class TestPredictorReport:
    def test_predict_and_attach(self):
        cost = CostModel(c=0.25, c_hat=0.25)
        rep = PredictorReport.predict(0.8, 3, cost)
        assert rep.e_l_pred == pytest.approx(expected_block_length(0.8, 3))
        assert rep.s_wall_pred == pytest.approx(speedup_wall(0.8, 3, 0.25))
        assert rep.ops_factor_pred == pytest.approx(ops_factor(0.8, 3, 0.25))
        rep.e_l_meas = 2.8
        rep.s_wall_meas = 1.4
        deltas = rep.deltas()
        assert deltas["e_l_rel_gap"] == pytest.approx(abs(rep.e_l_pred - 2.8) / rep.e_l_pred)

    def test_calibration_rows_take_the_report_gaps(self):
        from speccast.harness import RunResult, calibrate

        rep = PredictorReport.predict(0.8, 3, CostModel(c=0.25, c_hat=0.25))
        rep.e_l_meas, rep.s_wall_meas = 2.8, 1.4
        unmeasured = PredictorReport.predict(0.8, 3, CostModel(c=0.25, c_hat=0.25))
        results = [
            RunResult(dataset="d", variant="practical", gamma=3, sigma=1.0, scale=0.25, bias=0.0,
                      seed=0, mse=1.0, mae=1.0, n_windows=1, horizon_patches=4, report=r)
            for r in (rep, unmeasured)
        ]
        rows = calibrate(results, flag_threshold=0.1).rows
        assert (rows[0].e_l_rel_gap, rows[0].s_wall_rel_gap) == (
            rep.deltas()["e_l_rel_gap"], rep.deltas()["s_wall_rel_gap"]
        )
        assert rows[0].flagged == (max(rep.deltas().values()) > 0.1)
        # no measurement, no gap
        assert (rows[1].e_l_rel_gap, rows[1].s_wall_rel_gap, rows[1].flagged) == (0.0, 0.0, False)

    def test_dict_roundtrip(self):
        cost = CostModel(c=0.25, c_hat=0.3)
        rep = PredictorReport.predict(0.9, 2, cost)
        rep.e_l_meas = 2.5
        back = PredictorReport.from_dict(rep.to_dict())
        assert back == rep
