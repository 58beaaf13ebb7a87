"""Closed-form predictors, estimators, and deviation bounds."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats as scistats

from speccast import rng as rngmod
from speccast.analysis import (
    AcceptanceEstimate,
    CostModel,
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
from speccast.prob import GaussianHead, GridSpec, overlap, overlap_monte_carlo, refined_trapezoid, whitened_gap


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
        rejected = rngmod.stream(101).random((1_000_000, gamma)) >= alpha
        # L = position of the first rejection, or gamma + 1 with none
        lengths = np.where(rejected.any(axis=1), rejected.argmax(axis=1) + 1, gamma + 1)
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

    @pytest.mark.parametrize("c", [math.inf, math.nan, -math.inf])
    def test_cost_ratios_must_be_finite(self, c):
        # an infinite cost ratio is no cost model: the predictors refuse it,
        # as CostModel does, instead of reading S = 0 and a rule 63 from the scan
        with pytest.raises(ValueError, match="must be finite and > 0"):
            speedup_wall(0.9, 3, c)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            select_gamma(0.9, c, 64)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            ops_factor(0.9, 3, c)


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
        # A hidden two-state chain sets each position's acceptance rate (a0
        # or a1), so acceptance depends on the past but stays in [a0, a1].
        gamma = 5
        a0, a1, t01, t10 = 0.8, 0.95, 0.4, 0.5
        gen = rngmod.stream(404)
        u_accept = gen.random((200_000, gamma))
        u_state = gen.random((200_000, gamma))
        state = u_state[:, 0] < t01 / (t01 + t10)  # stationary start in state 1
        alive = np.ones(state.size, dtype=bool)
        lengths = np.full(state.size, gamma + 1)
        for i in range(gamma):
            rejected = alive & (u_accept[:, i] >= np.where(state, a1, a0))
            lengths[rejected] = i + 1
            alive &= ~rejected
            if i + 1 < gamma:
                state = np.where(state, u_state[:, i + 1] >= t10, u_state[:, i + 1] < t01)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_deltas(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            horizon_tv_bound([bad, 0.2])


class TestCostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(c=0.0, c_hat=0.3)
        with pytest.raises(ValueError):
            CostModel(c=0.3, c_hat=float("inf"))

    def test_roundtrip(self):
        cm = CostModel(c=0.3, c_hat=0.25, n_timed_passes=100)
        doc = dataclasses.asdict(cm)
        assert CostModel.from_dict(doc) == cm
        with pytest.raises(ValueError, match=r"unknown cost key\(s\): 'bogus'$"):
            CostModel.from_dict({**doc, "bogus": 1})


class TestEstimateAlpha:
    def test_identical_heads(self):
        h = GaussianHead.isotropic([0.0, 1.0], 0.7)
        est = estimate_alpha([(h, h)] * 12)
        assert est.alpha_bar_hat == pytest.approx(1.0, abs=1e-12)
        assert est.n_histories == 12
        assert est.mc_per_history is None

    def test_radius_formulas(self):
        closed = AcceptanceEstimate(0.5, 128, None)
        assert closed.radius(0.05) == pytest.approx(math.sqrt(math.log(40) / 256), abs=1e-12)
        two_stage = AcceptanceEstimate(0.5, 128, 16)
        assert two_stage.radius(0.05) == pytest.approx(
            math.sqrt(math.log(40) / (2 * 128 * 16)), abs=1e-12
        )

    def test_tail_bound_arithmetic(self):
        est = AcceptanceEstimate(0.5, 5000, 1)
        assert est.tail_bound(0.05) == pytest.approx(2 * math.exp(-25), rel=1e-12)
        assert est.tail_bound(0.05) == pytest.approx(2.8e-11, rel=0.05)

    def test_monte_carlo_unbiased(self):
        # mean over replications within 3 SE of the closed-form overlap
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([1.0], 1.0)
        truth = overlap(1.0)
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

    @pytest.mark.parametrize("sigma", [1.0, 0.1])
    def test_stacked_closed_form_is_the_per_pair_mean_to_the_bit(self, sigma):
        rng = np.random.default_rng(2024)
        mu_p, mu_q = rng.normal(size=(2, 512, 32))
        var = np.full(32, sigma * sigma)
        pairs = [(GaussianHead(p, var), GaussianHead(q, var)) for p, q in zip(mu_p, mu_q)]
        got = estimate_alpha(pairs).alpha_bar_hat
        assert got == float(overlap(whitened_gap(mu_p, mu_q, var)).mean())
        assert got == float(np.mean([overlap(whitened_gap(p.mean, q.mean, p.variance)) for p, q in pairs]))

    @pytest.mark.parametrize("sigma", [1e-7, 1e-8])
    def test_heads_narrower_than_the_lossless_floor_keep_their_width(self, sigma):
        # No clamp: below the lossless decode's variance floor the estimate
        # is still the overlap at the heads' own sigma, and nothing warns.
        rng = np.random.default_rng(7)
        mu_p = rng.normal(size=(16, 4))
        mu_q = mu_p + sigma * rng.normal(size=(16, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = [(GaussianHead.isotropic(p, sigma), GaussianHead.isotropic(q, sigma)) for p, q in zip(mu_p, mu_q)]
            got = estimate_alpha(pairs).alpha_bar_hat
        assert got == float(overlap(whitened_gap(mu_p, mu_q, sigma * sigma)).mean())
        assert got < 0.5

    def test_two_stage_is_one_monte_carlo_overlap_per_history(self):
        # the histories' gaps in order, each drawing its m proposals in turn
        gaps = [0.3, 1.0, 2.5]
        pairs = [(GaussianHead.isotropic([0.0, 0.0], 0.5), GaussianHead.isotropic([0.0, 0.5 * g], 0.5)) for g in gaps]
        est = estimate_alpha(pairs, mode="monte_carlo", mc_per_history=7, rng=rngmod.stream(5))
        gen = rngmod.stream(5)
        want = sum(overlap_monte_carlo(g, 7, gen)[0] for g in gaps) / 3
        assert est.alpha_bar_hat == pytest.approx(want, rel=1e-15)
        assert est.mc_per_history == 7
        one = estimate_alpha(pairs[:1], mode="monte_carlo", mc_per_history=1, rng=rngmod.stream(5))
        assert 0.0 <= one.alpha_bar_hat <= 1.0

    def test_unknown_mode(self):
        h = GaussianHead.isotropic([0.0], 1.0)
        with pytest.raises(ValueError, match="unknown estimate mode 'bogus'"):
            estimate_alpha([(h, h)], mode="bogus")

    def test_empty_input(self):
        with pytest.raises(ValueError):
            estimate_alpha([])


class TestDeviationBounds:
    def test_identical_heads(self):
        b = deviation_bounds(0.0)
        assert b.alpha_bar == pytest.approx(1.0, abs=1e-9)
        assert b.tv_numeric == pytest.approx(0.0, abs=1e-9)

    def test_unit_gap_bound(self):
        b = deviation_bounds(1.0)
        assert b.alpha_bar == pytest.approx(overlap(1.0), abs=1e-7)
        assert b.tv_numeric <= b.alpha_bar
        assert b.tv_numeric <= b.pinsker_tv + 1e-6
        assert b.kl_bound >= 0.0

    def test_far_heads_both_collapse(self):
        b = deviation_bounds(10.0)
        assert b.alpha_bar <= 1e-6
        assert b.tv_numeric <= 1e-6

    @pytest.mark.parametrize("gap", [10.0, 20.0, 30.0])
    def test_far_heads_keep_finite_kl_and_pinsker(self, gap):
        # at gap 30, alpha_bar p underflows to 0 where alpha q does not
        for lam in (0.5, 1.0, 2.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                b = deviation_bounds(gap, tolerance_lambda=lam)
            assert b.alpha_bar > 0.0
            assert math.isfinite(b.kl_bound) and math.isfinite(b.pinsker_tv)
            assert b.tv_numeric <= b.pinsker_tv

    @pytest.mark.parametrize("gap", [0.5, 1.0, 2.0, 3.0, 4.0])
    def test_kl_matches_the_linear_domain_ratio_near_p(self, gap):
        # where alpha_bar p does not underflow, log(alpha q) - log(alpha_bar p)
        # in the linear domain gives the same bound to 1e-12 relative
        for lam in (0.5, 1.0, 2.0):
            b = deviation_bounds(gap, tolerance_lambda=lam)

            def integrand(x):
                lr = scistats.norm.logpdf(x) - scistats.norm.logpdf(x, loc=gap)
                aq = np.exp(np.minimum(0.0, lr + math.log(lam))) * scistats.norm.pdf(x, loc=gap)
                ref = b.alpha_bar * scistats.norm.pdf(x)
                out = np.zeros_like(aq)
                mask = aq > 1e-300
                out[mask] = aq[mask] * (np.log(aq[mask]) - np.log(ref[mask]))
                return out

            kl = max(0.0, refined_trapezoid(integrand, GridSpec.for_gap(gap), abs_tol=1e-9))
            assert b.kl_bound == pytest.approx(kl, rel=1e-12, abs=0.0)
            assert b.pinsker_tv == pytest.approx(math.sqrt(0.5 * kl), rel=1e-12, abs=0.0)

    def test_tolerance_relaxation_raises_alpha(self):
        strict = deviation_bounds(1.0, tolerance_lambda=1.0)
        relaxed = deviation_bounds(1.0, tolerance_lambda=4.0)
        assert relaxed.alpha_bar > strict.alpha_bar
        assert relaxed.tv_numeric <= relaxed.alpha_bar

    def test_two_dim_heads_match_their_gap_projection(self):
        # Heads in d = 2, apart along a diagonal: TV(g, p) and alpha_bar by
        # quadrature over the plane equal the bounds on the whitened gap,
        # which are reported in full in every dimension.
        sigma = 0.7
        mu_q = np.array([0.6, -0.8])
        delta = float(whitened_gap(np.zeros(2), mu_q, sigma * sigma))
        axis = np.linspace(-7.0, 7.0, 701)
        x, y = np.meshgrid(axis, axis, indexing="ij")
        p = scistats.norm.pdf(x, scale=sigma) * scistats.norm.pdf(y, scale=sigma)
        q = scistats.norm.pdf(x, mu_q[0], sigma) * scistats.norm.pdf(y, mu_q[1], sigma)
        for lam in (0.5, 1.0, 2.0):
            b = deviation_bounds(delta, tolerance_lambda=lam)
            assert all(math.isfinite(v) for v in (b.tv_numeric, b.kl_bound, b.pinsker_tv))
            assert b.tv_numeric <= b.alpha_bar
            alpha_q = np.minimum(q, lam * p)
            alpha_bar = np.trapezoid(np.trapezoid(alpha_q, axis), axis)
            tv = 0.5 * np.trapezoid(np.trapezoid(np.abs(alpha_q - alpha_bar * p), axis), axis)
            # the plane's trapezoid rule, across the kink of min(q, lambda p)
            assert alpha_bar == pytest.approx(b.alpha_bar, abs=1e-5)
            assert tv == pytest.approx(b.tv_numeric, abs=1e-5)

    @pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf])
    def test_refuses_a_gap_that_is_not_finite_and_nonnegative(self, delta):
        with pytest.raises(ValueError, match="whitened gap must be finite and >= 0"):
            deviation_bounds(delta)
