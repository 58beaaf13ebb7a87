"""Gaussian kernel: log densities, acceptance rule, overlap, residuals."""

import math

import numpy as np
import pytest
from scipy import stats as scistats
from scipy.special import erfinv as scipy_erfinv

from speccast import engine, kernels
from speccast import rng as rngmod
from speccast.prob import (
    CLOSED_FORM,
    MONTE_CARLO,
    QUADRATURE_1D,
    GaussianHead,
    ResidualExhausted,
    VarianceFloorWarning,
    gap_for_overlap,
    log_density,
    overlap,
    overlap_closed_form,
    residual_params,
    residual_sample,
)


def scalar_gauss_logpdf(x, mu, var):
    """Independent scalar reference implementation."""
    return -0.5 * math.log(2 * math.pi * var) - (x - mu) ** 2 / (2 * var)


class TestGaussianHead:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            GaussianHead(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            GaussianHead(np.zeros(2), np.array([1.0, -1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GaussianHead(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(ValueError):
            GaussianHead(np.array([0.0]), np.array([np.inf]))

    def test_variance_floor_warns(self):
        with pytest.warns(VarianceFloorWarning):
            h = GaussianHead(np.zeros(1), np.array([1e-15]))
        assert h.variance[0] == 1e-12

    def test_isotropic_broadcast(self):
        h = GaussianHead(np.zeros(3), np.array([2.0]))
        assert h.variance.tolist() == [2.0, 2.0, 2.0]

    def test_immutable(self):
        h = GaussianHead.isotropic([0.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            h.mean[0] = 5.0
        with pytest.raises(ValueError):
            h.variance[0] = 5.0

    def test_owns_copies_of_its_inputs(self):
        mean, var = np.zeros(2), np.ones(2)
        h = GaussianHead(mean, var)
        mean[0], var[0] = 5.0, 5.0
        assert h.mean.tolist() == [0.0, 0.0] and h.variance.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize(
        "mean,variance,message",
        [
            (np.zeros((2, 2)), np.ones(2), "1-d vectors"),
            (np.zeros(3), np.ones(2), r"variance shape \(2,\) != mean shape \(3,\)"),
            ([0.0, np.inf], 1.0, "head mean has non-finite entries"),
            ([0.0, 0.0], [1.0, np.nan], "head variance has non-finite entries"),
            ([0.0, 0.0], [1.0, 0.0], "strictly positive"),
        ],
    )
    def test_validation_messages(self, mean, variance, message):
        with pytest.raises(ValueError, match=message):
            GaussianHead(mean, variance)

    def test_isotropic_equals_explicit_variance(self):
        mean = np.array([0.5, -1.0, 2.0])
        a = GaussianHead.isotropic(mean, 0.3)
        b = GaussianHead(mean, np.full(3, 0.3 ** 2))
        assert a.variance.tobytes() == b.variance.tobytes()
        assert a._log_norm == b._log_norm
        with pytest.raises(ValueError, match="strictly positive"):
            GaussianHead.isotropic(mean, 0.0)
        with pytest.warns(VarianceFloorWarning):
            assert GaussianHead.isotropic(mean, 1e-7).variance.tolist() == [1e-12] * 3


class TestLogDensity:
    def test_standard_normal_mode(self):
        h = GaussianHead.isotropic([0.0], 1.0)
        assert log_density(h, [0.0]) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_two_dim_product(self):
        h = GaussianHead.isotropic([0.0, 0.0], 1.0)
        assert log_density(h, [0.0, 0.0]) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_against_scalar_reference(self):
        h = GaussianHead(np.array([1.0]), np.array([0.25]))
        assert log_density(h, [1.5]) == pytest.approx(scalar_gauss_logpdf(1.5, 1.0, 0.25), abs=1e-12)

    def test_diagonal_sums_scalars(self):
        rng = np.random.default_rng(5)
        mean = rng.normal(size=4)
        var = rng.uniform(0.2, 3.0, size=4)
        x = rng.normal(size=4)
        h = GaussianHead(mean, var)
        expected = sum(scalar_gauss_logpdf(x[i], mean[i], var[i]) for i in range(4))
        assert log_density(h, x) == pytest.approx(expected, abs=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mean = rng.normal(size=3)
            var = rng.uniform(0.1, 4.0, size=3)
            x = rng.normal(size=3)
            delta = rng.normal(size=3)
            a = log_density(GaussianHead(mean, var), x)
            b = log_density(GaussianHead(mean + delta, var), x + delta)
            assert a == pytest.approx(b, abs=1e-12)

    def test_dimension_mismatch(self):
        h = GaussianHead.isotropic([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            log_density(h, [0.0])

    def test_batch_shape(self):
        h = GaussianHead.isotropic([0.0, 0.0], 1.0)
        out = log_density(h, np.zeros((5, 2)))
        assert out.shape == (5,)

    def test_finite_for_far_inputs(self):
        h = GaussianHead.isotropic([0.0], 1.0)
        assert np.isfinite(log_density(h, [50.0]))


def accept_one(mu_p, sigma_p, mu_q, sigma_q, x, tolerance_lambda=1.0, uniform=0.0):
    """(log p(x) - log q(x), alpha, accepted) of one proposal x ~ q.

    Scored by the decode engine's kernel, ``kernels.round_accept``, with the
    constants the engine builds for isotropic heads of these widths.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    d = x.shape[0]
    params, _ = engine._head_params(float(sigma_p), float(sigma_q), tolerance_lambda, d, 1)
    mus = np.empty((2, 1, d))
    mus[0, 0], mus[1, 0] = mu_q, mu_p
    logs, alphas = np.empty((2, 1)), np.empty(1)
    n = kernels.round_accept(x[None], [uniform], mus, np.empty((2, 1, d)), logs, alphas, params)
    return float(logs[1, 0] - logs[0, 0]), float(alphas[0]), n == 1


class TestAcceptance:
    def test_identical_heads_alpha_one(self):
        mu = np.array([0.3, -0.2])
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=2)
            _, alpha, accepted = accept_one(mu, 0.7, mu, 0.7, x, uniform=0.999)
            assert alpha == 1.0
            assert accepted

    def test_hand_computed_ratio(self):
        log_ratio, alpha, accepted = accept_one([2.0], 1.0, [0.0], 1.0, [0.0], uniform=0.5)
        assert log_ratio == pytest.approx(-2.0, abs=1e-12)
        assert alpha == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert not accepted  # 0.5 >= 0.1353

    def test_tolerance_shifts_log_threshold(self):
        _, alpha, accepted = accept_one(
            [2.0], 1.0, [0.0], 1.0, [0.0], tolerance_lambda=math.e ** 2, uniform=0.5
        )
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert accepted

    def test_shared_sigma_closed_form(self):
        # log ratio == -(|x-mu_p|^2 - |x-mu_q|^2) / (2 sigma^2) exactly
        rng = np.random.default_rng(3)
        for _ in range(25):
            sigma = rng.uniform(0.2, 2.0)
            mu_p = rng.normal(size=3)
            mu_q = rng.normal(size=3)
            x = rng.normal(size=3)
            log_ratio, _, _ = accept_one(mu_p, sigma, mu_q, sigma, x)
            expected = -(np.sum((x - mu_p) ** 2) - np.sum((x - mu_q) ** 2)) / (2 * sigma ** 2)
            assert log_ratio == pytest.approx(expected, abs=1e-10)

    def test_alpha_monotone_in_norm_difference(self):
        xs = np.linspace(-4, 4, 41)
        stat = [np.sum((x - 0.0) ** 2) - np.sum((x - 1.0) ** 2) for x in xs]
        alphas = [accept_one([0.0], 1.0, [1.0], 1.0, [x])[1] for x in xs]
        order = np.argsort(stat)
        sorted_alpha = np.array(alphas)[order]
        assert np.all(np.diff(sorted_alpha) <= 1e-12)

    def test_unequal_variance_includes_log_term(self):
        log_ratio, _, _ = accept_one([0.0], math.sqrt(0.5), [0.0], math.sqrt(2.0), [0.0])
        expected = scalar_gauss_logpdf(0.0, 0.0, 0.5) - scalar_gauss_logpdf(0.0, 0.0, 2.0)
        assert log_ratio == pytest.approx(expected, abs=1e-12)


class TestOverlap:
    def test_identical_heads(self):
        h = GaussianHead.isotropic([1.0, 2.0], 0.5)
        assert overlap(h, h).beta == pytest.approx(1.0, abs=1e-14)

    def test_unit_gap_closed_form(self):
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([1.0], 1.0)
        res = overlap(p, q, CLOSED_FORM)
        assert res.beta == pytest.approx(2 * scistats.norm.cdf(-0.5), abs=1e-12)
        assert res.std_error == 0.0

    def test_quadrature_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            sigma = rng.uniform(0.1, 5.0)
            mu = rng.normal()
            gap = rng.uniform(-4, 4) * sigma
            p = GaussianHead.isotropic([mu], sigma)
            q = GaussianHead.isotropic([mu + gap], sigma)
            closed = overlap(p, q, CLOSED_FORM).beta
            quad = overlap(p, q, QUADRATURE_1D).beta
            assert quad == pytest.approx(closed, abs=1e-6)

    def test_monte_carlo_within_3se(self):
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([1.0], 1.0)
        res = overlap(p, q, MONTE_CARLO, mc_samples=1_000_000, rng=rngmod.stream(99))
        closed = overlap_closed_form(p, q)
        assert abs(res.beta - closed) <= 3 * res.std_error
        assert res.std_error > 0

    def test_quadrature_needs_1d(self):
        p = GaussianHead.isotropic([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            overlap(p, p, QUADRATURE_1D)

    def test_closed_form_needs_equal_variance(self):
        p = GaussianHead(np.array([0.0]), np.array([1.0]))
        q = GaussianHead(np.array([0.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            overlap(p, q, CLOSED_FORM)

    @pytest.mark.parametrize("rel", [0.0, 0.5e-12, 0.99e-12, 1.01e-12, 2e-12, -0.99e-12, -1.01e-12])
    def test_equal_variance_tolerance_is_allclose(self, rel):
        # |var_p - var_q| <= 1e-12 |var_q|, as np.allclose(rtol=1e-12, atol=0)
        var_q = np.array([2.0, 3.0])
        var_p = var_q * np.array([1.0, 1.0 + rel])
        p, q = GaussianHead(np.zeros(2), var_p), GaussianHead(np.ones(2), var_q)
        if np.allclose(var_p, var_q, rtol=1e-12, atol=0.0):
            assert overlap(p, q, CLOSED_FORM).beta > 0
        else:
            with pytest.raises(ValueError, match="requires equal variances"):
                overlap(p, q, CLOSED_FORM)

    def test_gap_for_overlap_inverts(self):
        for beta in (0.1, 0.3, 0.6, 0.9, 0.99):
            gap = gap_for_overlap(beta)
            p = GaussianHead.isotropic([0.0], 1.0)
            q = GaussianHead.isotropic([gap], 1.0)
            assert overlap_closed_form(p, q) == pytest.approx(beta, abs=1e-12)


def reference_residual_sample(p, q, rng, max_draws=10_000_000):
    """Reference residual sampler: thinning written with the head API.

    Takes two validated heads and draws through ``GaussianHead.sample`` and
    ``log_density``; ``residual_sample`` must match it draw for draw.
    """
    if p.d != q.d:
        raise ValueError("head dimensions differ")
    var = p.variance
    if np.max(np.abs(var - q.variance) / q.variance) <= 1e-12:
        diff = p.mean - q.mean
        delta = math.sqrt(float(np.dot(diff, diff / var)))
        if math.erf(delta / (2.0 * math.sqrt(2.0))) * max_draws < 1.0:
            raise ValueError(
                f"residual undefined or beyond the draw budget: the heads' overlap leaves "
                f"1 - beta < 1/{max_draws} (Delta = {delta:.3g})"
            )
    draws = 0
    chunk = 16
    while draws < max_draws:
        zs = p.sample(rng, chunk)
        t = log_density(q, zs) - log_density(p, zs)
        pi = np.where(t < 0.0, -np.expm1(np.minimum(t, 0.0)), 0.0)
        u = rng.random(chunk)
        hits = u < pi
        if hits.any():
            idx = int(np.argmax(hits))
            return zs[idx].copy(), draws + idx + 1
        draws += chunk
        chunk = min(2 * chunk, 1024)
    raise ResidualExhausted(draws, max_draws)


def sample_heads(p, q, rng, max_draws=10_000_000):
    """``residual_sample`` called with the fields of two heads."""
    return residual_sample(p.mean, q.mean, residual_params(p.variance, q.variance), rng, max_draws)


def _outcome(draw):
    """(sample bytes, draws) of a call, or the type and text of its error."""
    try:
        sample, draws = draw()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return sample.tobytes(), draws


def _variance_only_tv(ratio):
    """1 - beta between N(0, 1) and N(0, ratio) (1-d), from the crossings.

    TV is scale-invariant, so a ratio below 1 is taken as its inverse.
    """
    s = math.sqrt(max(ratio, 1.0 / ratio))
    c = math.sqrt(2.0 * s * s * math.log(s) / (s * s - 1.0))
    return math.erf(c / math.sqrt(2.0)) - math.erf(c / (s * math.sqrt(2.0)))


class TestResidualSample:
    def test_identical_heads_error(self):
        p = GaussianHead.isotropic([0.0], 1.0)
        with pytest.raises(ValueError, match="residual undefined"):
            sample_heads(p, p, rngmod.stream(0))

    def test_nearly_identical_heads_error(self):
        # 1 - beta = 4e-10: about 2.5e9 expected draws, beyond the 1e7 budget
        gap = 4e-10 * math.sqrt(2.0 * math.pi)
        p = GaussianHead.isotropic([0.0, 0.0], 1.0)
        q = GaussianHead.isotropic([gap, 0.0], 1.0)
        assert 1.0 / math.erf(gap / (2.0 * math.sqrt(2.0))) > 1e9
        with pytest.raises(ValueError, match="residual undefined"):
            sample_heads(p, q, rngmod.stream(0))

    def test_cutoff_follows_the_draw_budget(self):
        # 1/(1 - beta) is about 2000 here: over a budget of 1000, under 4000
        gap = gap_for_overlap(1.0 - 5e-4)
        p = GaussianHead.isotropic([0.0], 2.0)
        q = GaussianHead.isotropic([2.0 * gap], 2.0)
        with pytest.raises(ValueError, match="residual undefined"):
            sample_heads(p, q, rngmod.stream(1), max_draws=1000)
        sample, draws = sample_heads(p, q, rngmod.stream(1), max_draws=4000)
        assert sample.shape == (1,) and draws >= 1

    def test_unequal_variances_are_sampled(self):
        # equal means, unequal variances: the residual exists (no closed form)
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([0.0], 0.5)
        sample, draws = sample_heads(p, q, rngmod.stream(2))
        assert sample.shape == (1,) and draws >= 1

    def test_nearly_equal_variances_fail_fast(self):
        # variances 1 and 1 + 1e-10 in 32 dims, equal means: the Pinsker
        # bound puts 1 - beta near 2e-10, so thinning would exhaust the 1e7
        # budget; the sampler refuses before its first draw
        p = GaussianHead(np.zeros(32), np.ones(32))
        q = GaussianHead(np.zeros(32), np.full(32, 1.0 + 1e-10))
        with pytest.raises(RuntimeError, match="exhausted"):
            reference_residual_sample(p, q, rngmod.stream(3), max_draws=20_000)
        with pytest.raises(ValueError, match="Pinsker"):
            sample_heads(p, q, rngmod.stream(3))
        # the bound counts the mean gap too: the same variances at a mean
        # gap of 1e-3 are sampled
        q_far = GaussianHead(np.full(32, 1e-3), q.variance)
        sample, draws = sample_heads(p, q_far, rngmod.stream(3))
        assert sample.shape == (32,) and draws >= 1

    def test_exhausted_budget_reports_the_draws_spent(self):
        # overlap 0.9: a 16-draw budget passes the up-front cutoff and runs
        # dry in about 0.9**16 = 19% of calls, each after one 16-draw chunk
        p = GaussianHead.isotropic([0.0], 1.0)
        q = GaussianHead.isotropic([gap_for_overlap(0.9)], 1.0)
        spent = []
        for seed in range(60):
            try:
                sample_heads(p, q, rngmod.stream(seed), max_draws=16)
            except ResidualExhausted as exc:
                assert isinstance(exc, RuntimeError) and "exhausted 16 target draws" in str(exc)
                spent.append(exc.draws)
        assert len(spent) >= 3 and set(spent) == {16}

    @pytest.mark.parametrize("ratio", [1.001, 1.01, 1.1, 1.5, 3.0, 1 / 1.001, 1 / 1.1, 1 / 3.0])
    def test_pinsker_cutoff_never_fires_within_budget(self, ratio):
        p = GaussianHead(np.zeros(1), np.ones(1))
        q = GaussianHead(np.zeros(1), np.full(1, ratio))
        one_minus_beta = _variance_only_tv(ratio)
        within = math.ceil(1.0 / one_minus_beta)
        outcome = _outcome(lambda: sample_heads(p, q, rngmod.stream(4), max_draws=within))
        assert outcome[0] != "ValueError", outcome
        # and it fires once the bound itself is below 1/max_draws
        bound = math.sqrt(residual_params(p.variance, q.variance).kl_var / 2.0)
        with pytest.raises(ValueError, match="Pinsker"):
            sample_heads(p, q, rngmod.stream(4), max_draws=math.floor(0.99 / bound))

    @pytest.mark.parametrize("x", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, -1e-10])
    def test_variance_kl_keeps_precision(self, x):
        # x - log1p(x) = x^2/2 - x^3/3 + x^4/4 - ...; the series is exact to
        # well under 1e-9 relative at these x
        var_q = np.full(32, 2.0)
        var_p = var_q * (1.0 + x)
        xs = (var_p - var_q) / var_q
        series = 0.5 * float(np.sum(xs**2 / 2 - xs**3 / 3 + xs**4 / 4))
        kl = residual_params(var_p, var_q).kl_var
        assert kl == pytest.approx(series, rel=1e-9)

    def test_matches_reference_draw_for_draw(self):
        rng = np.random.default_rng(20240501)
        seen = set()
        for case in range(600):
            d = (1, 32)[case % 2]
            max_draws = (16, 64, 1000, 10_000_000)[(case // 2) % 4]
            shared = case % 3 != 0
            var_p = rng.uniform(0.05, 4.0, d)
            if shared:
                # within the 1e-12 relative tolerance of a shared variance
                var_q = var_p * (1.0 + rng.uniform(-5e-13, 5e-13, d))
                # 1 - beta from far apart down to 1/4 of the budget's cutoff
                one_minus_beta = math.exp(rng.uniform(math.log(0.25 / max_draws), 0.0))
                if max_draws == 10_000_000:  # far heads, or past the cutoff only
                    one_minus_beta = rng.choice([rng.uniform(0.05, 1.0), rng.uniform(0.1, 0.99) / max_draws])
                delta = 2.0 * math.sqrt(2.0) * float(scipy_erfinv(min(one_minus_beta, 1.0 - 1e-16)))
            else:
                var_q = var_p * rng.uniform(0.25, 4.0, d)
                delta = rng.uniform(0.0, 3.0)
            direction = rng.normal(size=d)
            direction *= math.sqrt(1.0 / float(np.dot(direction, direction / var_p)))
            mu_q = rng.normal(size=d)
            mu_p = mu_q + delta * direction
            seed = int(rng.integers(1 << 30))
            got = _outcome(lambda: residual_sample(
                mu_p, mu_q, residual_params(var_p, var_q), rngmod.stream(seed), max_draws))
            want = _outcome(lambda: reference_residual_sample(
                GaussianHead(mu_p, var_p), GaussianHead(mu_q, var_q), rngmod.stream(seed), max_draws))
            assert got == want, (case, d, max_draws, shared)
            seen.add(got[0] if isinstance(got[0], str) else "sample")
        # samples, budget cutoffs and exhausted budgets were all compared
        assert seen == {"sample", "ValueError", "ResidualExhausted"}

    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_mean_raises_like_the_heads(self, d, bad):
        var = np.full(d, 0.5)
        finite = np.zeros(d)
        broken = finite.copy()
        broken[-1] = bad
        for mu_p, mu_q in ((broken, finite), (finite, broken), (broken, broken)):
            with pytest.raises(ValueError) as want:
                GaussianHead(mu_p, var), GaussianHead(mu_q, var)
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError) as got:
                    residual_sample(mu_p, mu_q, residual_params(var, var), rngmod.stream(0))
            assert str(got.value) == str(want.value)

    def test_floored_variance_warns_on_every_call(self):
        params = residual_params(np.full(2, 1e-14), np.full(2, 1e-14))
        assert params.floored and np.all(params.var_p == 1e-12)
        with pytest.warns(VarianceFloorWarning):
            p = GaussianHead(np.zeros(2), np.full(2, 1e-14))
            q = GaussianHead(np.full(2, 1e-5), np.full(2, 1e-14))
        for seed in (0, 1):
            with pytest.warns(VarianceFloorWarning):
                got = residual_sample(p.mean, q.mean, params, rngmod.stream(seed))
            want = reference_residual_sample(p, q, rngmod.stream(seed))
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]

    def test_draw_cost_identity(self):
        # mean draws over many calls tracks 1/(1-beta) for beta from the
        # closed form (thinning from p accepts with rate 1 - beta)
        p = GaussianHead.isotropic([3.0], 1.0)
        q = GaussianHead.isotropic([0.0], 1.0)
        beta = overlap_closed_form(p, q)
        gen = rngmod.stream(123)
        params = residual_params(p.variance, q.variance)
        draws = np.array([residual_sample(p.mean, q.mean, params, gen)[1] for _ in range(10_000)])
        expected = 1.0 / (1.0 - beta)
        assert abs(draws.mean() - expected) / expected < 0.05

    def test_distribution_matches_grid_cdf(self):
        # KS against the residual cdf (p - q)_+ / (1 - beta) on a fine grid
        p = GaussianHead.isotropic([3.0], 1.0)
        q = GaussianHead.isotropic([0.0], 1.0)
        beta = overlap_closed_form(p, q)
        gen = rngmod.stream(321)
        params = residual_params(p.variance, q.variance)
        samples = np.array([residual_sample(p.mean, q.mean, params, gen)[0][0] for _ in range(100_000)])

        xs = np.linspace(-8, 11, 20001)
        fp, fq = p.pdf(), q.pdf()
        dens = np.maximum(fp(xs) - fq(xs), 0.0) / (1.0 - beta)
        cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(xs))])
        cdf_grid /= cdf_grid[-1]

        def cdf(v):
            return np.interp(v, xs, cdf_grid)

        res = scistats.kstest(samples, cdf)
        assert res.pvalue >= 0.01

    def test_residual_mass_above_draft_mean(self):
        p = GaussianHead.isotropic([1.0], 1.0)
        q = GaussianHead.isotropic([0.0], 1.0)
        gen = rngmod.stream(55)
        params = residual_params(p.variance, q.variance)
        samples = np.array([residual_sample(p.mean, q.mean, params, gen)[0][0] for _ in range(100_000)])
        assert samples.mean() > 0.0


class TestLosslessSingleStep:
    def test_accept_or_residual_recovers_target(self):
        # Composite draw: X ~ q accepted with min(1, p/q), else residual.
        p = GaussianHead.isotropic([1.0], 1.0)
        q = GaussianHead.isotropic([0.0], 1.0)
        gen = rngmod.stream(777)
        n = 100_000
        xs = q.sample(gen, n)[:, 0]
        lr = np.minimum(0.0, log_density(p, xs[:, None]) - log_density(q, xs[:, None]))
        keep = gen.random(n) < np.exp(lr)
        out = xs.copy()
        params = residual_params(p.variance, q.variance)
        for i in np.nonzero(~keep)[0]:
            out[i] = residual_sample(p.mean, q.mean, params, gen)[0][0]
        res = scistats.kstest(out, lambda v: scistats.norm.cdf(v, loc=1.0, scale=1.0))
        assert res.pvalue >= 0.01
