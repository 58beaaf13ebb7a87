"""Gaussian kernel: log densities, acceptance rule, overlap, residuals."""

import math

import numpy as np
import pytest
from scipy import stats as scistats
from scipy.integrate import quad
from scipy.optimize import brentq

from speccast import engine, kernels, prob
from speccast import rng as rngmod
from speccast.prob import (
    CLOSED_FORM,
    MONTE_CARLO,
    QUADRATURE_1D,
    GaussianHead,
    VarianceFloorWarning,
    gap_for_overlap,
    log_density,
    overlap,
    overlap_closed_form,
    residual_offset,
    residual_sample,
    residual_std,
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


def accept_one(mu_p, mu_q, sigma, x, tolerance_lambda=1.0, uniform=0.0, params=None):
    """(log p(x) - log q(x), alpha, accepted) of one proposal x ~ q.

    Scored by the decode engine's kernel, ``kernels.round_accept``, with the
    constants the engine builds for isotropic heads of width ``sigma``, or
    with the given ``params``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    d = x.shape[0]
    if params is None:
        params, _ = engine._head_params(float(sigma), tolerance_lambda, d, 1, False)
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
            _, alpha, accepted = accept_one(mu, mu, 0.7, x, uniform=0.999)
            assert alpha == 1.0
            assert accepted

    def test_hand_computed_ratio(self):
        log_ratio, alpha, accepted = accept_one([2.0], [0.0], 1.0, [0.0], uniform=0.5)
        assert log_ratio == pytest.approx(-2.0, abs=1e-12)
        assert alpha == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert not accepted  # 0.5 >= 0.1353

    def test_tolerance_shifts_log_threshold(self):
        _, alpha, accepted = accept_one([2.0], [0.0], 1.0, [0.0], tolerance_lambda=math.e ** 2, uniform=0.5)
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
            log_ratio, _, _ = accept_one(mu_p, mu_q, sigma, x)
            expected = -(np.sum((x - mu_p) ** 2) - np.sum((x - mu_q) ** 2)) / (2 * sigma ** 2)
            assert log_ratio == pytest.approx(expected, abs=1e-10)

    def test_alpha_monotone_in_norm_difference(self):
        xs = np.linspace(-4, 4, 41)
        stat = [np.sum((x - 0.0) ** 2) - np.sum((x - 1.0) ** 2) for x in xs]
        alphas = [accept_one([0.0], [1.0], 1.0, [x])[1] for x in xs]
        order = np.argsort(stat)
        sorted_alpha = np.array(alphas)[order]
        assert np.all(np.diff(sorted_alpha) <= 1e-12)

    def test_unequal_variance_includes_log_term(self):
        # The engine passes one variance, but the kernel scores each row with
        # its own constants, log normalizer included: draft var 2, target 0.5.
        var = np.array([[2.0], [0.5]])
        params = (1.0 / var, np.log(2.0 * np.pi * var), np.full((2, 1), -0.5), np.zeros(1), np.zeros(1))
        log_ratio, _, _ = accept_one([0.0], [0.0], None, [0.0], params=params)
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


def reference_survival(s, h):
    """S(s) of the residual along the gap, by quadrature of its density.

    The density at distance x from the midpoint is
    phi(x - h) (1 - exp(-2 h x)) / erf(h / sqrt 2); it is integrated from 0
    to s while s < h, where S is near 1, and from s outwards beyond.
    """
    norm = math.erf(h / math.sqrt(2.0))

    def density(x):
        return math.exp(-0.5 * (x - h) ** 2) / math.sqrt(2.0 * math.pi) * -math.expm1(-2.0 * h * x) / norm

    if s < h:
        return 1.0 - quad(density, 0.0, s, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return quad(density, s, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def reference_root(h, u):
    """The root s of S(s) = 1 - u, by ``brentq`` on ``reference_survival``.

    The bracket ends at h + 10, where S is below 2^-53, the least 1 - u.
    From h = 30 on, Phi(s + h) is within 1e-197 of 1, so S(s) is the normal
    tail beyond s - h, and the root is h plus its quantile.
    """
    v = 1.0 - u
    if h >= 30.0:
        return h + scistats.norm.isf(v)
    if reference_survival(0.0, h) - v == 0.0:
        return 0.0
    return brentq(lambda s: reference_survival(s, h) - v, 0.0, h + 10.0, xtol=1e-300, rtol=1e-15, maxiter=500)


def reference_residual_sample(p, q, rng):
    """Reference residual sampler written with the head API.

    Takes two validated heads and the law of the residual by projection:
    z ~ N(0, I) and a uniform u from ``rng`` in that order, s the root of
    S(s) = 1 - u (``reference_root``), and x = m + sigma (z - (z.u) u + s u)
    about the midpoint m. ``residual_sample`` consumes the same draws and
    assembles x from p's mean with its own root, so the two agree to
    rounding, not bit for bit.
    """
    if p.d != q.d:
        raise ValueError("head dimensions differ")
    sigma = np.sqrt(p.variance)
    w = (p.mean - q.mean) / sigma
    delta = math.hypot(*w)  # scaled, so a wide gap does not overflow
    unit = w / delta
    z = rng.standard_normal(p.d)
    s = reference_root(0.5 * delta, rng.random())
    return 0.5 * (p.mean + q.mean) + sigma * (z - np.dot(z, unit) * unit + s * unit)


def sample_heads(p, q, rng):
    """``residual_sample`` called with the fields of two heads."""
    return residual_sample(p.mean, q.mean, residual_std(p.variance, q.variance), rng)


def assert_close_vector(got, want, rtol=1e-12):
    """|got - want| <= rtol |want| in the 2-norm: entries near 0 carry no relative bound."""
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want), (got, want)


class TestResidualRoot:
    @pytest.mark.parametrize("h", [1e-12, 1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("u", [0.0, 1e-300, 0.5, 1.0 - 2.0 ** -53])
    def test_matches_brentq(self, h, u):
        got = residual_offset(h, 1.0 - u) + h
        want = reference_root(h, u)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        if u < 1e-16:  # 1 - u rounds to 1: the root is the midpoint
            assert got == 0.0

    def test_offset_keeps_its_precision_far_out(self):
        # t = s - h is returned as such: at h = 1e8 it is still the normal
        # quantile of 1 - u, which s itself could not carry in float64
        for u in (0.1, 0.5, 0.9):
            assert residual_offset(1e8, 1.0 - u) == pytest.approx(scistats.norm.isf(1.0 - u), abs=1e-12)


class TestResidualSample:
    def test_identical_heads_error(self):
        p = GaussianHead.isotropic([0.0], 1.0)
        with pytest.raises(ValueError, match="residual undefined"):
            sample_heads(p, p, rngmod.stream(0))

    def test_nearly_identical_heads_sample(self):
        # 1 - beta is about 4e-10 at the larger gap, where a rejection
        # sampler would need ~2.5e9 target draws; the projection draws once
        p = GaussianHead.isotropic([0.0, 0.0], 1.0)
        for gap in (1e-9, 4e-10 * math.sqrt(2.0 * math.pi)):
            q = GaussianHead.isotropic([gap, 0.0], 1.0)
            sample, draws = sample_heads(p, q, rngmod.stream(0))
            assert sample.shape == (2,) and np.isfinite(sample).all() and draws == 1
            assert_close_vector(sample, reference_residual_sample(p, q, rngmod.stream(0)))

    def test_gap_whose_square_overflows(self):
        # Delta^2 overflows with finite means: Delta is taken on a rescaled
        # gap, and the offset along the gap is the normal quantile of the
        # uniform, as q has no mass near p
        std = residual_std(np.ones(2), np.ones(2))
        mu_p, mu_q = np.array([1.0, 0.0]), np.array([-1e200, 0.0])
        with np.errstate(over="ignore"):
            sample, _ = residual_sample(mu_p, mu_q, std, rngmod.stream(4))
        replay = rngmod.stream(4)
        z = replay.standard_normal(2)
        t = scistats.norm.ppf(replay.random())
        assert sample[0] == pytest.approx(1.0 + t, abs=1e-12) and sample[1] == z[1]

    def test_nearly_equal_variances_fail_fast(self):
        # variances 1 and 1 + 1e-10 in 32 dims: the heads do not share a
        # variance, and the sampler refuses before its first draw
        p = GaussianHead(np.zeros(32), np.ones(32))
        q = GaussianHead(np.zeros(32), np.full(32, 1.0 + 1e-10))
        with pytest.raises(ValueError, match="requires equal variances"):
            sample_heads(p, q, rngmod.stream(3))

    def test_params_need_one_variance_at_or_above_the_floor(self):
        var = np.array([0.5, 2.0])
        std = residual_std(var, var * (1.0 + 5e-13))
        assert std.tolist() == np.sqrt(var).tolist()
        assert not std.flags.writeable
        for bad in (var * (1.0 + 2e-12), var[::-1], np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match="residual sampler requires equal variances"):
                residual_std(var, bad)
        floor = np.full(2, prob.VARIANCE_FLOOR)
        assert residual_std(floor, floor).tolist() == np.sqrt(floor).tolist()
        for low in (np.full(2, 1e-14), np.array([1.0, 0.0])):
            with pytest.raises(ValueError, match="variance floor 1e-12"):
                residual_std(low, low)
        with pytest.raises(ValueError, match="shapes differ"):
            residual_std(var, np.ones(3))

    def test_matches_reference_draw_for_draw(self):
        # Same stream, same draws: the sample matches the head-API reference
        # to rounding (its root comes from brentq, and it is assembled about
        # the midpoint), over dimensions, widths and gaps from far apart
        # down to 1 - beta ~ 1e-9.
        rng = np.random.default_rng(20240501)
        for case in range(200):
            d = (1, 32)[case % 2]
            shared = case % 4 != 0
            var_p = rng.uniform(0.05, 4.0, d)
            if shared:
                # within the 1e-12 relative tolerance of a shared variance
                var_q = var_p * (1.0 + rng.uniform(-5e-13, 5e-13, d))
            else:
                var_q = var_p * rng.uniform(0.25, 4.0, d)
            delta = math.exp(rng.uniform(math.log(1e-9), math.log(8.0)))
            direction = rng.normal(size=d)
            direction *= math.sqrt(1.0 / float(np.dot(direction, direction / var_p)))
            mu_q = rng.normal(size=d)
            mu_p = mu_q + delta * direction
            seed = int(rng.integers(1 << 30))
            if not shared:
                with pytest.raises(ValueError, match="the residual sampler requires equal variances"):
                    residual_sample(mu_p, mu_q, residual_std(var_p, var_q), rngmod.stream(seed))
                continue
            got, draws = residual_sample(mu_p, mu_q, residual_std(var_p, var_q), rngmod.stream(seed))
            # the heads share the target's variance, the one the sampler carries
            want = reference_residual_sample(
                GaussianHead(mu_p, var_p), GaussianHead(mu_q, var_p), rngmod.stream(seed))
            assert draws == 1
            assert_close_vector(got - mu_p, want - mu_p)

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
                    residual_sample(mu_p, mu_q, residual_std(var, var), rngmod.stream(0))
            assert str(got.value) == str(want.value)

    def test_draw_cost_identity(self):
        # Whatever beta is, a call costs one normal vector and then one
        # uniform from its stream, and reports one draw.
        p = GaussianHead.isotropic(np.zeros(3), 1.0)
        for beta in (0.3, 0.9, 1.0 - 1e-6):
            q = GaussianHead.isotropic([gap_for_overlap(beta), 0.0, 0.0], 1.0)
            gen, replay = rngmod.stream(123), rngmod.stream(123)
            for _ in range(50):
                assert sample_heads(p, q, gen)[1] == 1
                replay.standard_normal(3)
                replay.random()
            assert gen.random(4).tolist() == replay.random(4).tolist()

    def test_distribution_matches_grid_cdf(self):
        # KS against the residual cdf (p - q)_+ / (1 - beta) on a fine grid
        p = GaussianHead.isotropic([3.0], 1.0)
        q = GaussianHead.isotropic([0.0], 1.0)
        beta = overlap_closed_form(p, q)
        gen = rngmod.stream(321)
        std = residual_std(p.variance, q.variance)
        samples = np.array([residual_sample(p.mean, q.mean, std, gen)[0][0] for _ in range(100_000)])

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
        std = residual_std(p.variance, q.variance)
        samples = np.array([residual_sample(p.mean, q.mean, std, gen)[0][0] for _ in range(100_000)])
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
        std = residual_std(p.variance, q.variance)
        for i in np.nonzero(~keep)[0]:
            out[i] = residual_sample(p.mean, q.mean, std, gen)[0][0]
        res = scistats.kstest(out, lambda v: scistats.norm.cdf(v, loc=1.0, scale=1.0))
        assert res.pvalue >= 0.01
