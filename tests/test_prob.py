"""Gaussian kernel: log densities, acceptance rule, overlap, residuals."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as scistats
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr

from speccast import engine, kernels
from speccast import rng as rngmod
from speccast.analysis import estimate_alpha
from speccast.prob import (
    GaussianHead,
    gap_for_overlap,
    overlap,
    overlap_monte_carlo,
    residual_sample,
    whitened_gap,
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

    def test_small_variance_is_kept_as_given(self):
        # no floor and no warning: a head is as narrow as it is built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = GaussianHead(np.zeros(1), np.array([1e-15]))
        assert h.variance == 1e-15

    def test_isotropic_broadcast(self):
        # one variance, given as a length-1 vector, serves every dimension
        h = GaussianHead(np.zeros(3), np.array([2.0]))
        assert type(h.variance) is float and h.variance == 2.0

    def test_immutable(self):
        h = GaussianHead.isotropic([0.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            h.mean[0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.variance = 5.0

    def test_owns_copies_of_its_inputs(self):
        mean, var = np.zeros(2), np.ones(2)
        h = GaussianHead(mean, var)
        mean[0], var[0] = 5.0, 5.0
        assert h.mean.tolist() == [0.0, 0.0] and h.variance == 1.0

    @pytest.mark.parametrize("variance", [[1.0, 2.0], [2.0, 2.0, 2.0 + 2.0 ** -51]])
    def test_refuses_unequal_variance_entries(self, variance):
        # a head has one width: a vector of unequal entries is not one
        with pytest.raises(ValueError, match="head variance must be isotropic, got unequal entries"):
            GaussianHead(np.zeros(len(variance)), variance)

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
        assert a.variance == b.variance == 0.3 ** 2
        with pytest.raises(ValueError, match="strictly positive"):
            GaussianHead(mean, 0.0)
        # below the lossless decode's floor, the head keeps its true width
        assert GaussianHead.isotropic(mean, 1e-7).variance == 1e-7 ** 2

    @pytest.mark.parametrize("sigma", [-2.0, 0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_isotropic_refuses_a_sigma_that_is_not_finite_and_positive(self, sigma):
        # squaring would turn -2 into a valid variance of 4
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            GaussianHead.isotropic([0.0], sigma)


def kernel_log_density(mu, sigma, xs):
    """log N(x; mu, sigma^2 I) of each row of ``xs``, as the decode kernel derives it.

    The ``log_p`` column that ``kernels.acceptance_columns`` derives from the
    squared distances ``kernels.round_accept`` writes, with the constants the
    engine builds for an isotropic head of width ``sigma``.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    n, d = xs.shape
    params = engine._head_params(float(sigma), 1.0, d)
    mus = np.empty((2, n, d))
    mus[:] = np.asarray(mu, dtype=np.float64)
    dists = np.empty((2, n))
    kernels.round_accept(xs, [0.0] * n, mus, np.empty((2, n, d)), dists, params)
    return kernels.acceptance_columns(dists, params)[1]


class TestLogDensity:
    """The one log density left in the package: the decode kernel's."""

    def test_standard_normal_mode(self):
        assert kernel_log_density([0.0], 1.0, [0.0])[0] == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_two_dim_product(self):
        assert kernel_log_density([0.0, 0.0], 1.0, [0.0, 0.0])[0] == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_against_scalar_reference(self):
        got = kernel_log_density([1.0], 0.5, [1.5])[0]
        assert got == pytest.approx(scalar_gauss_logpdf(1.5, 1.0, 0.25), abs=1e-12)

    def test_diagonal_sums_scalars(self):
        rng = np.random.default_rng(5)
        mean = rng.normal(size=4)
        sigma = rng.uniform(0.2, 3.0)
        x = rng.normal(size=4)
        expected = sum(scalar_gauss_logpdf(x[i], mean[i], sigma * sigma) for i in range(4))
        assert kernel_log_density(mean, sigma, x)[0] == pytest.approx(expected, abs=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mean = rng.normal(size=3)
            sigma = rng.uniform(0.3, 2.0)
            x = rng.normal(size=3)
            delta = rng.normal(size=3)
            a = kernel_log_density(mean, sigma, x)[0]
            b = kernel_log_density(mean + delta, sigma, x + delta)[0]
            assert a == pytest.approx(b, abs=1e-12)

    def test_batch_shape(self):
        out = kernel_log_density([0.0, 0.0], 1.0, np.zeros((5, 2)))
        assert out.shape == (5,)

    def test_finite_for_far_inputs(self):
        assert np.isfinite(kernel_log_density([0.0], 1.0, [50.0])[0])


def accept_one(mu_p, mu_q, sigma, x, tolerance_lambda=1.0, uniform=0.0):
    """(log p(x) - log q(x), alpha, accepted) of one proposal x ~ q.

    Scored by the decode engine's kernel, ``kernels.round_accept``, with the
    constants the engine builds for isotropic heads of width ``sigma``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    d = x.shape[0]
    params = engine._head_params(float(sigma), tolerance_lambda, d)
    mus = np.empty((2, 1, d))
    mus[0, 0], mus[1, 0] = mu_q, mu_p
    dists = np.empty((2, 1))
    n = kernels.round_accept(x[None], [uniform], mus, np.empty((2, 1, d)), dists, params)
    log_q, log_p, alphas = kernels.acceptance_columns(dists, params)
    return float(log_p[0] - log_q[0]), float(alphas[0]), n == 1


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



class TestOverlap:
    def test_identical_heads(self):
        h = GaussianHead.isotropic([1.0, 2.0], 0.5)
        assert overlap(whitened_gap(h.mean, h.mean, h.variance)) == pytest.approx(1.0, abs=1e-14)

    def test_unit_gap_closed_form(self):
        delta = whitened_gap([0.0], [0.5], 0.25)
        assert delta == 1.0
        assert overlap(delta) == pytest.approx(2 * scistats.norm.cdf(-0.5), abs=1e-12)

    def test_whitened_gap_batches_along_the_last_axis(self):
        # one call on stacked rows gives each row's own gap, to the bit, with
        # a variance per dimension or one for all
        rng = np.random.default_rng(13)
        mu_p, mu_q = rng.normal(size=(2, 64, 5))
        var = rng.uniform(0.1, 3.0, 5)
        batched = whitened_gap(mu_p, mu_q, var)
        assert batched.shape == (64,)
        assert batched.tolist() == [float(whitened_gap(p, q, var)) for p, q in zip(mu_p, mu_q)]
        assert whitened_gap(mu_p, mu_q, 0.7).tolist() == whitened_gap(mu_p, mu_q, np.full(5, 0.7)).tolist()
        assert overlap(batched).tolist() == [float(overlap(g)) for g in batched]

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_closed_form_matches_adaptive_quadrature(self, lam):
        # The mean acceptance E_q[min(1, lambda p/q)] is the mass of
        # min(q, lambda p), p = N(0, 1) and q = N(delta, 1), whose kink sits
        # at x* = delta/2 + ln(lambda)/delta (the midpoint at lambda = 1).
        for delta in np.linspace(0.0, 8.0, 33)[1:]:
            def min_pdf(x):
                return min(math.exp(-0.5 * (x - delta) ** 2), lam * math.exp(-0.5 * x * x)) / math.sqrt(2.0 * math.pi)

            x_star = 0.5 * delta + math.log(lam) / delta
            halves = ((-np.inf, x_star), (x_star, np.inf))
            alpha = sum(quad(min_pdf, lo, hi, epsabs=1e-15)[0] for lo, hi in halves)
            assert overlap(delta, lam) == pytest.approx(alpha, rel=0, abs=1e-12)
        # at delta = 0 the heads coincide and every proposal is kept with
        # probability min(1, lambda), exactly and with no warning
        assert overlap(0.0, lam) == min(1.0, lam)
        assert overlap(np.zeros(3), lam).tolist() == [min(1.0, lam)] * 3

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, lam):
        with pytest.raises(ValueError, match="tolerance_lambda must be finite and > 0"):
            overlap(1.0, lam)

    def test_monte_carlo_within_3se(self):
        beta, std_error = overlap_monte_carlo(1.0, 1_000_000, rngmod.stream(99))
        assert abs(beta - overlap(1.0)) <= 3 * std_error
        assert std_error > 0

    @pytest.mark.parametrize("delta", [-0.5, math.nan, math.inf])
    def test_gap_laws_refuse_a_gap_that_is_not_finite_and_nonnegative(self, delta):
        with pytest.raises(ValueError, match="whitened gap must be finite and >= 0"):
            overlap_monte_carlo(delta, 10, rngmod.stream(1))

    def test_closed_form_needs_equal_variance(self):
        p = GaussianHead(np.array([0.0]), np.array([1.0]))
        q = GaussianHead(np.array([0.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            estimate_alpha([(p, q)])

    @pytest.mark.parametrize("rel", [0.0, 0.5e-12, 0.99e-12, 1.01e-12, 2e-12, -0.99e-12, -1.01e-12])
    def test_equal_variance_tolerance_is_allclose(self, rel):
        # |var_p - var_q| <= 1e-12 |var_q|, as np.allclose(rtol=1e-12, atol=0)
        var_q = 3.0
        var_p = var_q * (1.0 + rel)
        p, q = GaussianHead(np.zeros(2), var_p), GaussianHead(np.ones(2), var_q)
        if np.allclose(var_p, var_q, rtol=1e-12, atol=0.0):
            assert estimate_alpha([(p, q)]).alpha_bar_hat > 0
        else:
            with pytest.raises(ValueError, match="requires equal variances"):
                estimate_alpha([(p, q)])

    def test_gap_for_overlap_inverts(self):
        for beta in (0.1, 0.3, 0.6, 0.9, 0.99):
            assert overlap(gap_for_overlap(beta)) == pytest.approx(beta, abs=1e-12)


def reference_residual_sample(p, q, x):
    """The textbook reflection of a proposal x across the bisector of two heads' means.

    Takes two validated heads: x - 2 ((x - m) . u) u, with m the midpoint of
    the means and u their unit gap. ``residual_sample`` takes the
    proposal's noise and assembles the same point from p's mean, so the two
    agree to rounding, not bit for bit.
    """
    if p.d != q.d:
        raise ValueError("head dimensions differ")
    w = p.mean - q.mean
    w = w / np.abs(w).max()  # scaled, so a wide gap does not overflow
    unit = w / np.linalg.norm(w)
    return x - 2.0 * np.dot(x - 0.5 * (p.mean + q.mean), unit) * unit


def residual_draw(mu_p, mu_q, eps):
    """(draw, variates consumed): ``residual_sample`` of the proposal mu_q + eps, in a fresh row."""
    return residual_sample(mu_p, mu_q, eps, mu_q + eps)


def rejected_noise(gen, p, q, n):
    """The noise rows x - mu_q of the proposals x ~ q that min(1, p/q) rejects among n draws."""
    sigma = math.sqrt(q.variance)
    eps = sigma * gen.standard_normal((n, q.d))
    xs = q.mean + eps
    log_ratio = (np.sum((xs - q.mean) ** 2, axis=1) - np.sum((xs - p.mean) ** 2, axis=1)) / (2.0 * q.variance)
    return eps[gen.random(n) >= np.exp(np.minimum(0.0, log_ratio))]


def assert_close_vector(got, want, rtol=1e-12):
    """|got - want| <= rtol |want| in the 2-norm: entries near 0 carry no relative bound."""
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want), (got, want)


def gap_geometry(rng, d, delta):
    """(mu_p, mu_q, sigma, u): heads of width sigma about Delta apart, u their whitened unit gap.

    u is taken from the means as rounded, so at a tiny Delta it is the
    direction the sampler sees, not the one the means were built along.
    """
    sigma = rng.uniform(0.5, 2.0)
    u = rng.normal(size=d)
    mu_q = rng.normal(size=d)
    mu_p = mu_q + delta * sigma * u / np.linalg.norm(u)
    w = (mu_p - mu_q) / sigma
    return mu_p, mu_q, sigma, w / np.linalg.norm(w)


def _residual_density(h):
    """The residual's density at distance x from the midpoint along the gap.

    Whitened, with q at -h and p at +h. By the mirror it is also the density
    of a rejected proposal's depth x into q's side.
    """
    norm = math.erf(h / math.sqrt(2.0))

    def density(x):
        return math.exp(-0.5 * (x - h) ** 2) / math.sqrt(2.0 * math.pi) * -math.expm1(-2.0 * h * x) / norm

    return density


def reference_deficit(s, h):
    """1 - S(s), by quadrature of the density from the midpoint to s.

    It does not cancel however close S is to 1.
    """
    return quad(_residual_density(h), 0.0, s, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def reference_survival(s, h):
    """S(s) of the residual along the gap, by quadrature of its density.

    The density at distance x from the midpoint is
    phi(x - h) (1 - exp(-2 h x)) / erf(h / sqrt 2); it is integrated from 0
    to s while s < h, where S is near 1, and from s outwards beyond.
    """
    if s < h:
        return 1.0 - reference_deficit(s, h)
    return quad(_residual_density(h), s, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def reference_root(h, v):
    """The root s of S(s) = v, by ``brentq`` on ``reference_survival``.

    The bracket ends at h + 10, where S is below 2^-53, so it serves every
    v >= 2^-53.
    """
    if reference_survival(0.0, h) - v == 0.0:
        return 0.0
    return brentq(lambda s: reference_survival(s, h) - v, 0.0, h + 10.0, xtol=1e-300, rtol=1e-15, maxiter=500)


def reflected_depth(h, s):
    """Where ``residual_sample`` sends the rejected proposal at depth s into q's side.

    Whitened 1-d heads, q at -h and p at +h: the proposal x = -s has the
    noise h - s. Returns the draw's distance from the midpoint on p's side.
    """
    draw, draws = residual_draw(np.array([h]), np.array([-h]), np.array([h - s]))
    assert draws == 1
    return float(draw[0])


class TestResidualRoot:
    """The reflection against the residual's quantiles, the roots of S = v by ``brentq``.

    By the mirror, the depth of a rejected proposal into q's side has the
    survival S of the residual's distance from the midpoint on p's side, so
    the proposal at the root of S = v must be sent to that same root.
    """

    @pytest.mark.parametrize("h", [1e-12, 1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("u", [0.0, 1e-300, 0.5, 1.0 - 2.0 ** -53])
    def test_matches_brentq(self, h, u):
        want = reference_root(h, 1.0 - u)
        got = reflected_depth(h, want)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        if u < 1e-16:  # 1 - u rounds to 1: the proposal and its draw sit at the midpoint
            assert got == 0.0

    @pytest.mark.parametrize("h", [1.01e-4, 2e-4, 5e-4, 2e-3, 9.9e-3])
    def test_small_half_gaps_keep_full_precision(self, h):
        # The gap 2h is small against the noise, and eps . g / g . g is
        # large: the draw still lands on the residual's root to 1e-12
        for a in np.linspace(-3.0, 6.0, 10):
            want = reference_root(h, float(scistats.norm.sf(a)))
            np.testing.assert_allclose(reflected_depth(h, want), want, rtol=1e-12, atol=0.0)

    def test_offset_keeps_its_precision_far_out(self):
        # At h = 1e8 the rejected law is q to within rounding, so the
        # proposal at its quantile is q's mean minus t, t the normal quantile
        # of 1 - u. The draw is assembled from p's mean and the proposal's
        # noise, so its offset from p's mean is t to full precision, which
        # the proposal x = mu_q - t itself could not carry in float64.
        mu_p, mu_q = np.zeros(1), np.array([-2e8])
        for u in (0.1, 0.5, 0.9):
            t = scistats.norm.isf(1.0 - u)
            draw, _ = residual_draw(mu_p, mu_q, np.array([-t]))
            assert draw[0] - mu_p[0] == pytest.approx(t, abs=1e-12)

    @pytest.mark.parametrize("h", [0.5, 1.0, 1.2, 6.0, 10.0, 20.0, 30.0])
    def test_monotone_and_exact_near_the_midpoint(self, h):
        # The sweep of a over [-40, 40]: the proposal with noise -a, at
        # depth h + a, is sent to p's mean plus a, to the rounding of the
        # mirrored term 2a (a dot, a division and a product) and of two
        # adds, 10 u (h + |a|) with u = 2^-53; the draws increase with a.
        # Where the rejected law's deficit 1 - S = Q(a) is below
        # 1e-10, the proposal at its root s is sent to the same root, checked
        # to 1e-6 relative plus the rounding of its noise h - s and of the
        # same steps on terms of size 2h, 10 u h. Near the midpoint
        # 1 - S = kappa s^2 (1 + O(h^2 s^2)), so below s = 1e-6 the root is
        # sqrt((1 - v) / kappa); beyond, it comes from brentq on 1 - S, the
        # quadrature from the midpoint, which stays exact however close v
        # is to 1.
        kappa = h * scistats.norm.pdf(h) / math.erf(h / math.sqrt(2.0))
        previous = -math.inf
        for a in np.arange(-320, 321) / 8.0:
            y = float(residual_draw(np.array([h]), np.array([-h]), np.array([-a]))[0][0])
            assert y >= previous, f"the draw decreases at a = {a}"
            assert abs(y - (h + a)) <= 10.0 * 2.0 ** -53 * (h + abs(a)), f"a = {a}: y = {y}"
            previous = y
            log_v = float(log_ndtr(-a))
            if -log_v < 1e-10:
                deficit = -math.expm1(log_v)
                want = math.sqrt(deficit / kappa)
                if want > 1e-6:
                    want = brentq(lambda x: reference_deficit(x, h) - deficit, 0.0, h, xtol=1e-300, rtol=1e-14)
                s = reflected_depth(h, want)
                assert abs(s - want) <= 1e-6 * want + 10.0 * 2.0 ** -53 * h, f"a = {a}: s = {s}, want {want}"


class TestResidualSample:
    def test_identical_heads_error(self):
        with pytest.raises(ValueError, match="residual undefined"):
            residual_draw(np.zeros(1), np.zeros(1), np.ones(1))

    def test_nearly_identical_heads_sample(self):
        # 1 - beta is about 4e-10 at the larger gap, where a rejection
        # sampler would need ~2.5e9 target draws; the reflection takes the
        # rejected proposal as it is
        p = GaussianHead.isotropic([0.0, 0.0], 1.0)
        eps = rngmod.stream(0).standard_normal(2)
        for gap in (1e-9, 4e-10 * math.sqrt(2.0 * math.pi)):
            q = GaussianHead.isotropic([gap, 0.0], 1.0)
            sample, draws = residual_draw(p.mean, q.mean, eps)
            assert sample.shape == (2,) and np.isfinite(sample).all() and draws == 1
            assert_close_vector(sample, reference_residual_sample(p, q, q.mean + eps))

    def test_gap_whose_square_overflows(self):
        # Delta^2 overflows with finite means: the gap is rescaled, and the
        # draw is p's mean plus the noise mirrored along the gap
        mu_p, mu_q = np.array([1.0, 0.0]), np.array([-1e200, 0.0])
        eps = rngmod.stream(4).standard_normal(2)
        with np.errstate(over="ignore"):
            sample, _ = residual_draw(mu_p, mu_q, eps)
        assert sample[0] == pytest.approx(1.0 - eps[0], abs=1e-12) and sample[1] == eps[1]

    def test_gap_whose_square_underflows(self):
        # A gap of 1e-170 squares to 0: rescaled, it still gives the mirror
        mu_p, mu_q = np.array([0.0, 1e-170]), np.zeros(2)
        eps = rngmod.stream(5).standard_normal(2)
        sample, _ = residual_draw(mu_p, mu_q, eps)
        assert sample[0] == eps[0] and sample[1] == pytest.approx(-eps[1], abs=1e-12)

    def test_matches_reference_draw_for_draw(self):
        # Same proposal: the draw matches the textbook reflection about the
        # midpoint to rounding, over dimensions, widths and gaps from far
        # apart down to 1 - beta ~ 1e-9.
        rng = np.random.default_rng(20240501)
        for case in range(200):
            d = (1, 32)[case % 2]
            var = rng.uniform(0.05, 4.0)
            delta = math.exp(rng.uniform(math.log(1e-9), math.log(8.0)))
            direction = rng.normal(size=d)
            direction *= math.sqrt(var / float(np.dot(direction, direction)))
            mu_q = rng.normal(size=d)
            mu_p = mu_q + delta * direction
            eps = math.sqrt(var) * rng.standard_normal(d)
            got, draws = residual_draw(mu_p, mu_q, eps)
            want = reference_residual_sample(GaussianHead(mu_p, var), GaussianHead(mu_q, var), mu_q + eps)
            assert draws == 1
            assert_close_vector(got - mu_p, want - mu_p, rtol=1e-11)

    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_mean_raises_like_the_heads(self, d, bad):
        var = 0.5
        finite = np.zeros(d)
        broken = finite.copy()
        broken[-1] = bad
        for mu_p, mu_q in ((broken, finite), (finite, broken), (broken, broken)):
            with pytest.raises(ValueError) as want:
                GaussianHead(mu_p, var), GaussianHead(mu_q, var)
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError) as got:
                    residual_draw(mu_p, mu_q, np.ones(d))
            assert str(got.value) == str(want.value)

    def test_draw_cost_identity(self):
        # Whatever beta is, a call reflects the proposal whose noise it is
        # given and reports one variate: it draws nothing, writes only its
        # output row (which it returns), does not read what that row held,
        # and the same noise gives the same bytes.
        p = GaussianHead.isotropic(np.zeros(3), 1.0)
        gen = rngmod.stream(123)
        for beta in (0.3, 0.9, 1.0 - 1e-6):
            q = GaussianHead.isotropic([gap_for_overlap(beta), 0.0, 0.0], 1.0)
            for eps in gen.standard_normal((50, 3)):
                inputs = [a.copy() for a in (p.mean, q.mean, eps)]
                out = np.full(3, np.nan)
                first, draws = residual_sample(p.mean, q.mean, eps, out)
                assert first is out and draws == 1
                assert residual_draw(p.mean, q.mean, eps)[0].tobytes() == first.tobytes()
                assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, (p.mean, q.mean, eps)))

    def test_allocates_no_vector(self):
        # The reflection works in its output row: at d = 4096 one temporary
        # vector would take 32 KiB. A first call warms any lazy set-up.
        d = 4096
        rng = np.random.default_rng(3)
        mu_p, mu_q, sigma, _ = gap_geometry(rng, d, 0.7)
        eps = sigma * rng.standard_normal(d)
        out = mu_q + eps
        residual_sample(mu_p, mu_q, eps, out)
        tracemalloc.start()
        try:
            residual_sample(mu_p, mu_q, eps, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d

    @pytest.mark.parametrize("d", [1, 5, 32])
    @pytest.mark.parametrize("delta", [1e-9, 0.3, 2.0, 40.0])
    def test_orthogonal_part_passes_and_along_gap_increases(self, d, delta):
        # Whitened about the midpoint, the draw keeps the proposal's part
        # across the gap and mirrors its coordinate along it: a proposal at
        # depth s into q's side lands at s on p's side, so the coordinate
        # along the gap increases with the depth of the rejected proposal
        rng = np.random.default_rng(int(delta * 1e3) + d)
        mu_p, mu_q, sigma, u = gap_geometry(rng, d, delta)
        mid = 0.5 * (mu_p + mu_q)
        z = rng.standard_normal(d)
        across = z - np.dot(z, u) * u
        along = []
        for depth in np.arange(-6.0, 8.01, 0.25):
            x = mid + sigma * (across - depth * u)
            y = (residual_draw(mu_p, mu_q, x - mu_q)[0] - mid) / sigma
            assert_close_vector(y - np.dot(y, u) * u, across, rtol=1e-9)
            assert np.dot(y, u) == pytest.approx(depth, rel=1e-9, abs=1e-9)
            along.append(np.dot(y, u))
        assert np.all(np.diff(along) > 0.0)

    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize("delta", [1e-9, 0.5, 2.0, 40.0, 1e8])
    def test_far_variates_give_finite_draws(self, d, delta):
        # Noise 40 sigma from q's mean on either side of the gap, or none:
        # every draw is finite and no warning is raised.
        mu_p, mu_q, sigma, u = gap_geometry(np.random.default_rng(d), d, delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eps in (sigma * (-40.0 * u), np.zeros(d), sigma * (40.0 * u)):
                sample, draws = residual_draw(mu_p, mu_q, eps)
                assert np.isfinite(sample).all() and draws == 1

    def test_distribution_matches_grid_cdf(self):
        # KS against the residual cdf (p - q)_+ / (1 - beta) on a fine grid
        p = GaussianHead.isotropic([3.0], 1.0)
        q = GaussianHead.isotropic([0.0], 1.0)
        beta = overlap(3.0)
        noise = rejected_noise(rngmod.stream(321), p, q, 100_000)
        samples = np.array([residual_draw(p.mean, q.mean, eps)[0][0] for eps in noise])

        xs = np.linspace(-8, 11, 20001)
        dens = np.maximum(scistats.norm.pdf(xs, loc=3.0) - scistats.norm.pdf(xs), 0.0) / (1.0 - beta)
        cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(xs))])
        cdf_grid /= cdf_grid[-1]

        def cdf(v):
            return np.interp(v, xs, cdf_grid)

        res = scistats.kstest(samples, cdf)
        assert res.pvalue >= 0.01

    def test_residual_mass_above_draft_mean(self):
        p = GaussianHead.isotropic([1.0], 1.0)
        q = GaussianHead.isotropic([0.0], 1.0)
        noise = rejected_noise(rngmod.stream(55), p, q, 100_000)
        samples = np.array([residual_draw(p.mean, q.mean, eps)[0][0] for eps in noise])
        assert samples.min() >= 0.5 and samples.mean() > 1.0


class TestLosslessSingleStep:
    def test_accept_or_residual_recovers_target(self):
        # Composite draw: X ~ q accepted with min(1, p/q), else its
        # reflection into the residual.
        p = GaussianHead.isotropic([1.0], 1.0)
        q = GaussianHead.isotropic([0.0], 1.0)
        gen = rngmod.stream(777)
        n = 100_000
        xs = gen.standard_normal(n)
        lr = np.minimum(0.0, scistats.norm.logpdf(xs, loc=1.0) - scistats.norm.logpdf(xs))
        keep = gen.random(n) < np.exp(lr)
        out = xs.copy()
        for i in np.nonzero(~keep)[0]:
            out[i] = residual_draw(p.mean, q.mean, xs[i : i + 1] - q.mean)[0][0]
        res = scistats.kstest(out, lambda v: scistats.norm.cdf(v, loc=1.0, scale=1.0))
        assert res.pvalue >= 0.01
