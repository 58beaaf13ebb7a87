"""Stream keying/reuse, and the numpy kernels against loop-form references."""

import math

import numpy as np
import pytest

from speccast import kernels
from speccast import rng as rngmod


class TestStreams:
    def test_distinct_keys_distinct_draws(self):
        a = rngmod.stream(1, 0, rngmod.ROUND).random(8)
        b = rngmod.stream(1, 0, rngmod.FALLBACK).random(8)
        c = rngmod.stream(1, 1, rngmod.ROUND).random(8)
        d = rngmod.stream(2, 0, rngmod.ROUND).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_same_key_replays(self):
        a = rngmod.stream(5, 3, rngmod.FALLBACK).standard_normal(16)
        b = rngmod.stream(5, 3, rngmod.FALLBACK).standard_normal(16)
        assert np.array_equal(a, b)

    def test_reusable_matches_fresh(self):
        pool = rngmod.ReusableStream()
        for key in [(1, 0, rngmod.ROUND), (1, 1, rngmod.FALLBACK), (9, 2, rngmod.RESIDUAL)]:
            gen = pool.rekey(*key)
            got = (gen.random(4), gen.standard_normal(3))
            fresh = rngmod.stream(*key)
            want = (fresh.random(4), fresh.standard_normal(3))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            rngmod.stream(0, -1, 0)

    def test_derive_seed_stable_and_distinct(self):
        assert rngmod.derive_seed(7, 1, 2) == rngmod.derive_seed(7, 1, 2)
        assert rngmod.derive_seed(7, 1, 2) != rngmod.derive_seed(7, 2, 1)


# ---------------------------------------------------------------------------
# Loop-form reference implementations: one scalar step at a time, written
# for clarity rather than speed. The vectorized kernels must agree with them.
# ---------------------------------------------------------------------------

def block_lengths_iid_loop(uniforms, alpha):
    n, gamma = uniforms.shape
    out = np.empty(n, dtype=np.int64)
    for r in range(n):
        length = gamma + 1
        for i in range(gamma):
            if uniforms[r, i] >= alpha:
                length = i + 1
                break
        out[r] = length
    return out


def block_lengths_markov_loop(u_accept, u_state, pi1, a0, a1, t01, t10):
    n, gamma = u_accept.shape
    out = np.empty(n, dtype=np.int64)
    for r in range(n):
        s = 1 if u_state[r, 0] < pi1 else 0
        length = gamma + 1
        for i in range(gamma):
            a = a1 if s == 1 else a0
            if u_accept[r, i] >= a:
                length = i + 1
                break
            if i + 1 < gamma:
                if s == 0:
                    s = 1 if u_state[r, i + 1] < t01 else 0
                else:
                    s = 0 if u_state[r, i + 1] < t10 else 1
        out[r] = length
    return out


def round_accept_loop(xs, uniforms, mu_q, mu_p, params):
    """(n, log_q, log_p, alphas) for one round, element by element."""
    gamma, d = xs.shape
    inv_var_d, inv_var_t, log_lambda = params[0], params[1], params[2]
    log_q, log_p, alphas = np.empty(gamma), np.empty(gamma), np.empty(gamma)
    for i in range(gamma):
        acc_q = 0.0
        acc_p = 0.0
        for j in range(d):
            dq = xs[i, j] - mu_q[i, j]
            dp = xs[i, j] - mu_p[i, j]
            acc_q = acc_q + dq * dq * inv_var_d
            acc_p = acc_p + dp * dp * inv_var_t
        log_q[i] = -0.5 * (acc_q + params[3])
        log_p[i] = -0.5 * (acc_p + params[4])
        la = log_p[i] - log_q[i] + log_lambda
        if la > 0.0:
            la = 0.0
        alphas[i] = math.exp(la)
    n = 0
    while n < gamma and uniforms[n] < alphas[n]:
        n += 1
    return n, log_q, log_p, alphas


def iid_lengths(uniforms, alpha):
    """The i.i.d. law: the Markov kernel with equal state accept rates."""
    return kernels.block_lengths_markov(uniforms, uniforms, 0.5, alpha, alpha, 0.5, 0.5)


class TestBlockLengthsIid:
    def test_against_python_reference(self):
        rng = np.random.default_rng(1)
        u = rng.random((500, 4))
        alpha = 0.7
        expected = []
        for row in u:
            length = 5
            for i, v in enumerate(row):
                if v >= alpha:
                    length = i + 1
                    break
            expected.append(length)
        assert iid_lengths(u, alpha).tolist() == expected

    def test_backends_agree(self):
        # the vectorized kernel agrees with the loop-form reference
        rng = np.random.default_rng(2)
        u = rng.random((2000, 5))
        us = rng.random((2000, 5))
        for alpha in (0.0, 0.3, 0.8, 1.0):
            ref = block_lengths_iid_loop(u, alpha)
            got = kernels.block_lengths_markov(u, us, 0.4, alpha, alpha, 0.9, 0.3)
            assert np.array_equal(got, ref), alpha

    def test_extremes(self):
        u = np.random.default_rng(0).random((100, 3))
        assert np.all(iid_lengths(u, 1.0) == 4)
        # alpha = 0 rejects immediately except measure-zero u == 0 draws
        assert np.all(iid_lengths(u, 0.0) == 1)


class TestBlockLengthsMarkov:
    def test_backends_agree(self):
        # the vectorized kernel agrees with the loop-form reference
        rng = np.random.default_rng(3)
        ua = rng.random((3000, 6))
        us = rng.random((3000, 6))
        for args in [(0.4, 0.6, 0.9, 0.3, 0.5), (1.0, 0.2, 0.95, 0.0, 1.0), (0.0, 0.99, 0.1, 0.7, 0.05)]:
            ref = block_lengths_markov_loop(ua, us, *args)
            got = kernels.block_lengths_markov(ua, us, *args)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref), args

    def test_constant_chain_reduces_to_iid(self):
        rng = np.random.default_rng(4)
        ua = rng.random((5000, 4))
        us = rng.random((5000, 4))
        same = kernels.block_lengths_markov(ua, us, 0.5, 0.75, 0.75, 0.5, 0.5)
        assert np.array_equal(same, block_lengths_iid_loop(ua, 0.75))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kernels.block_lengths_markov(np.zeros((4, 2)), np.zeros((4, 3)), 0.5, 0.5, 0.5, 0.5, 0.5)


def _round_inputs(rng, gamma, d, sigma_d, sigma_t, lam, gap):
    mu_q = rng.standard_normal((gamma, d))
    mu_p = mu_q + gap * rng.standard_normal((gamma, d))
    xs = mu_q + sigma_d * rng.standard_normal((gamma, d))
    params = np.array(
        [
            1.0 / sigma_d**2,
            1.0 / sigma_t**2,
            math.log(lam),
            d * math.log(2.0 * math.pi * sigma_d**2),
            d * math.log(2.0 * math.pi * sigma_t**2),
        ]
    )
    return xs, mu_q, mu_p, params


class TestRoundAccept:
    # The kernel sums over the patch dimension in numpy's order and the
    # reference element by element, so each log density may differ by a few
    # ulps of the magnitude of its terms (the squared-distance sum and the
    # normalizer); alpha = exp(log_p - log_q + log lambda) inherits those
    # errors as a relative error.
    ULPS = 8

    def _check(self, xs, uniforms, mu_q, mu_p, params):
        gamma = xs.shape[0]
        log_q, log_p, alphas = np.empty(gamma), np.empty(gamma), np.empty(gamma)
        n = kernels.round_accept(xs, uniforms, mu_q, mu_p, log_q, log_p, alphas, params)
        ref_n, ref_q, ref_p, ref_a = round_accept_loop(xs, uniforms, mu_q, mu_p, params)
        assert isinstance(n, int)
        assert n == ref_n
        tol = self.ULPS * np.finfo(np.float64).eps
        mag_q = 0.5 * (((xs - mu_q) ** 2).sum(axis=1) * params[0] + abs(params[3]))
        mag_p = 0.5 * (((xs - mu_p) ** 2).sum(axis=1) * params[1] + abs(params[4]))
        assert np.all(np.abs(log_q - ref_q) <= tol * mag_q)
        assert np.all(np.abs(log_p - ref_p) <= tol * mag_p)
        mag_a = mag_q + mag_p + abs(params[2])
        assert np.all(np.abs(alphas - ref_a) <= tol * mag_a * ref_a)
        assert np.all((alphas >= 0.0) & (alphas <= 1.0))
        return n, ref_a

    def test_random_rounds_match_reference(self):
        rng = np.random.default_rng(10)
        seen = set()
        for trial in range(400):
            gamma = int(rng.integers(1, 7))
            d = int(rng.choice([1, 3, 8, 32]))
            sigma_d = float(rng.choice([0.1, 1.0]))
            sigma_t = sigma_d if trial % 4 else float(rng.uniform(0.5, 2.0))
            lam = float(rng.choice([1.0, 0.5, 3.0]))
            xs, mu_q, mu_p, params = _round_inputs(rng, gamma, d, sigma_d, sigma_t, lam, gap=0.1)
            n, _ = self._check(xs, rng.random(gamma), mu_q, mu_p, params)
            seen.add(n == gamma)
        assert seen == {True, False}  # both full-accept and rejecting rounds occur

    def test_all_accept_round(self):
        rng = np.random.default_rng(11)
        gamma, d = 4, 32
        xs, mu_q, _, params = _round_inputs(rng, gamma, d, 1.0, 1.0, 1.0, gap=0.0)
        # identical heads: every alpha is exactly 1, so any uniform accepts
        n, ref_a = self._check(xs, np.full(gamma, 1.0 - 1e-12), mu_q, mu_q.copy(), params)
        assert n == gamma
        assert np.all(ref_a == 1.0)

    def test_first_position_rejection(self):
        rng = np.random.default_rng(12)
        gamma, d = 3, 8
        xs, mu_q, mu_p, params = _round_inputs(rng, gamma, d, 0.1, 0.1, 1.0, gap=0.0)
        mu_p[0] += 5.0  # target far from the first proposal: alpha_0 ~ 0
        n, ref_a = self._check(xs, np.array([0.5, 0.0, 0.0]), mu_q, mu_p, params)
        assert n == 0
        assert ref_a[0] < 1e-100
