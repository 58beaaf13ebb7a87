"""Stream keying/reuse, and the round kernel against its loop-form reference."""

import math

import numpy as np
import pytest

from speccast import kernels
from speccast import rng as rngmod


class TestStreams:
    def test_distinct_keys_distinct_draws(self):
        a = rngmod.stream(1, 0, rngmod.ROUND).random(8)
        e = rngmod.stream(1, 0, rngmod.DIRECT).random(8)
        c = rngmod.stream(1, 1, rngmod.ROUND).random(8)
        d = rngmod.stream(2, 0, rngmod.ROUND).random(8)
        assert not np.array_equal(a, e)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_same_key_replays(self):
        a = rngmod.stream(5, 3, rngmod.ROUND).standard_normal(16)
        b = rngmod.stream(5, 3, rngmod.ROUND).standard_normal(16)
        assert np.array_equal(a, b)

    def test_reusable_matches_fresh(self):
        pool = rngmod.ReusableStream()
        for key in [(1, 0, rngmod.ROUND), (1, 1, rngmod.DIRECT), (9, 2, rngmod.ROUND)]:
            gen = pool.rekey(*key)
            got = (gen.random(4), gen.standard_normal(3))
            fresh = rngmod.stream(*key)
            want = (fresh.random(4), fresh.standard_normal(3))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_rekey_matches_fresh_whatever_the_previous_key_left(self):
        # One state document serves every rekey. Whatever the previous key's
        # generator left behind (nothing, a cached 32-bit half-word from a
        # uint32 draw, a partly used buffer, a counter far past zero), the
        # draws after a rekey are a fresh stream's; the first one is a
        # uint32 draw, which would return a stale half-word.
        pool = rngmod.ReusableStream()
        leftovers = [
            lambda g: None,
            lambda g: g.integers(0, 1 << 20, size=3, dtype=np.uint32),
            lambda g: g.random(5),
            lambda g: g.standard_normal(1001),
            lambda g: g.integers(0, 7, dtype=np.uint32),
        ]
        draws = [
            lambda g: g.integers(0, 1 << 30, size=5, dtype=np.uint32),
            lambda g: g.random(7),
            lambda g: g.standard_normal(3),
        ]
        keys = [(0, 0, rngmod.ROUND), (1, 0, rngmod.DIRECT), ((1 << 64) - 1, (1 << 48) - 1, rngmod.ROUND),
                (12345, 17, rngmod.DIRECT), (9, 2, rngmod.ROUND)]
        for leave in leftovers:
            for key in keys:
                gen, fresh = pool.rekey(*key), rngmod.stream(*key)
                for draw in draws:
                    assert np.array_equal(draw(gen), draw(fresh)), key
                leave(gen)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            rngmod.stream(0, -1, 0)

    def test_derive_seed_stable_and_distinct(self):
        assert rngmod.derive_seed(7, 1, 2) == rngmod.derive_seed(7, 1, 2)
        assert rngmod.derive_seed(7, 1, 2) != rngmod.derive_seed(7, 2, 1)


# ---------------------------------------------------------------------------
# Loop-form reference implementation: one scalar step at a time, written
# for clarity rather than speed. The vectorized kernel must agree with it.
# ---------------------------------------------------------------------------

def round_accept_loop(xs, uniforms, mu_q, mu_p, params):
    """(n, log_q, log_p, alphas) for one round, element by element.

    ``params = (inv_var, log_norm, log_lambda)`` of the one head width both
    heads share.
    """
    gamma, d = xs.shape
    inv_var, log_norm, log_lambda = params
    log_q, log_p, alphas = np.empty(gamma), np.empty(gamma), np.empty(gamma)
    for i in range(gamma):
        acc_q = 0.0
        acc_p = 0.0
        for j in range(d):
            dq = xs[i, j] - mu_q[i, j]
            dp = xs[i, j] - mu_p[i, j]
            acc_q = acc_q + dq * dq * inv_var
            acc_p = acc_p + dp * dp * inv_var
        log_q[i] = -0.5 * (acc_q + log_norm)
        log_p[i] = -0.5 * (acc_p + log_norm)
        la = log_p[i] - log_q[i] + log_lambda
        if la > 0.0:
            la = 0.0
        alphas[i] = math.exp(la)
    n = 0
    while n < gamma and uniforms[n] < alphas[n]:
        n += 1
    return n, log_q, log_p, alphas


def _round_inputs(rng, gamma, d, sigma, lam, gap):
    mu_q = rng.standard_normal((gamma, d))
    mu_p = mu_q + gap * rng.standard_normal((gamma, d))
    xs = mu_q + sigma * rng.standard_normal((gamma, d))
    params = (1.0 / sigma**2, d * math.log(2.0 * math.pi * sigma**2), math.log(lam))
    return xs, mu_q, mu_p, params


def _run_kernel(xs, uniforms, mu_q, mu_p, params):
    """Call round_accept with the reference's params; (n, log_q, log_p, alphas).

    The kernel stores the squared distances; the log densities and alphas
    are the columns ``acceptance_columns`` derives from them.
    """
    gamma, d = xs.shape
    dists = np.empty((2, gamma))
    n = kernels.round_accept(xs, list(uniforms), np.stack([mu_q, mu_p]), np.empty((2, gamma, d)), dists, params)
    return (n, *kernels.acceptance_columns(dists, params))


class TestRoundAccept:
    # The kernel sums over the patch dimension in numpy's order and the
    # reference element by element, so each log density may differ by a few
    # ulps of the magnitude of its terms (the squared-distance sum and the
    # normalizer); alpha = exp(log_p - log_q + log lambda) inherits those
    # errors as a relative error.
    ULPS = 8

    def _check(self, xs, uniforms, mu_q, mu_p, params):
        n, log_q, log_p, alphas = _run_kernel(xs, uniforms, mu_q, mu_p, params)
        ref_n, ref_q, ref_p, ref_a = round_accept_loop(xs, uniforms, mu_q, mu_p, params)
        assert isinstance(n, int)
        assert n == ref_n
        tol = self.ULPS * np.finfo(np.float64).eps
        mag_q = 0.5 * (((xs - mu_q) ** 2).sum(axis=1) * params[0] + abs(params[1]))
        mag_p = 0.5 * (((xs - mu_p) ** 2).sum(axis=1) * params[0] + abs(params[1]))
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
            sigma = float(rng.choice([0.1, 1.0])) if trial % 4 else float(rng.uniform(0.5, 2.0))
            lam = float(rng.choice([1.0, 0.5, 3.0]))
            xs, mu_q, mu_p, params = _round_inputs(rng, gamma, d, sigma, lam, gap=0.1)
            n, _ = self._check(xs, rng.random(gamma), mu_q, mu_p, params)
            seen.add(n == gamma)
        assert seen == {True, False}  # both full-accept and rejecting rounds occur

    def test_all_accept_round(self):
        rng = np.random.default_rng(11)
        gamma, d = 4, 32
        xs, mu_q, _, params = _round_inputs(rng, gamma, d, 1.0, 1.0, gap=0.0)
        # identical heads: every alpha is exactly 1, so any uniform accepts
        n, ref_a = self._check(xs, np.full(gamma, 1.0 - 1e-12), mu_q, mu_q.copy(), params)
        assert n == gamma
        assert np.all(ref_a == 1.0)

    def test_first_position_rejection(self):
        rng = np.random.default_rng(12)
        gamma, d = 3, 8
        xs, mu_q, mu_p, params = _round_inputs(rng, gamma, d, 0.1, 1.0, gap=0.0)
        mu_p[0] += 5.0  # target far from the first proposal: alpha_0 ~ 0
        n, ref_a = self._check(xs, np.array([0.5, 0.0, 0.0]), mu_q, mu_p, params)
        assert n == 0
        assert ref_a[0] < 1e-100

    def test_non_finite_alpha_flagged(self):
        rng = np.random.default_rng(13)
        xs, mu_q, mu_p, params = _round_inputs(rng, 3, 4, 1.0, 1.0, gap=0.1)
        mu_q[1, 2] = np.nan  # a NaN draft mean at the second position
        n, _, _, alphas = _run_kernel(xs, np.zeros(3), mu_q, mu_p, params)
        assert n == -1
        assert np.isnan(alphas[1]) and np.isfinite(alphas[[0, 2]]).all()

    def test_nan_past_the_first_rejection_is_flagged(self):
        # The scan stops at the first rejection, but a NaN log ratio at any
        # of the gamma positions still flags the round, as the all-position
        # check on the alphas did; Python's min(0.0, nan) is 0.0, so the scan
        # tests for NaN itself
        rng = np.random.default_rng(14)
        xs, mu_q, mu_p, params = _round_inputs(rng, 3, 4, 1.0, 1.0, gap=0.1)
        uniforms = [1.0, 0.0, 0.0]  # alpha <= 1: the first proposal is rejected
        assert _run_kernel(xs, uniforms, mu_q, mu_p, params)[0] == 0
        mu_p[2, 0] = np.nan
        n, _, _, alphas = _run_kernel(xs, uniforms, mu_q, mu_p, params)
        assert n == -1 and np.isnan(alphas[2])
        # both means infinite at one position: inf - inf in the log ratio
        mu_p[2, 0] = mu_q[2, 0] = np.inf
        with np.errstate(invalid="ignore"):
            assert _run_kernel(xs, uniforms, mu_q, mu_p, params)[0] == -1

    def test_infinite_log_ratio_is_not_flagged(self):
        # An infinite squared distance makes the log ratio infinite, and
        # alpha exactly 0 (the target's) or 1 (the draft's): a decision, not
        # an abort
        rng = np.random.default_rng(15)
        xs, mu_q, mu_p, params = _round_inputs(rng, 3, 4, 1.0, 1.0, gap=0.1)
        mu_q[0, 1] = np.inf
        mu_p[1, 3] = -np.inf
        n, log_q, log_p, alphas = _run_kernel(xs, [0.999, 0.0, 0.0], mu_q, mu_p, params)
        assert n == 1
        assert log_q[0] == -np.inf and log_p[1] == -np.inf
        assert alphas[0] == 1.0 and alphas[1] == 0.0


class TestAcceptanceBoundary:
    def test_scan_compares_the_exported_alpha(self):
        # Uniforms placed exactly at the exported alpha reject, and one ulp
        # below it accept, at every position. math.exp and numpy's exp differ
        # in the last ulp on a few percent of inputs, so a scan that took
        # another exp than acceptance_columns would fail here.
        rng = np.random.default_rng(16)
        other_exp = 0
        for _ in range(300):
            gamma, d = int(rng.integers(1, 6)), int(rng.choice([1, 8, 32]))
            xs, mu_q, mu_p, params = _round_inputs(rng, gamma, d, 1.0, float(rng.choice([1.0, 0.5])), gap=0.3)
            _, log_q, log_p, alphas = _run_kernel(xs, np.zeros(gamma), mu_q, mu_p, params)
            for j in range(gamma):
                below = [math.nextafter(a, 0.0) for a in alphas[:j].tolist()]
                if not all(b < a for b, a in zip(below, alphas[:j].tolist())):
                    continue  # an alpha of 0 cannot be accepted
                assert _run_kernel(xs, below + [alphas[j]] + [0.0] * (gamma - j - 1), mu_q, mu_p, params)[0] == j
                if alphas[j] > 0.0:
                    n = _run_kernel(xs, below + [math.nextafter(alphas[j], 0.0)] + [1.0] * (gamma - j - 1),
                                    mu_q, mu_p, params)[0]
                    assert n == j + 1
                la = min(float(log_p[j] - log_q[j] + params[2]), 0.0)
                other_exp += math.exp(la) != alphas[j]
        assert other_exp > 0  # the cases that tell the two exps apart were tested
