"""Vectorized numpy kernels for the decode round and the Monte Carlo suites.

``round_accept`` is the decode engine's per-round scoring and acceptance
scan; ``block_lengths_markov`` simulates capped block lengths for the
dependence-bound validation suite. Both consume pre-drawn random arrays, so
their output is a pure function of the inputs. Loop-form reference
implementations live with the tests, which check these kernels against them;
the per-round kernel cost is reported by ``perfbench`` as
``kernels.round_accept_us``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["block_lengths_markov", "round_accept"]


def block_lengths_markov(
    u_accept,
    u_state,
    pi1: float,
    a0: float,
    a1: float,
    t01: float,
    t10: float,
) -> np.ndarray:
    """Block lengths under a hidden two-state Markov acceptance chain.

    A hidden chain s modulates the per-position acceptance probability (a0
    in state 0, a1 in state 1); it starts in state 1 with probability pi1
    and moves with t01 = P(0 -> 1), t10 = P(1 -> 0). ``u_accept`` and
    ``u_state`` have shape (rounds, gamma); returns int64 lengths L =
    accepted prefix + 1 in {1, ..., gamma + 1}. Every conditional acceptance
    probability lies in [min(a0, a1), max(a0, a1)], the regime of the
    dependence-bound interval; a0 == a1 is i.i.d. acceptance.
    """
    ua = np.ascontiguousarray(u_accept, dtype=np.float64)
    us = np.ascontiguousarray(u_state, dtype=np.float64)
    if ua.shape != us.shape:
        raise ValueError("u_accept and u_state must share a shape")
    n, gamma = ua.shape
    out = np.full(n, gamma + 1, dtype=np.int64)
    s = us[:, 0] < pi1
    alive = np.ones(n, dtype=np.bool_)
    for i in range(gamma):
        a = np.where(s, a1, a0)
        rej = alive & (ua[:, i] >= a)
        out[rej] = i + 1
        alive &= ~rej
        if i + 1 < gamma:
            u = us[:, i + 1]
            s = np.where(s, ~(u < t10), u < t01)
    return out


def round_accept(xs, uniforms, mu_q, mu_p, log_q, log_p, alphas, params) -> int:
    """Decode-round inner math: score proposals and scan for acceptance.

    Writes per-position log densities and acceptance probabilities into the
    provided buffers and returns the accepted run length n.
    ``params = (1/var_d, 1/var_t, log lambda, log norm_d, log norm_t)``.
    """
    gamma = xs.shape[0]
    inv_var_d, inv_var_t, log_lambda = params[0], params[1], params[2]
    dq = xs - mu_q
    dp = xs - mu_p
    log_q[:] = -0.5 * ((dq * dq).sum(axis=1) * inv_var_d + params[3])
    log_p[:] = -0.5 * ((dp * dp).sum(axis=1) * inv_var_t + params[4])
    np.exp(np.minimum(0.0, log_p - log_q + log_lambda), out=alphas)
    n = 0
    while n < gamma and uniforms[n] < alphas[n]:
        n += 1
    return n
