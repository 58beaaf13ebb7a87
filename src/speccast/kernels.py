"""Vectorized numpy kernels for the decode round and the Monte Carlo suites.

``round_accept`` is the decode engine's per-round scoring and acceptance
scan: it scores the draft and target densities of a round's proposals as one
stacked (2, gamma, d) computation and writes the log densities and
acceptance probabilities straight into the rows of the engine's trace
columns. ``block_lengths_markov`` simulates capped block lengths for the
dependence-bound validation suite. Both consume pre-drawn random numbers,
so their output is a pure function of the inputs. Loop-form reference
implementations live with the tests, which check these kernels against them;
the per-round kernel cost is reported by ``perfbench`` as
``kernels.round_accept_us``.
"""

from __future__ import annotations

import math

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


def round_accept(xs, uniforms, mus, scratch, logs, alphas, params) -> int:
    """Decode-round inner math: score proposals and scan for acceptance.

    ``xs`` holds the round's gamma proposals and ``uniforms`` their
    acceptance uniforms as floats. ``mus`` stacks the draft (row 0) and
    target (row 1) means at the gamma proposal positions, shape (2, gamma, d), so both log densities come from
    one (2, gamma, d) computation in ``scratch``. They are written into
    ``logs`` (2, gamma) and the acceptance probabilities into ``alphas``
    (gamma,); the engine passes rows of its trace columns, so nothing is
    copied afterwards. Each element keeps the operation order
    ``-0.5 * (sum(diff**2) * inv_var + log_norm)`` and
    ``exp(min(0, log_p - log_q + log lambda))``.

    ``params = (inv_var, log_norm, neg_half, log_lambda, zero)`` holds the
    constants as arrays of the operands' shapes, (2, gamma) for the first
    three and (gamma,) for the last two: a same-shape operand is cheaper
    than a broadcast or a Python scalar at these sizes. Returns the accepted
    run length n, or -1 when an acceptance probability is not finite.
    """
    inv_var, log_norm, neg_half, log_lambda, zero = params
    np.subtract(xs, mus, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    np.add.reduce(scratch, axis=2, out=logs)
    np.multiply(logs, inv_var, out=logs)
    np.add(logs, log_norm, out=logs)
    np.multiply(neg_half, logs, out=logs)
    np.subtract(logs[1], logs[0], out=alphas)
    np.add(alphas, log_lambda, out=alphas)
    np.minimum(zero, alphas, out=alphas)
    np.exp(alphas, out=alphas)
    a = alphas.tolist()
    if not math.isfinite(sum(a)):
        return -1
    # The scan compares Python floats: indexing the arrays would box a numpy
    # scalar per comparison.
    gamma = len(a)
    n = 0
    while n < gamma and uniforms[n] < a[n]:
        n += 1
    return n
