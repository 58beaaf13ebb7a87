"""The decode round's numpy kernel.

``round_accept`` is the decode engine's per-round scoring and acceptance
scan: it scores the draft and target densities of a round's proposals as one
stacked (2, gamma, d) computation and writes the log densities and
acceptance probabilities straight into the rows of the engine's trace
columns. It consumes pre-drawn uniforms, so its output is a pure function of
the inputs. A loop-form reference implementation lives with the tests, which
check the kernel against it; the per-round kernel cost is reported by
``perfbench`` as ``kernels.round_accept_us``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["round_accept"]


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
