"""The decode round's acceptance kernel, and the columns derived from it.

``round_accept`` is the decode engine's per-round scoring and acceptance
scan. Its only numpy work is one subtract, square and reduce over the
stacked (2, gamma, d) draft and target means, which writes the squared
distances ||x_j - mu_q,j||^2 and ||x_j - mu_p,j||^2 of every proposal
straight into the round's row of the trace's ``dists`` column. The scan
then runs on Python floats: the log densities, their log ratio and the
acceptance probability of each position, up to the first rejection. It
consumes pre-drawn uniforms, so its output is a pure function of the inputs.
The draft and target heads share one isotropic width, so the kernel's
constants are three floats: that width's inverse variance and log
normalizer, and log tolerance_lambda.

The trace stores only the distances. ``acceptance_columns`` derives the
exported ``log_q``, ``log_p`` and ``alphas`` columns from them when they are
first read, with the scan's operation order and its exponential, so an
exported alpha is exactly the number the scan compared its uniform with.
A loop-form reference implementation lives with the tests, which check the
kernel against it. ``perfbench``'s ``kernels.round_accept_us`` times the span
around the call, mostly the wrapper's own cost; the kernel itself takes
about 4 us per call at gamma 3.
"""

from __future__ import annotations

import numpy as np

__all__ = ["acceptance_columns", "round_accept"]


def round_accept(xs, uniforms, mus, scratch, dists, params) -> int:
    """Decode-round inner math: score proposals and scan for acceptance.

    ``xs`` holds the round's gamma proposals and ``uniforms`` their
    acceptance uniforms as floats. ``mus`` stacks the draft (row 0) and
    target (row 1) means at the gamma proposal positions, shape (2, gamma,
    d); ``scratch`` has that shape too. The squared distances of the
    proposals to both means are written into ``dists`` (2, gamma), which the
    engine passes as a row of its trace column.

    ``params = (inv_var, log_norm, log_lambda)`` are floats: the inverse
    variance and the log normalizer of the one head width both heads share,
    and log tolerance_lambda. Each position j keeps the operation order
    ``log_q = -0.5 * (dists[0, j] * inv_var + log_norm)`` (log_p alike),
    ``alpha = exp(min(0, log_p - log_q + log_lambda))``, with numpy's exp,
    as ``acceptance_columns`` does; alpha is computed only where the scan
    compares it. Returns the accepted run length n, or -1 when the log ratio
    of any of the gamma positions, past the first rejection too, is NaN (an
    infinite one gives alpha 0 or 1). Python's min() would hide a NaN, so
    the scan tests for it itself.
    """
    np.subtract(xs, mus, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    np.add.reduce(scratch, axis=2, out=dists)
    inv_var, log_norm, log_lambda = params
    dist_q, dist_p = dists.tolist()
    n = len(dist_q)
    for j, (dq, dp) in enumerate(zip(dist_q, dist_p)):
        log_ratio = -0.5 * (dp * inv_var + log_norm) - -0.5 * (dq * inv_var + log_norm) + log_lambda
        if log_ratio != log_ratio:
            return -1
        if j < n and not uniforms[j] < (1.0 if log_ratio >= 0.0 else np.exp(log_ratio)):
            n = j
    return n


def acceptance_columns(dists: np.ndarray, params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log_q, log_p, alphas) of stored squared distances, as ``round_accept`` scores them.

    ``dists`` has shape (..., 2, gamma); each result has shape (..., gamma).
    """
    inv_var, log_norm, log_lambda = params
    log_q = -0.5 * (dists[..., 0, :] * inv_var + log_norm)
    log_p = -0.5 * (dists[..., 1, :] * inv_var + log_norm)
    alphas = np.exp(np.minimum(0.0, log_p - log_q + log_lambda))
    return log_q, log_p, alphas
