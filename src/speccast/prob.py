"""Gaussian probability kernel: overlap laws on the whitened mean gap, residual sampling.

The target and draft heads share one isotropic variance, the setting of the
paper's closed-form overlap and of every predictor built on it. Whitened by
that variance, two heads differ only along their mean gap, so every overlap
law is a function of one number, the whitened gap
Delta = |mu_p - mu_q| / sigma (``whitened_gap``, batched along the last
axis):

- ``overlap`` is the mean acceptance E_q[min(1, lambda p/q)] in closed
  form, elementwise; at tolerance lambda = 1 it is the overlap
  beta = 2 Phi(-Delta/2), whose inverse is ``gap_for_overlap``.
- ``overlap_monte_carlo`` is an independent 1-d reference for beta: the
  unit normals N(0, 1) and N(Delta, 1) stand for the heads, as their
  coordinate along the gap. The deviation bounds in ``analysis`` are closed
  forms on the same line.

A head is a mean and one width: ``GaussianHead`` is only the validated
(mean, variance) pair type of ``analysis.estimate_alpha``, with one float
variance, kept as given however small. The harness takes its gaps from
mean rows directly, and the decode engine builds no head either: it
scores rounds with ``kernels.round_accept`` and closes a rejected lossless
round with ``residual_sample`` on its raw mean rows and the rejected
proposal's own noise, written into the round's closing row.

The residual (p - q)_+ of two such heads is sampled by reflection: the
mirror R across the bisector of the two means swaps them and keeps every
distance, so q(R x) = p(x) for heads of one isotropic width, and R maps a
proposal that min(1, p/q) rejected, a draw of (q - p)_+ / (1 - beta), to a
draw of (p - q)_+ / (1 - beta). ``residual_sample`` draws nothing and needs
no sigma: it costs one subtract, two dot products, one scaling and two adds,
whatever the overlap beta < 1 is.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri


@dataclass(frozen=True)
class GaussianHead:
    """Per-step predictive density N(mean, variance I): a mean and one variance.

    ``variance`` is one float, the variance of every dimension. It is given
    as a scalar, or as a vector whose entries are all equal (one of the
    mean's length, or of length 1); a vector of unequal entries is refused.
    The variance is validated finite and strictly positive, and kept as
    given, however small. The validated (mean, variance) pair that
    ``analysis.estimate_alpha`` takes; the decode path does not build heads.
    """

    mean: np.ndarray
    variance: float

    def __post_init__(self) -> None:
        # One owned float64 copy of the mean.
        mean = np.array(self.mean, dtype=np.float64, ndmin=1)
        var = np.array(self.variance, dtype=np.float64, ndmin=1)
        if mean.ndim != 1 or var.ndim != 1:
            raise ValueError("mean and variance must be 1-d vectors")
        if (var.shape != (1,) and var.shape != mean.shape) or var.size == 0:
            raise ValueError(f"variance shape {var.shape} != mean shape {mean.shape}")
        if not np.isfinite(mean).all():
            raise ValueError("head mean has non-finite entries")
        if not np.isfinite(var).all():
            raise ValueError("head variance has non-finite entries")
        if not (var > 0.0).all():
            raise ValueError("head variance entries must be strictly positive")
        if not (var == var[0]).all():
            raise ValueError(f"head variance must be isotropic, got unequal entries {var.tolist()}")
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", float(var[0]))

    @classmethod
    def isotropic(cls, mean, sigma: float) -> "GaussianHead":
        sigma = float(sigma)
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {sigma}")
        return cls(mean, sigma ** 2)

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def whitened_gap(mu_p, mu_q, variance):
    """Delta = sqrt(sum((mu_p - mu_q)^2 / variance)) along the last axis.

    The arguments broadcast against each other, so a batch of mean rows
    (N, d) with one variance row (d,), or a scalar variance, gives N gaps.
    """
    mu_p = np.asarray(mu_p, dtype=np.float64)
    return np.sqrt(np.sum((mu_p - mu_q) ** 2 / variance, axis=-1))


def overlap(delta, tolerance_lambda: float = 1.0):
    """E_q[min(1, lambda p/q)] of heads a whitened gap Delta apart, elementwise.

    The mean acceptance of a proposal from q under tolerance ``lambda``.
    Along the gap the rule accepts surely below x* = Delta/2 + ln(lambda)/Delta
    and with probability lambda p/q above it, so the mean is
    min(1, Phi(x* - Delta) + lambda Phi(-x*)): min(1, lambda) at Delta = 0,
    and at lambda = 1 the canonical overlap beta = 2 Phi(-Delta/2).
    """
    if tolerance_lambda == 1.0:
        return 2.0 * ndtr(-0.5 * delta)
    lam = float(tolerance_lambda)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"tolerance_lambda must be finite and > 0, got {tolerance_lambda}")
    delta = np.asarray(delta, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):  # x* = +-inf at Delta = 0 gives min(1, lambda)
        x_star = 0.5 * delta + math.log(lam) / delta
    return np.minimum(1.0, ndtr(x_star - delta) + lam * ndtr(-x_star))


def gap_for_overlap(beta: float) -> float:
    """Invert beta = 2*Phi(-Delta/2): the inverse of ``overlap`` at tolerance_lambda = 1."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly in (0, 1)")
    return float(-2.0 * ndtri(beta / 2.0))


def check_gap(delta: float) -> float:
    """The whitened gap as a float; ValueError unless it is finite and >= 0."""
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"whitened gap must be finite and >= 0, got {delta}")
    return delta


def overlap_monte_carlo(delta: float, n: int, rng: np.random.Generator):
    """(beta, standard error): the mean of min(1, p/q) over n draws X ~ q, unbiased.

    p = N(0, 1) and q = N(Delta, 1), so log p(X) - log q(X) = -Delta (z + Delta/2)
    for X = Delta + z; n standard normals are drawn from ``rng``. One draw
    has no standard error: it is NaN at n = 1.
    """
    delta = check_gap(delta)
    if n < 1:
        raise ValueError("Monte Carlo overlap requires n >= 1")
    z = rng.standard_normal(n)
    w = np.exp(np.minimum(0.0, -delta * (z + 0.5 * delta)))
    se = float(np.std(w, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return float(np.mean(w)), se


_TINY = sys.float_info.min  # the least normal float


def residual_sample(mu_p: np.ndarray, mu_q: np.ndarray, eps: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, int]:
    """Reflect a rejected proposal into an exact residual draw, written into ``out``.

    p and q are the Gaussians N(mu_p, sigma^2 I) and N(mu_q, sigma^2 I) with
    means ``mu_p``/``mu_q`` (float64 vectors) and one shared width, and
    ``eps`` is the noise of the rejected proposal x = mu_q + eps, which
    ``out`` holds (the decode's closing row). The call writes into ``out``
    the reflection of x across the bisector of the two means,

        R(x) = x + (1 - 2 eps . g / g . g) g,   g = mu_p - mu_q,

    taken as mu_p + eps - 2 (eps . g / g . g) g, which is the same point but
    does not cancel x against g when the means are far apart. Returns
    ``out`` and the number of target variates consumed, always 1. Nothing
    is drawn or allocated, no input is written, and sigma is not needed:
    one subtract, two dot products, one scaling and two adds.

    Why it is exact (the reflection-maximal coupling, Jacob, O'Leary &
    Atchade 2020): R is the mirror that swaps the two means and keeps every
    distance, so for heads of one isotropic width q(R y) = p(y) and
    p(R y) = q(y). A proposal rejected by min(1, p/q) has the law
    (q - p)_+ / (1 - beta), so R(x) has the law (p - q)_+ / (1 - beta), the
    residual of Leviathan et al. 2023. It holds only at tolerance_lambda = 1:
    a proposal rejected by min(1, lambda p/q) has the law (q - lambda p)_+,
    whose mirror is not the residual.

    Where g . g overflows or underflows, g is rescaled by its largest entry
    first. A non-finite mean, or identical means (where the residual is
    undefined), raises ValueError. The four vectors must have one shape,
    which the call does not check: the decode engine passes rows of its
    own buffers, all of the models' one patch width.
    """
    g = np.subtract(mu_p, mu_q, out=out)
    gg = float(g.dot(g))
    if not _TINY <= gg < math.inf:
        # A mean is not finite, the means coincide, or the square of the
        # gap left the normal range: rescale the gap by its largest entry.
        if not (np.isfinite(mu_p).all() and np.isfinite(mu_q).all()):
            raise ValueError("head mean has non-finite entries")
        big = float(np.abs(g).max())
        if big == 0.0:
            raise ValueError("residual undefined: the heads' means coincide")
        g /= big
        gg = float(g.dot(g))
    g *= -2.0 * float(eps.dot(g)) / gg
    g += mu_p
    g += eps
    return out, 1
