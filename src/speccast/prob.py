"""Gaussian probability kernel: overlap laws on the whitened mean gap, residual sampling.

The target and draft heads share one isotropic variance, the setting of the
paper's closed-form overlap and of every predictor built on it. Whitened by
that variance, two heads differ only along their mean gap, so every overlap
law is a function of one number, the whitened gap
Delta = |mu_p - mu_q| / sigma (``whitened_gap``, batched along the last
axis):

- ``overlap`` is the closed form beta = 2 Phi(-Delta/2), elementwise; its
  inverse is ``gap_for_overlap``.
- ``overlap_quadrature`` and ``overlap_monte_carlo`` are independent 1-d
  references for beta: the unit normals N(0, 1) and N(Delta, 1) stand for
  the heads, as their coordinate along the gap. The deviation bounds in
  ``analysis`` integrate on the same line, over ``GridSpec.for_gap``.

A head is a mean and one width: ``GaussianHead`` is the validated (mean,
variance) pair that the acceptance estimator takes, with one float
variance, kept as given however small. The decode engine builds none: it
scores rounds with ``kernels.round_accept`` and closes a rejected lossless
round with ``residual_sample`` on its raw mean rows, its one float sigma and
the round's one pre-drawn target variate, written into the round's closing
row. ``VARIANCE_FLOOR`` is the least variance a lossless decode accepts.

The residual (p - q)_+ of two such heads is sampled exactly, by projection
onto their mean gap: whitened, the heads differ only along the unit gap u,
so the residual is N(0, I) across u and a 1-d law along it, whose survival
function ``residual_offset`` inverts. ``residual_sample`` draws nothing: it
maps a target variate e ~ N(0, sigma^2 I), keeping e's part across the gap
and quantile-mapping its N(0, 1) coordinate along it. It writes the draw
into a row of the caller's: the target draw mu_p + e plus one multiple of
the mean gap, found from two dot products and the root in two work rows of
the caller's, so it allocates nothing. A map costs a handful of vector
operations and a 1-d root of about two Halley steps, whatever the overlap
beta is, and every beta < 1 is served.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

VARIANCE_FLOOR = 1e-12  # the least head variance a lossless decode accepts

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


def overlap(delta):
    """beta = 2 Phi(-Delta/2) of heads a whitened gap Delta apart, elementwise."""
    return 2.0 * ndtr(-0.5 * delta)


def gap_for_overlap(beta: float) -> float:
    """Invert beta = 2*Phi(-Delta/2): the inverse of ``overlap``."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly in (0, 1)")
    return float(-2.0 * ndtri(beta / 2.0))


def _check_gap(delta: float) -> float:
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"whitened gap must be finite and >= 0, got {delta}")
    return delta


@dataclass(frozen=True)
class GridSpec:
    """1-d quadrature grid covering all relevant mass.

    ``for_gap`` covers the unit normals at 0 and Delta, +/- 8 from their
    means with 2^14 base points; Gaussian tail mass beyond 8 sigma is below
    1e-15.
    """

    lo: float
    hi: float
    points: int = 2 ** 14

    def __post_init__(self) -> None:
        if not self.hi > self.lo:
            raise ValueError("grid upper bound must exceed lower bound")
        if self.points < 16:
            raise ValueError("grid needs at least 16 points")

    @classmethod
    def for_gap(cls, delta: float) -> "GridSpec":
        return cls(lo=-8.0, hi=_check_gap(delta) + 8.0)


_MAX_POINTS = 2 ** 21  # refined_trapezoid stops refining at this many points


def refined_trapezoid(fn: Callable[[np.ndarray], np.ndarray], grid: GridSpec, abs_tol: float) -> float:
    """Trapezoid rule with doubling refinement to the requested tolerance,
    up to ``_MAX_POINTS`` points."""
    n = grid.points
    xs = np.linspace(grid.lo, grid.hi, n)
    prev = float(np.trapezoid(np.asarray(fn(xs), dtype=np.float64), xs))
    while n < _MAX_POINTS:
        n = 2 * n - 1
        xs = np.linspace(grid.lo, grid.hi, n)
        cur = float(np.trapezoid(np.asarray(fn(xs), dtype=np.float64), xs))
        if abs(cur - prev) <= abs_tol:
            return cur
        prev = cur
    return prev


def overlap_quadrature(delta: float) -> float:
    """beta = integral of min(N(0, 1), N(Delta, 1)) by quadrature, to abs error <= 1e-8."""
    grid = GridSpec.for_gap(delta)
    # min(p, q) at x is the density of the farther of the two means
    beta = refined_trapezoid(
        lambda x: _INV_SQRT_2PI * np.exp(-0.5 * np.maximum(x * x, (x - delta) ** 2)), grid, abs_tol=1e-8
    )
    return min(1.0, max(0.0, beta))


def overlap_monte_carlo(delta: float, n: int, rng: np.random.Generator):
    """(beta, standard error): the mean of min(1, p/q) over n draws X ~ q, unbiased.

    p = N(0, 1) and q = N(Delta, 1), so log p(X) - log q(X) = -Delta (z + Delta/2)
    for X = Delta + z; n standard normals are drawn from ``rng``. One draw
    has no standard error: it is NaN at n = 1.
    """
    delta = _check_gap(delta)
    if n < 1:
        raise ValueError("Monte Carlo overlap requires n >= 1")
    z = rng.standard_normal(n)
    w = np.exp(np.minimum(0.0, -delta * (z + 0.5 * delta)))
    se = float(np.std(w, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return float(np.mean(w)), se


_SQRT_HALF = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LOG2 = math.log(2.0)
_erf, _erfc, _exp, _expm1, _log, _log1p, _sqrt = (
    math.erf, math.erfc, math.exp, math.expm1, math.log, math.log1p, math.sqrt
)
_SERIES_H = 1e-4    # below this half-gap, S is a series in h
_HERMITE_H = 1e-2   # below this half-gap, the root search takes n from a Hermite series in h
_HERMITE_TERMS = 6  # its terms beyond the first: to about 1e-15 relative for h s < 0.4
_MIDPOINT = 1e-5    # below this (1 + h^2) s^2, log S is a series in s^2
_TAIL_H = 1.2       # from this half-gap on, the root is sought in t from a normal quantile
_ROOT_RTOL = 1e-12  # converged: a step below this, relative to the variable
_ROOT_CUBIC = 1e-4  # below this, a step's successor is estimated from cubic convergence
_ROOT_NOISE = 1e-6  # a step no smaller than the last one, and below this, is rounding noise
_ROOT_STEPS = 64
_LOG_V_MIN = -690.0  # log of the least survival sought; e^-690 is about 2.5e-300
# Abramowitz & Stegun 26.2.23: the upper-tail normal quantile to 4.5e-4.
_AS_NUM = (2.515517, 0.802853, 0.010328)
_AS_DEN = (1.432788, 0.189269, 0.001308)


def _tail_quantile(log_p: float) -> float:
    """t with log Q(t) = log_p, for log_p < 0, to within 4.5e-4 (Q the normal upper tail).

    Taken from the log, so that no tail probability underflows.
    """
    upper = log_p <= -_LOG2
    w = math.sqrt(-2.0 * (log_p if upper else math.log(-math.expm1(log_p))))
    c0, c1, c2 = _AS_NUM
    d1, d2, d3 = _AS_DEN
    t = w - (c0 + w * (c1 + w * c2)) / (1.0 + w * (d1 + w * (d2 + w * d3)))
    return t if upper else -t


def residual_offset(h: float, log_v: float) -> float:
    """The offset t = s - h at which the residual's survival along the gap is v.

    For unit-variance normals p and q with means h u and -h u (h > 0, u a
    unit vector), the residual (p - q)_+ puts, at distance s >= 0 from the
    midpoint along u, the survival function

        S(s) = [Phi(s + h) - Phi(s - h)] / erf(h / sqrt 2),

    which falls from S(0) = 1 to 0. Returns the root of S(h + t) = v for
    log_v = log v <= 0 (t = -h at log_v = 0), measured from p's mean so that
    it keeps its precision when h is large. Taking v as its log keeps every
    finite log_v, however far out, a finite root.

    Below h = 1e-4, where the erf difference of S cancels, S(s) is
    exp(-s^2 / 2) (1 + h^2 s^2 / 6) to O(h^4 s^4), and one fixed-point step
    from the Rayleigh point y = s^2 = -2 ln v, the root at h = 0, solves it
    to rounding. Above, near the midpoint, where log S is within rounding
    noise of 0, y comes from the series

        log S = -kappa y + kappa ((3 - h^2) / 12 - kappa / 2) y^2 + O(y^3),
        kappa = h phi(h) / erf(h / sqrt 2),

    while (1 + h^2) y < 1e-5, which keeps its relative error below about
    1e-12. Elsewhere log S is concave, and the root comes from Halley's
    method on it inside a bisection bracket. Below h = ``_TAIL_H`` the
    variable is y = s^2, in which log S is linear as h -> 0, and the start is
    the Rayleigh point. From ``_TAIL_H`` on the variable is t, and the start
    is the normal quantile of v erf(h / sqrt 2). Below h = ``_HERMITE_H``
    (1e-2), where an erf or erfc difference of S cancels to about 1e-16 / h,
    S's numerator comes from its Taylor series in h (``_hermite_ratio``).
    Above, beyond p's mean (t > 0) S is an erfc difference, which does not
    cancel there; elsewhere an erf difference in y, and in t one minus a
    sum of erfc tails, whose log1p keeps log S accurate where S and
    erf(h / sqrt 2) are within rounding of 1 (log v within about 1e-14 of 0
    at h = 6). The search ends at a step below 1e-12 of the variable (of 1,
    for |t| < 1); at a small step whose successor, estimated from the cubic
    convergence of the last two steps, is below that; or at a step that no
    longer shrinks, which is the rounding noise of log S. That noise bounds
    the root near s = 0, where S is within about 1e-3 of 1: there its error
    is about 1e-16 / s, not 1e-12 s. A v below e^-690 (about 2.5e-300), where
    the erfc difference would underflow near the root, is taken as e^-690:
    the law is cut at a tail mass below 1e-299.
    """
    if log_v >= 0.0:
        return -h
    log_v = max(log_v, _LOG_V_MIN)
    if h < _SERIES_H:
        y = -2.0 * log_v
        return math.sqrt(y + 2.0 * math.log1p(h * h * y / 6.0)) - h
    if -log_v < 0.5 * _MIDPOINT:  # kappa <= 1/2, so the series may apply
        kappa = h * _SQRT_2_OVER_PI * math.exp(-0.5 * h * h) / (2.0 * math.erf(h * _SQRT_HALF))
        if -log_v * (1.0 + h * h) < _MIDPOINT * kappa:
            y = -log_v / kappa
            return math.sqrt(y * (1.0 + ((3.0 - h * h) / 12.0 - 0.5 * kappa) * y)) - h
    if h < _TAIL_H:
        log_erf = math.log(math.erf(h * _SQRT_HALF))
        return math.sqrt(_halley_root(h, log_v, log_erf, -2.0 * log_v, True)) - h
    log_erf = math.log1p(-math.erfc(h * _SQRT_HALF))
    return _halley_root(h, log_v, log_erf, _tail_quantile(log_v + log_erf), False)


def _hermite_ratio(h: float, s: float) -> float:
    """[Phi(s + h) - Phi(s - h)] / (2 h phi(s)), the sum of h^2k He_2k(s) / (2k + 1)!.

    Its Taylor series in h, He the probabilists' Hermite polynomials: the
    terms fall as (h s)^2k / (2k + 1)!, and none cancels.
    """
    even, odd = 1.0, s  # He_0, He_1
    scale = total = 1.0
    for n in range(1, 2 * _HERMITE_TERMS, 2):
        even = s * odd - n * even  # He_n+1
        odd = s * even - (n + 1) * odd  # He_n+2
        scale *= h * h / ((n + 1) * (n + 2))
        total += scale * even
    return total


def _halley_root(h: float, log_v: float, log_erf: float, x: float, in_y: bool) -> float:
    """x with log S = log_v, S = n / erf(h / sqrt 2), x = s^2 if ``in_y`` else t.

    ``log_erf`` is log erf(h / sqrt 2). In t, where h >= ``_TAIL_H``, n is
    1 - c up to p's mean, c = [erfc(-t / sqrt 2) + erfc((s + h) / sqrt 2)] / 2,
    and log n = log1p(-c) keeps log S accurate however close to 0 it is,
    where n and erf(h / sqrt 2) both round to 1. So log v is carried apart
    from log erf, g = (log n - log erf) - log v, and the step is taken in
    ratios to the slope, which falls below 1e-160 there at large h.
    """
    two_h = 2.0 * h
    log_ve = log_v + log_erf + _LOG2  # log(2 n) at the root, for the y search
    lo = 0.0 if in_y else -h
    hi = last = math.inf
    for _ in range(_ROOT_STEPS):
        if in_y:
            s = _sqrt(x)
            t = s - h
        else:
            s = x + h
            t = x
        if h < _HERMITE_H:  # in y, where an erf or erfc difference would cancel
            n2 = two_h * _SQRT_2_OVER_PI * _exp(-0.5 * x) * _hermite_ratio(h, s)
        elif t > 0.0:
            n2 = _erfc(t * _SQRT_HALF) - _erfc((s + h) * _SQRT_HALF)
        elif in_y:
            n2 = _erf((s + h) * _SQRT_HALF) - _erf(t * _SQRT_HALF)
        else:
            c = 0.5 * (_erfc(-t * _SQRT_HALF) + _erfc((s + h) * _SQRT_HALF))
            n2 = 2.0 - 2.0 * c
        # -dn/ds = phi(t) m, m = 1 - exp(-2 h s); rate = -d log n / ds.
        m = -_expm1(-two_h * s)
        ph = _SQRT_2_OVER_PI * _exp(-0.5 * t * t) / n2 if n2 > 0.0 else 0.0
        rate = ph * m
        if rate <= 0.0:  # n or its slope underflows far out: the root lies left
            hi = x
            x = 0.5 * (lo + hi)
            last = math.inf
            continue
        # g = log S - log v and its first two derivatives in x; Halley's
        # step, or Newton's where Halley's would head away from the root.
        if in_y:  # d/dy = d/ds / (2 s)
            g = _log(n2) - log_ve
            g1 = -0.5 * rate / s
            g2 = 0.25 * (-rate * rate - ph * (two_h * (1.0 - m) - t * m) + rate / s) / x
            den = g * g2 - 2.0 * g1 * g1
            step = 2.0 * g * g1 / den if den < 0.0 else -g / g1
            scale = x
        else:
            # Taken in ratios to g1 = -rate: near the midpoint at large h,
            # g and rate fall below 1e-160, and their products underflow.
            g = ((_log1p(-c) if t <= 0.0 else _log(n2) - _LOG2) - log_erf) - log_v
            newton = g / rate
            k = newton * (-rate - (two_h * (1.0 - m) - t * m) / m) - 2.0  # g g2 / g1^2 - 2
            step = -2.0 * newton / k if k < 0.0 else newton
            scale = x if x > 1.0 else -x if x < -1.0 else 1.0
        size = step if step > 0.0 else -step
        if (size <= _ROOT_RTOL * scale
                or (size <= _ROOT_CUBIC * scale and size ** 4 <= _ROOT_RTOL * scale * last ** 3 < math.inf)
                or last <= size <= _ROOT_NOISE * (scale if scale > 1.0 else 1.0)):
            # In rounding noise, as when v is within 1e-16 of 1, the last
            # step may cross the bracket's lower end.
            return max(x + step, lo)
        last = size
        if g > 0.0:
            lo = x
        else:
            hi = x
        x += step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            last = math.inf
    return x


def residual_sample(
    mu_p: np.ndarray,
    mu_q: np.ndarray,
    sigma: float,
    e: np.ndarray,
    out: np.ndarray,
    scratch,
) -> tuple[np.ndarray, int]:
    """Map a target variate ``e`` to its exact residual draw, written into ``out``.

    p and q are the isotropic Gaussians with means ``mu_p``/``mu_q`` (float64
    vectors) and the one standard deviation ``sigma``, a float; ``e`` is a
    draw of N(0, sigma^2 I), the target's noise. The call writes into ``out`` the
    target draw mu_p + e that e makes (the practical close) plus the one
    multiple of mu_p - mu_q that turns it into a draw from the residual
    density r = (p - q)_+ / (1 - beta), when e is such a draw; what ``out``
    held before is not read. ``scratch`` is two work rows of the same
    shape, such as the rows of a (2, d) array. ``out`` and the work rows
    must not share memory with an input. Returns ``out`` and the number of
    target variates consumed, always 1. Nothing is drawn or allocated, and
    no input is written.

    In the whitened frame p and q differ only along u = w / Delta, where
    w = (mu_p - mu_q) / sigma and Delta = |w|. So r is N(0, I) on the
    orthogonal complement of u and, along u, the law whose survival at
    distance s from the midpoint is S(s) of ``residual_offset``, with
    h = Delta / 2. The coordinate a = (e / sigma) . u is N(0, 1) and
    independent of e's part across u, so its upper-tail probability Q(a) is
    uniform, and the draw is

        x = mu_p + e + (t - a) (mu_p - mu_q) / Delta,   t = residual_offset(h, log Q(a)):

    e's part across the gap passes through, and its coordinate along the gap
    is quantile-mapped to t, which increases with a. Delta^2 = w . w and
    a Delta = e . (w / sigma) are the two dot products. Q(a) is passed as its
    log, so every finite a has a finite t. The cost does not grow with beta:
    a few vector operations and a 1-d root of about two Halley steps, a
    closed form when the heads nearly coincide. No vector operation but the
    last writes an operand of its own: numpy takes a slower path for a
    one-element operand that is also the output. A non-finite mean, or
    identical means (Delta == 0, where the residual is undefined), raises
    ValueError.
    """
    if mu_q.shape != mu_p.shape or e.shape != mu_p.shape:
        raise ValueError(f"mean shapes {mu_p.shape}, {mu_q.shape} and variate shape {e.shape} differ")
    row, w = scratch
    np.divide(np.subtract(mu_p, mu_q, out=row), sigma, out=w)
    gap2 = float(w.dot(w))
    if math.isfinite(gap2):
        delta = math.sqrt(gap2)
        if delta == 0.0:
            raise ValueError("residual undefined: the heads' means coincide (Delta = 0)")
        a = float(e.dot(np.divide(w, sigma, out=row))) / delta
    else:
        # Not finite: a mean is, or the square overflowed and is taken again
        # on a rescaled gap.
        if not (np.isfinite(mu_p).all() and np.isfinite(mu_q).all()):
            raise ValueError("head mean has non-finite entries")
        big = float(np.abs(w).max())
        delta = big * math.sqrt(float(np.dot(w / big, w / big)))
        a = float(np.dot(e / sigma, w / delta))
    t = residual_offset(0.5 * delta, float(log_ndtr(-a)))
    # sigma * (t - a) u = ((t - a) / Delta) (mu_p - mu_q)
    np.add(mu_p, e, out=out)
    out += np.multiply(np.subtract(mu_p, mu_q, out=w), (t - a) / delta, out=row)
    return out, 1
