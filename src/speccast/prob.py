"""Gaussian probability kernel: densities, overlap, residual sampling.

All density arithmetic is done in the log domain so that density ratios
never underflow, even for far-out proposals. Heads are immutable value
objects; every operation is pure given an explicit RNG handle.

``GaussianHead`` is the head as a value: the acceptance estimators and
deviation bounds in ``analysis``, the validation suites and the overlap
functions here take heads. The decode engine builds none: it scores rounds
with ``kernels.round_accept`` and closes a rejected lossless round with
``residual_sample`` on its raw mean rows and a ``ResidualParams`` computed
once per head setting.

The target and draft heads share one variance, the setting of the paper's
closed-form overlap 2 Phi(-Delta/2) and of every predictor built on it.
``residual_params`` refuses unequal variances, and variances below
``VARIANCE_FLOOR``, with a ValueError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

VARIANCE_FLOOR = 1e-12

# Overlap evaluation methods.
CLOSED_FORM = "closed_form_equal_cov"
QUADRATURE_1D = "numeric_quadrature_1d"
MONTE_CARLO = "monte_carlo"

_LOG_2PI = math.log(2.0 * math.pi)
_FLOOR_MESSAGE = f"variance below {VARIANCE_FLOOR:g} clamped to the floor"


class VarianceFloorWarning(UserWarning):
    """A head was constructed with variance below the numerical floor."""


@dataclass(frozen=True)
class GaussianHead:
    """Per-step predictive density: independent Gaussian in each patch dim.

    ``variance`` holds one value per dimension; the isotropic case stores the
    same value broadcast to all dimensions. Entries are validated finite and
    strictly positive, and clamped (with a warning) at VARIANCE_FLOOR.
    A value object for API callers; the decode path does not build heads.
    """

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self) -> None:
        # One owned float64 copy of each input.
        mean = np.array(self.mean, dtype=np.float64, ndmin=1)
        var = np.array(self.variance, dtype=np.float64, ndmin=1)
        if mean.ndim != 1 or var.ndim != 1:
            raise ValueError("mean and variance must be 1-d vectors")
        if var.shape == (1,) and mean.shape != (1,):
            var = np.full(mean.shape, var[0])
        if var.shape != mean.shape:
            raise ValueError(f"variance shape {var.shape} != mean shape {mean.shape}")
        if not np.isfinite(mean).all():
            raise ValueError("head mean has non-finite entries")
        if not np.isfinite(var).all():
            raise ValueError("head variance has non-finite entries")
        var_min = var.min(initial=math.inf)  # an empty (d = 0) head has nothing to check
        if var_min <= 0.0:
            raise ValueError("head variance entries must be strictly positive")
        if var_min < VARIANCE_FLOOR:
            warnings.warn(_FLOOR_MESSAGE, VarianceFloorWarning, stacklevel=2)
            np.maximum(var, VARIANCE_FLOOR, out=var)
        mean.flags.writeable = False
        var.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", var)
        # Cached pieces of the log normalizer.
        object.__setattr__(self, "_log_norm", _log_norm(var))

    @classmethod
    def isotropic(cls, mean, sigma: float) -> "GaussianHead":
        # A length-1 variance is broadcast to the mean's shape on validation.
        return cls(mean, float(sigma) ** 2)

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw one sample (d,) or a batch (size, d)."""
        std = np.sqrt(self.variance)
        if size is None:
            return self.mean + std * rng.standard_normal(self.d)
        return self.mean + std * rng.standard_normal((size, self.d))

    def pdf(self) -> Callable[[np.ndarray], np.ndarray]:
        """Density callable for quadrature helpers (1-d heads)."""
        if self.d != 1:
            raise ValueError("pdf() callable is only provided for 1-d heads")
        mu = float(self.mean[0])
        var = float(self.variance[0])
        norm = 1.0 / math.sqrt(2.0 * math.pi * var)
        return lambda x: norm * np.exp(-((np.asarray(x) - mu) ** 2) / (2.0 * var))


def _log_norm(var: np.ndarray) -> float:
    """sum(log(2 pi var)): the log normalizer of a diagonal Gaussian."""
    return float(np.sum(np.log(2.0 * np.pi * var)))


def log_density(head: GaussianHead, x) -> float | np.ndarray:
    """Gaussian log-density of ``x`` (shape (..., d)) under ``head``.

    Never returns -inf for finite inputs because variances are strictly
    positive by construction.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (head.d,):
        raise ValueError(f"x has dimension {x.shape[-1:]}, head has d={head.d}")
    z2 = np.sum((x - head.mean) ** 2 / head.variance, axis=-1)
    out = -0.5 * (z2 + head._log_norm)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class OverlapResult:
    """Overlap mass beta = integral of min(p, q), with evaluation metadata."""

    beta: float
    method: str
    std_error: float = 0.0


def _require_equal_variance(var_p: np.ndarray, var_q: np.ndarray, what: str) -> None:
    # |var_p - var_q| <= 1e-12 |var_q| entrywise: np.allclose(rtol=1e-12,
    # atol=0) without its generic overhead; a NaN entry fails it too.
    if not (np.abs(var_p - var_q) <= 1e-12 * np.abs(var_q)).all():
        raise ValueError(f"{what} requires equal variances")


def mahalanobis_gap(p: GaussianHead, q: GaussianHead) -> float:
    """Delta with Delta^2 = (mu_p - mu_q)^T Sigma^{-1} (mu_p - mu_q)."""
    _require_equal_variance(p.variance, q.variance, "mahalanobis gap")
    return float(np.sqrt(np.sum((p.mean - q.mean) ** 2 / p.variance)))


def overlap_closed_form(p: GaussianHead, q: GaussianHead) -> float:
    """Equal-covariance overlap 2*Phi(-Delta/2)."""
    delta = mahalanobis_gap(p, q)
    return float(2.0 * ndtr(-delta / 2.0))


def gap_for_overlap(beta: float) -> float:
    """Invert beta = 2*Phi(-Delta/2) for test fixtures."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly in (0, 1)")
    return float(-2.0 * ndtri(beta / 2.0))


@dataclass(frozen=True)
class GridSpec:
    """1-d quadrature grid covering all relevant mass.

    Defaults to means +/- 8 max(sigma) with 2^14 base points; Gaussian tail
    mass beyond 8 sigma is below 1e-15.
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
    def for_heads(cls, *heads: GaussianHead, span: float = 8.0, points: int = 2 ** 14) -> "GridSpec":
        for h in heads:
            if h.d != 1:
                raise ValueError("GridSpec.for_heads expects 1-d heads")
        mus = [float(h.mean[0]) for h in heads]
        sig = max(float(np.sqrt(h.variance[0])) for h in heads)
        return cls(lo=min(mus) - span * sig, hi=max(mus) + span * sig, points=points)


def refined_trapezoid(
    fn: Callable[[np.ndarray], np.ndarray],
    grid: GridSpec,
    abs_tol: float,
    max_points: int = 2 ** 21,
) -> float:
    """Trapezoid rule with doubling refinement to the requested tolerance."""
    n = grid.points
    xs = np.linspace(grid.lo, grid.hi, n)
    prev = float(np.trapezoid(np.asarray(fn(xs), dtype=np.float64), xs))
    while n < max_points:
        n = 2 * n - 1
        xs = np.linspace(grid.lo, grid.hi, n)
        cur = float(np.trapezoid(np.asarray(fn(xs), dtype=np.float64), xs))
        if abs(cur - prev) <= abs_tol:
            return cur
        prev = cur
    return prev


def _check_grid_coverage(fn, grid: GridSpec, name: str) -> None:
    xs = np.linspace(grid.lo, grid.hi, grid.points)
    mass = float(np.trapezoid(np.asarray(fn(xs), dtype=np.float64), xs))
    if mass < 0.999:
        raise ValueError(
            f"grid [{grid.lo:g}, {grid.hi:g}] covers only {mass:.6f} of {name}; widen the grid"
        )


def overlap(
    p: GaussianHead,
    q: GaussianHead,
    method: str = CLOSED_FORM,
    mc_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> OverlapResult:
    """Overlap beta between two heads by the requested method.

    closed_form_equal_cov: 2*Phi(-Delta/2), exact for equal covariances.
    numeric_quadrature_1d: integral of min(p, q) to abs error <= 1e-8 (d=1).
    monte_carlo: X ~ q, average of min(1, p/q); unbiased, reports std error.
    """
    if p.d != q.d:
        raise ValueError("head dimensions differ")
    if method == CLOSED_FORM:
        return OverlapResult(beta=overlap_closed_form(p, q), method=method)
    if method == QUADRATURE_1D:
        if p.d != 1:
            raise ValueError("numeric_quadrature_1d requires d = 1")
        fp, fq = p.pdf(), q.pdf()
        grid = GridSpec.for_heads(p, q)
        beta = refined_trapezoid(lambda x: np.minimum(fp(x), fq(x)), grid, abs_tol=1e-8)
        return OverlapResult(beta=min(1.0, max(0.0, beta)), method=method)
    if method == MONTE_CARLO:
        if mc_samples is None or mc_samples < 2:
            raise ValueError("monte_carlo requires mc_samples >= 2")
        if rng is None:
            raise ValueError("monte_carlo requires an rng")
        xs = q.sample(rng, mc_samples)
        w = np.exp(np.minimum(0.0, log_density(p, xs) - log_density(q, xs)))
        beta = float(np.mean(w))
        se = float(np.std(w, ddof=1) / math.sqrt(mc_samples))
        return OverlapResult(beta=beta, method=method, std_error=se)
    raise ValueError(f"unknown overlap method {method!r}")


class ResidualParams(NamedTuple):
    """Constants of ``residual_sample`` for heads p and q of one variance.

    They depend on the variance vector only, so a caller that samples many
    residuals under one head setting builds them once with
    ``residual_params``. The arrays are read-only copies.
    """

    std: np.ndarray      # sqrt(var)
    var: np.ndarray
    log_norm: float      # sum(log(2 pi var)), as GaussianHead computes it


def residual_params(var_p, var_q) -> ResidualParams:
    """``ResidualParams`` for the diagonal variances of a target and a draft head.

    The two must agree to 1e-12 relative, as the closed-form overlap needs,
    and be at least VARIANCE_FLOOR, where the sampler's output is still the
    residual of the heads as given; otherwise ValueError. The target's
    variance is the one carried.
    """
    var_p = np.asarray(var_p, dtype=np.float64)
    var_q = np.asarray(var_q, dtype=np.float64)
    if var_p.ndim != 1 or var_p.shape != var_q.shape:
        raise ValueError(f"variance shapes differ or are not 1-d: {var_p.shape}, {var_q.shape}")
    _require_equal_variance(var_p, var_q, "the residual sampler")
    if not (var_p >= VARIANCE_FLOOR).all():
        raise ValueError(f"the residual sampler needs variances >= the variance floor {VARIANCE_FLOOR:g}")
    var = var_p.copy()
    std = np.sqrt(var)
    var.flags.writeable = std.flags.writeable = False
    return ResidualParams(std=std, var=var, log_norm=_log_norm(var))


class ResidualExhausted(RuntimeError):
    """The residual sampler spent ``draws`` >= its budget without an acceptance."""

    def __init__(self, draws: int, max_draws: int):
        super().__init__(
            f"residual sampler exhausted {max_draws} target draws after {draws}; overlap too close to 1"
        )
        self.draws = draws


def residual_sample(
    mu_p: np.ndarray,
    mu_q: np.ndarray,
    params: ResidualParams,
    rng: np.random.Generator,
    max_draws: int = 10_000_000,
) -> tuple[np.ndarray, int]:
    """Sample the residual density r = (p - q)_+ / (1 - beta) by thinning.

    p and q are the diagonal Gaussians with means ``mu_p``/``mu_q`` (float64
    vectors) and the one variance in ``params``; callers holding heads pass
    ``p.mean, q.mean, residual_params(p.variance, q.variance)``. Returns the
    sample and the number of target draws it took.

    Draw Z ~ p and accept with probability (1 - q(Z)/p(Z))_+. The expected
    number of target draws per returned sample is 1/(1 - beta), which
    deteriorates as q approaches p, so the budget is checked up front by the
    closed form 1 - beta = erf(Delta / (2 sqrt 2)), and a ValueError is
    raised instead of drawing when 1 - beta < 1/``max_draws`` (identical
    heads included, where the residual is undefined). A non-finite mean also
    raises ValueError. If ``max_draws`` draws pass without an acceptance,
    ``ResidualExhausted`` (a RuntimeError) is raised carrying the number of
    draws spent.
    """
    std, var, log_norm = params
    if mu_p.shape != std.shape or mu_q.shape != std.shape:
        raise ValueError(f"mean shapes {mu_p.shape}, {mu_q.shape} do not match variances {std.shape}")
    diff = mu_p - mu_q
    gap2 = float(np.dot(diff, diff / var))
    # gap2 is finite whenever both means are, short of overflow; only then
    # are the means scanned.
    if not math.isfinite(gap2) and not (np.isfinite(mu_p).all() and np.isfinite(mu_q).all()):
        raise ValueError("head mean has non-finite entries")
    delta = math.sqrt(gap2)
    if math.erf(delta / (2.0 * math.sqrt(2.0))) * max_draws < 1.0:
        raise ValueError(
            f"residual undefined or beyond the draw budget: the heads' overlap leaves "
            f"1 - beta < 1/{max_draws} (Delta = {delta:.3g})"
        )
    d = std.shape[0]
    draws = 0
    chunk = 16
    while draws < max_draws:
        zs = mu_p + std * rng.standard_normal((chunk, d))
        log_q = -0.5 * (np.sum((zs - mu_q) ** 2 / var, axis=-1) + log_norm)
        log_p = -0.5 * (np.sum((zs - mu_p) ** 2 / var, axis=-1) + log_norm)
        # Accept with probability (1 - exp(t))_+, t = log q - log p: where
        # t >= 0 it is -expm1(0) = -0.0, and no uniform in [0, 1) is below it.
        hits = rng.random(chunk) < -np.expm1(np.minimum(log_q - log_p, 0.0))
        idx = int(np.argmax(hits))  # the first hit, or 0 if there is none
        if hits[idx]:
            return zs[idx].copy(), draws + idx + 1
        draws += chunk
        chunk = min(2 * chunk, 1024)
    raise ResidualExhausted(draws, max_draws)
