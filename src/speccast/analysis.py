"""Closed-form performance laws, acceptance estimation, and deviation bounds.

Everything here is a pure function of its arguments. The block-length law
and its derived speedup/compute predictors treat the mean acceptance
alpha_bar as an i.i.d. per-position probability; the dependence interval
brackets the correlated case. The practical variant's deviation bounds are
exact sums of normal CDFs on the whitened gap; nothing here integrates
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

from .prob import GaussianHead, overlap, whitened_gap
from .synth import check_keys, check_real, drop_retired


def _check_alpha(alpha_bar: float) -> float:
    if not 0.0 <= alpha_bar <= 1.0:
        raise ValueError(f"alpha_bar must lie in [0, 1], got {alpha_bar}")
    return float(alpha_bar)


def block_length_pmf(alpha_bar: float, gamma: int) -> np.ndarray:
    """Capped geometric law of the round output length L over {1..gamma+1}.

    Pr(L = l) = (1 - a) a^(l-1) for l <= gamma and Pr(L = gamma+1) = a^gamma.
    The endpoints a = 0 and a = 1 are point masses at 1 and gamma + 1.
    """
    a = _check_alpha(alpha_bar)
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    powers = a ** np.arange(gamma + 1)
    pmf = np.empty(gamma + 1)
    pmf[:gamma] = (1.0 - a) * powers[:gamma]
    pmf[gamma] = powers[gamma]
    return pmf


def expected_block_length(alpha_bar: float, gamma: int) -> float:
    """E[L] = (1 - a^(gamma+1)) / (1 - a), continuously extended to a = 1.

    Computed as the partial geometric sum 1 + a + ... + a^gamma, which is the
    same quantity and stable across the whole [0, 1] range.
    """
    a = _check_alpha(alpha_bar)
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if gamma <= 4096:
        return float(np.sum(a ** np.arange(gamma + 1)))
    if a == 1.0:
        return float(gamma + 1)
    return float((1.0 - a ** (gamma + 1)) / (1.0 - a))


def speedup_wall(alpha_bar: float, gamma: int, c: float) -> float:
    """Predicted wall-clock speedup E[L] / (c*gamma + 1) over target-only."""
    c = check_real("wall-clock cost ratio c", c)
    return expected_block_length(alpha_bar, gamma) / (c * gamma + 1.0)


def ops_factor(alpha_bar: float, gamma: int, c_hat: float) -> float:
    """Target-forward equivalents per emitted patch, relative to target-only.

    One round spends gamma*c_hat + gamma + 1 target-forward equivalents and
    emits E[L] patches.
    """
    c_hat = check_real("FLOPs cost ratio c_hat", c_hat)
    return (gamma * c_hat + gamma + 1.0) / expected_block_length(alpha_bar, gamma)


class GammaChoice(NamedTuple):
    gamma_rule: int
    gamma_scan: int


def select_gamma(alpha_bar: float, c: float, gamma_max: int) -> GammaChoice:
    """Near-optimal block size by the closed-form rule and by exhaustive scan.

    The speedup rises from gamma to gamma + 1 exactly when
    a^(gamma+1) * ((1 - a) (1 + c*gamma) + c) >= c, so gamma_rule is the
    largest gamma <= gamma_max satisfying that inequality (1 if none do) and
    sits within one of the scan argmax. gamma_scan maximizes the predicted
    speedup directly, ties to the smallest gamma.
    """
    a = _check_alpha(alpha_bar)
    c = check_real("c", c)
    if gamma_max < 1:
        raise ValueError("gamma_max must be >= 1")
    gammas = np.arange(1, gamma_max + 1, dtype=np.float64)
    lhs = a ** (gammas + 1.0) * ((1.0 - a) * (1.0 + c * gammas) + c)
    satisfied = np.nonzero(lhs >= c)[0]
    gamma_rule = int(gammas[satisfied[-1]]) if satisfied.size else 1

    powers = a ** np.arange(gamma_max + 1)
    e_l = np.cumsum(powers)[1:]  # E[L] for gamma = 1..gamma_max
    speed = e_l / (c * gammas + 1.0)
    gamma_scan = int(np.argmax(speed)) + 1
    return GammaChoice(gamma_rule=gamma_rule, gamma_scan=gamma_scan)


def lossless_worthwhile(alpha_bar: float, gamma: int) -> bool:
    """Breakeven heuristic: residual cost is tolerable when 1 - a >= 1/gamma."""
    a = _check_alpha(alpha_bar)
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    return (1.0 - a) >= 1.0 / gamma


def dependence_interval(alpha_lower: float, alpha_upper: float, gamma: int) -> tuple[float, float]:
    """Bracket E[L] when conditional acceptance stays within [lower, upper]."""
    lo = _check_alpha(alpha_lower)
    hi = _check_alpha(alpha_upper)
    if lo > hi:
        raise ValueError(f"alpha_lower {lo} exceeds alpha_upper {hi}")
    return expected_block_length(lo, gamma), expected_block_length(hi, gamma)


class HorizonTvBound(NamedTuple):
    bound: float       # 1 - prod(1 - delta_t)
    sum_bound: float   # sum(delta_t), always >= bound


def horizon_tv_bound(per_step_deltas: Sequence[float]) -> HorizonTvBound:
    """Joint multi-horizon TV bound from per-step deviations."""
    deltas = np.asarray(list(per_step_deltas), dtype=np.float64)
    if not ((deltas >= 0.0) & (deltas <= 1.0)).all():  # NaN fails both
        raise ValueError("per-step deltas must lie in [0, 1]")
    product = float(1.0 - np.prod(1.0 - deltas)) if deltas.size else 0.0
    return HorizonTvBound(bound=product, sum_bound=float(deltas.sum()))


# ---------------------------------------------------------------------------
# Cost model and acceptance estimation.
# ---------------------------------------------------------------------------

# Cost keys of earlier versions, each with the one value it ever held; a
# saved cost that carries one at that value still loads.
_RETIRED_COST_KEYS = {"source": "measured"}


@dataclass(frozen=True)
class CostModel:
    """Draft/target cost ratios: c wall-clock, c_hat FLOPs."""

    c: float
    c_hat: float
    n_timed_passes: int | None = None
    target_pass_seconds: float | None = None
    draft_pass_seconds: float | None = None

    def __post_init__(self) -> None:
        check_real("c", self.c)
        check_real("c_hat", self.c_hat)

    @classmethod
    def from_dict(cls, d: dict) -> "CostModel":
        """The cost a ``dataclasses.asdict`` document describes; ValueError names a bad key."""
        d = drop_retired(d, _RETIRED_COST_KEYS, "cost")
        check_keys(d, cls, "cost")
        return cls(**d)


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Mean-acceptance estimate over ``n_histories`` histories, with its
    Hoeffding concentration: radius(delta) = sqrt(ln(2/delta) / (2 N))."""

    alpha_bar_hat: float
    n_histories: int

    def radius(self, delta: float = 0.05) -> float:
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        return math.sqrt(math.log(2.0 / delta) / (2.0 * self.n_histories))

    def tail_bound(self, epsilon: float) -> float:
        """Two-sided Hoeffding tail Pr(|est - truth| >= eps) bound."""
        return 2.0 * math.exp(-2.0 * self.n_histories * epsilon ** 2)


def estimate_alpha(pairs: Sequence[tuple[GaussianHead, GaussianHead]]) -> AcceptanceEstimate:
    """Mean acceptance beta at tolerance_lambda = 1 over (target, draft) head pairs.

    The harness does not call it: its sweep rows average
    ``overlap(Delta_i, lambda)`` over mean rows at the spec's lambda. Each
    pair is reduced to its whitened gap Delta_i, taken in one batched
    call, and the estimate is the mean of the closed-form overlaps
    2*Phi(-Delta_i/2). Each pair's two variances must be equal, and each
    head's variance is taken as it is, however small. The estimate is the
    exact mean overlap over the histories it is given, under the canonical
    rule. That is the deployment acceptance only if decoding proposes on
    such histories. The harness's held-out histories are clean, while the
    engine proposes on prefixes that hold its own draws, whose acceptance
    is lower (by up to about 0.04 at sigma = 2 on the end-to-end system).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("estimate_alpha needs at least one head pair")
    mu_p = np.stack([p.mean for p, _ in pairs])
    mu_q = np.stack([q.mean for _, q in pairs])
    var_p = np.array([p.variance for p, _ in pairs])
    var_q = np.array([q.variance for _, q in pairs])
    if mu_p.shape != mu_q.shape:
        raise ValueError("head dimensions differ")
    # |var_p - var_q| <= 1e-12 |var_q| per pair: np.allclose(rtol=1e-12,
    # atol=0) without its generic overhead.
    if not (np.abs(var_p - var_q) <= 1e-12 * np.abs(var_q)).all():
        raise ValueError("estimate_alpha requires equal variances")
    deltas = whitened_gap(mu_p, mu_q, var_p[:, None])
    return AcceptanceEstimate(alpha_bar_hat=float(np.mean(overlap(deltas))), n_histories=len(pairs))


# ---------------------------------------------------------------------------
# Deviation bounds for the practical variant's single-step output law.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationBounds:
    """Single-step deviation of g = alpha*q + (1 - alpha_bar)*p from p."""

    alpha_bar: float    # also the bound TV(g, p) <= alpha_bar, checked against tv
    tv: float
    kl_bound: float
    pinsker_tv: float


_SMALL_GAP = 0.1  # below it, near lambda = 1, deviation_bounds expands in the gap
# The window of c = ln(lambda)/delta - delta/2 where it does: below it the
# expansion's terms cancel, above it every moment underflows to 0.
_SERIES_C = (-5.0, 40.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _small_gap_terms(delta: float, log_lam: float) -> tuple[float, float]:
    """(1 - alpha_bar, KL bound / delta^2) at a small gap, free of cancellation.

    With c = x* - delta and the moments M_k = E[(Z - c)^k; Z > c] of a
    standard normal Z, the mass q - lambda p above x* and the KL bound are

        1 - alpha_bar = delta M_1 - S,   S = sum_{k >= 2} (-delta)^k M_k / k!
        KL bound      = delta^2 / 2 - ln(lambda) (1 - alpha_bar) - S + h,

    where h = -alpha_bar ln(alpha_bar) - (1 - alpha_bar). Every term is of
    order delta^2 where the closed form's terms are of order delta and
    cancel. M_0 = Phi(-c), M_1 = phi(c) - c M_0, and M_k = (k - 1) M_{k-2}
    - c M_{k-1}.
    """
    c = log_lam / delta - 0.5 * delta
    m_before = float(ndtr(-c))
    m_last = math.exp(-0.5 * c * c) * _INV_SQRT_2PI - c * m_before
    m1 = m_last
    s = 0.0  # S / delta^2
    coef = 0.5  # (-delta)^(k - 2) / k!
    k = 2
    while True:
        m_before, m_last = m_last, (k - 1) * m_before - c * m_last
        term = coef * m_last
        s += term
        if abs(term) <= 1e-17 * abs(s) or k == 60:
            break
        k += 1
        coef *= -delta / k
    e = m1 - delta * s  # (1 - alpha_bar) / delta
    eps = delta * e
    if eps < 0.1:
        # h / eps^2 = -sum_{k >= 2} eps^(k - 2) / (k (k - 1))
        h = 0.0
        power = 1.0
        k = 2
        while True:
            term = power / (k * (k - 1))
            h += term
            if term <= 1e-17 * h:
                break
            power *= eps
            k += 1
        h_scaled = -e * e * h
    else:
        h_scaled = (-(1.0 - eps) * math.log1p(-eps) - eps) / (delta * delta)
    return eps, 0.5 - (log_lam / delta) * e - s + h_scaled


def deviation_bounds(delta: float, tolerance_lambda: float = 1.0) -> DeviationBounds:
    """Exact deviation controls for the fallback-to-target law, in closed form.

    The heads are a whitened gap ``delta`` apart, in any dimension: across
    the gap p and q agree, so g and p differ only in their coordinate along
    it, where p = N(0, 1) and q = N(delta, 1). There the acceptance
    min(1, lambda p/q) is 1 below x* = delta/2 + ln(lambda)/delta and
    lambda p/q above it, and q > alpha_bar p above x0 = delta/2 +
    ln(alpha_bar)/delta, so every integral is a sum of normal CDFs:

        alpha_bar = Phi(x* - delta) + lambda Phi(-x*)
        TV(g, p)  = alpha_bar Phi(x0) - Phi(x0 - delta)
        KL bound  = (delta^2/2 - ln alpha_bar) Phi(x* - delta)
                    - delta phi(x* - delta) + lambda Phi(-x*) ln(lambda/alpha_bar)

    The KL bound is the integral of alpha q ln(alpha q / (alpha_bar p)),
    which bounds KL(g || p) by joint convexity; the Pinsker TV is
    sqrt(KL bound / 2). ln alpha_bar is taken from ``log_ndtr``, so it stays
    finite where alpha_bar underflows. But near alpha_bar = 1 the KL bound
    is of order delta^2 while its terms are of order delta, and 1 -
    alpha_bar = Phi(delta - x*) - lambda Phi(-x*) cancels too. So below
    ``_SMALL_GAP``, wherever x* - delta lies in ``_SERIES_C`` (|ln lambda| up
    to a few delta, lambda = 1 among them), 1 - alpha_bar, ln alpha_bar =
    log1p(-(1 - alpha_bar)) and the KL bound come from the gap expansion of
    ``_small_gap_terms`` instead. A term whose normal mass underflows to 0
    is left out, as its integrand is 0 in floating point too. TV <=
    alpha_bar holds by construction, and TV <= Pinsker is checked on the
    result.
    """
    delta = check_real("whitened gap", delta, "finite and >= 0")
    lam = check_real("tolerance_lambda", tolerance_lambda)
    if delta == 0.0:
        return DeviationBounds(alpha_bar=min(1.0, lam), tv=0.0, kl_bound=0.0, pinsker_tv=0.0)
    log_lam = math.log(lam)
    x_star = 0.5 * delta + log_lam / delta
    if delta < _SMALL_GAP and _SERIES_C[0] <= x_star - delta <= _SERIES_C[1]:
        eps, kl_scaled = _small_gap_terms(delta, log_lam)
        alpha_bar = 1.0 - eps
        log_alpha_bar = math.log1p(-eps)
        kl_bound = max(0.0, kl_scaled) * delta * delta
    else:
        below = float(ndtr(x_star - delta))         # q's mass where alpha = 1
        above = lam * float(ndtr(-x_star))          # lambda p's mass where alpha < 1
        alpha_bar = min(1.0, below + above)
        log_alpha_bar = float(np.logaddexp(log_ndtr(x_star - delta), log_lam + log_ndtr(-x_star)))
        kl_bound = 0.0
        if below > 0.0:
            t = x_star - delta
            pdf = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)  # t * t overflows to inf; t ** 2 would raise
            kl_bound += (0.5 * delta * delta - log_alpha_bar) * below - delta * pdf
        if above > 0.0:
            kl_bound += above * (log_lam - log_alpha_bar)
        kl_bound = max(0.0, kl_bound)
    x0 = 0.5 * delta + log_alpha_bar / delta
    tv = max(0.0, alpha_bar * float(ndtr(x0)) - float(ndtr(x0 - delta)))
    pinsker = math.sqrt(0.5 * kl_bound)

    if tv > pinsker + 1e-6:
        raise RuntimeError(f"TV {tv:.3e} exceeds the Pinsker bound {pinsker:.3e}")
    return DeviationBounds(alpha_bar=alpha_bar, tv=tv, kl_bound=kl_bound, pinsker_tv=pinsker)
