"""Closed-form performance laws, acceptance estimation, and deviation bounds.

Everything here is a pure function of its arguments. The block-length law
and its derived speedup/compute predictors treat the mean acceptance
alpha_bar as an i.i.d. per-position probability; the dependence interval
brackets the correlated case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .prob import (
    GaussianHead,
    GridSpec,
    overlap,
    overlap_monte_carlo,
    refined_trapezoid,
    whitened_gap,
)
from .synth import check_keys, drop_retired


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
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"wall-clock cost ratio c must be finite and > 0, got {c}")
    return expected_block_length(alpha_bar, gamma) / (c * gamma + 1.0)


def ops_factor(alpha_bar: float, gamma: int, c_hat: float) -> float:
    """Target-forward equivalents per emitted patch, relative to target-only.

    One round spends gamma*c_hat + gamma + 1 target-forward equivalents and
    emits E[L] patches.
    """
    if not (math.isfinite(c_hat) and c_hat > 0):
        raise ValueError(f"FLOPs cost ratio c_hat must be finite and > 0, got {c_hat}")
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
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be finite and > 0, got {c}")
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
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be finite and > 0, got {self.c}")
        if not (math.isfinite(self.c_hat) and self.c_hat > 0):
            raise ValueError(f"c_hat must be finite and > 0, got {self.c_hat}")

    @classmethod
    def from_dict(cls, d: dict) -> "CostModel":
        """The cost a ``dataclasses.asdict`` document describes; ValueError names a bad key."""
        d = drop_retired(d, _RETIRED_COST_KEYS, "cost")
        check_keys(d, cls, "cost")
        return cls(**d)


MODE_CLOSED_FORM = "closed_form"
MODE_MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class AcceptanceEstimate:
    """Mean-acceptance estimate with a Hoeffding concentration radius.

    ``mc_per_history`` is None for the closed-form per-history overlap (the
    m = infinity case), in which case the radius uses the history count
    alone: radius(delta) = sqrt(ln(2/delta) / (2 N m_eff)).
    """

    alpha_bar_hat: float
    n_histories: int
    mc_per_history: int | None

    def radius(self, delta: float = 0.05) -> float:
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        m_eff = 1 if self.mc_per_history is None else self.mc_per_history
        return math.sqrt(math.log(2.0 / delta) / (2.0 * self.n_histories * m_eff))

    def tail_bound(self, epsilon: float) -> float:
        """Two-sided Hoeffding tail Pr(|est - truth| >= eps) bound."""
        m_eff = 1 if self.mc_per_history is None else self.mc_per_history
        return 2.0 * math.exp(-2.0 * self.n_histories * m_eff * epsilon ** 2)


def estimate_alpha(
    pairs: Sequence[tuple[GaussianHead, GaussianHead]],
    mode: str = MODE_CLOSED_FORM,
    mc_per_history: int | None = None,
    rng: np.random.Generator | None = None,
) -> AcceptanceEstimate:
    """Mean acceptance over held-out (target, draft) head pairs.

    Each pair is reduced to its whitened gap Delta_i, taken in one batched
    call. closed_form averages the overlaps 2*Phi(-Delta_i/2);
    monte_carlo draws ``mc_per_history`` proposals per history with
    ``overlap_monte_carlo`` and averages the canonical acceptance
    min(1, p/q). Both need each pair's two variances equal, and take each
    head's variance as it is, however small. Both are
    unbiased for the mean overlap over the histories they are given, under
    the canonical rule. That is the deployment acceptance only if decoding
    proposes on such histories: the harness passes clean held-out ones,
    while the engine proposes on prefixes that hold its own draws, whose
    acceptance is lower (by up to about 0.04 at sigma = 2 on the end-to-end
    system).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("estimate_alpha needs at least one head pair")
    if mode not in (MODE_CLOSED_FORM, MODE_MONTE_CARLO):
        raise ValueError(f"unknown estimate mode {mode!r}")
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
    if mode == MODE_CLOSED_FORM:
        return AcceptanceEstimate(
            alpha_bar_hat=float(np.mean(overlap(deltas))),
            n_histories=len(pairs),
            mc_per_history=None,
        )
    if mc_per_history is None or mc_per_history < 1:
        raise ValueError("monte_carlo mode requires mc_per_history >= 1")
    if rng is None:
        raise ValueError("monte_carlo mode requires an rng")
    total = sum(overlap_monte_carlo(delta, mc_per_history, rng)[0] for delta in deltas.tolist())
    return AcceptanceEstimate(
        alpha_bar_hat=total / len(pairs),
        n_histories=len(pairs),
        mc_per_history=mc_per_history,
    )


# ---------------------------------------------------------------------------
# Deviation bounds for the practical variant's single-step output law.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationBounds:
    """Single-step deviation of g = alpha*q + (1 - alpha_bar)*p from p."""

    alpha_bar: float    # also the bound TV(g, p) <= alpha_bar, checked against tv_numeric
    tv_numeric: float
    kl_bound: float
    pinsker_tv: float


def deviation_bounds(delta: float, tolerance_lambda: float = 1.0) -> DeviationBounds:
    """Numeric and analytic deviation controls for the fallback-to-target law.

    The heads are a whitened gap ``delta`` apart, in any dimension: across
    the gap p and q agree, so g and p differ only in their coordinate along
    it, where p = N(0, 1) and q = N(delta, 1). On that line the output
    density g, its TV distance to p, the one-sided KL bound, and the Pinsker
    TV bound are all evaluated by quadrature; the TV <= alpha_bar bound is
    checked against the numerics.
    """
    if not tolerance_lambda > 0:
        raise ValueError("tolerance_lambda must be > 0")
    grid = GridSpec.for_gap(delta)
    log_lam = math.log(tolerance_lambda)
    log_norm = math.log(2.0 * math.pi)
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def log_terms(x: np.ndarray):
        """(log alpha(x), log p(x), log q(x)), alpha the acceptance probability."""
        lp = -0.5 * (x * x + log_norm)
        lq = -0.5 * ((x - delta) ** 2 + log_norm)
        return np.minimum(0.0, lp - lq + log_lam), lp, lq

    def fp(x: np.ndarray) -> np.ndarray:
        return norm * np.exp(-0.5 * x * x)

    def fq(x: np.ndarray) -> np.ndarray:
        return norm * np.exp(-0.5 * (x - delta) ** 2)

    def alpha_q(x: np.ndarray) -> np.ndarray:
        return np.exp(log_terms(x)[0]) * fq(x)

    alpha_bar = refined_trapezoid(alpha_q, grid, abs_tol=1e-9)
    alpha_bar = min(1.0, max(0.0, alpha_bar))

    def abs_dev(x: np.ndarray) -> np.ndarray:
        return np.abs(alpha_q(x) - alpha_bar * fp(x))

    tv_numeric = 0.5 * refined_trapezoid(abs_dev, grid, abs_tol=2e-9)

    def kl_integrand(x: np.ndarray) -> np.ndarray:
        # alpha q log(alpha q / (alpha_bar p)), the log ratio formed in the
        # log domain: alpha_bar p underflows to 0 far from p's mean while
        # alpha q is still above 1e-300.
        log_a, lp, lq = log_terms(x)
        aq = np.exp(log_a) * fq(x)
        out = np.zeros_like(aq)
        mask = aq > 1e-300
        out[mask] = aq[mask] * (log_a + lq - lp - log_alpha_bar)[mask]
        return out

    if alpha_bar > 0.0:
        log_alpha_bar = math.log(alpha_bar)
        kl_bound = max(0.0, refined_trapezoid(kl_integrand, grid, abs_tol=1e-9))
        pinsker = math.sqrt(0.5 * kl_bound)
    else:
        kl_bound = 0.0
        pinsker = 0.0

    if tv_numeric > alpha_bar + 1e-9:
        raise RuntimeError(
            f"numeric TV {tv_numeric:.3e} exceeds the alpha_bar bound {alpha_bar:.3e}"
        )
    if tv_numeric > pinsker + 1e-6:
        raise RuntimeError(
            f"numeric TV {tv_numeric:.3e} exceeds the Pinsker bound {pinsker:.3e}"
        )
    return DeviationBounds(
        alpha_bar=alpha_bar,
        tv_numeric=tv_numeric,
        kl_bound=kl_bound,
        pinsker_tv=pinsker,
    )
