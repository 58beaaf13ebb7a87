"""Closed-form performance laws, acceptance estimation, and deviation bounds.

Everything here is a pure function of its arguments. The block-length law
and its derived speedup/compute predictors treat the mean acceptance
alpha_bar as an i.i.d. per-position probability; the dependence interval
brackets the correlated case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .prob import (
    GaussianHead,
    GridSpec,
    _check_grid_coverage,
    log_density,
    overlap_closed_form,
    refined_trapezoid,
)


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
    if not c > 0:
        raise ValueError("wall-clock cost ratio c must be > 0")
    return expected_block_length(alpha_bar, gamma) / (c * gamma + 1.0)


def ops_factor(alpha_bar: float, gamma: int, c_hat: float) -> float:
    """Target-forward equivalents per emitted patch, relative to target-only.

    One round spends gamma*c_hat + gamma + 1 target-forward equivalents and
    emits E[L] patches.
    """
    if not c_hat > 0:
        raise ValueError("FLOPs cost ratio c_hat must be > 0")
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
    if not c > 0:
        raise ValueError("c must be > 0")
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
    if deltas.size and (deltas.min() < 0.0 or deltas.max() > 1.0):
        raise ValueError("per-step deltas must lie in [0, 1]")
    product = float(1.0 - np.prod(1.0 - deltas)) if deltas.size else 0.0
    return HorizonTvBound(bound=product, sum_bound=float(deltas.sum()))


# ---------------------------------------------------------------------------
# Cost model and acceptance estimation.
# ---------------------------------------------------------------------------

COST_MEASURED = "measured"
COST_CONFIGURED = "configured"


@dataclass(frozen=True)
class CostModel:
    """Draft/target cost ratios: c wall-clock, c_hat FLOPs."""

    c: float
    c_hat: float
    source: str = COST_CONFIGURED
    n_timed_passes: int | None = None
    target_pass_seconds: float | None = None
    draft_pass_seconds: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be finite and > 0, got {self.c}")
        if not (math.isfinite(self.c_hat) and self.c_hat > 0):
            raise ValueError(f"c_hat must be finite and > 0, got {self.c_hat}")
        if self.source not in (COST_MEASURED, COST_CONFIGURED):
            raise ValueError(f"unknown cost source {self.source!r}")

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "c_hat": self.c_hat,
            "source": self.source,
            "n_timed_passes": self.n_timed_passes,
            "target_pass_seconds": self.target_pass_seconds,
            "draft_pass_seconds": self.draft_pass_seconds,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CostModel":
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
    method: str

    def radius(self, delta: float = 0.05) -> float:
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        m_eff = 1 if self.mc_per_history is None else self.mc_per_history
        return math.sqrt(math.log(2.0 / delta) / (2.0 * self.n_histories * m_eff))

    def tail_bound(self, epsilon: float) -> float:
        """Two-sided Hoeffding tail Pr(|est - truth| >= eps) bound."""
        m_eff = 1 if self.mc_per_history is None else self.mc_per_history
        return 2.0 * math.exp(-2.0 * self.n_histories * m_eff * epsilon ** 2)

    def to_dict(self) -> dict:
        return {
            "alpha_bar_hat": self.alpha_bar_hat,
            "n_histories": self.n_histories,
            "mc_per_history": self.mc_per_history,
            "method": self.method,
        }


def estimate_alpha(
    pairs: Sequence[tuple[GaussianHead, GaussianHead]],
    mode: str = MODE_CLOSED_FORM,
    mc_per_history: int | None = None,
    rng: np.random.Generator | None = None,
) -> AcceptanceEstimate:
    """Mean acceptance over held-out (target, draft) head pairs.

    closed_form averages the equal-covariance overlaps 2*Phi(-Delta_i/2);
    monte_carlo draws ``mc_per_history`` proposals per history and averages
    the canonical acceptance min(1, p/q). Both are unbiased for the
    deployment mean acceptance under the canonical rule.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("estimate_alpha needs at least one head pair")
    if mode == MODE_CLOSED_FORM:
        betas = [overlap_closed_form(p, q) for p, q in pairs]
        return AcceptanceEstimate(
            alpha_bar_hat=float(np.mean(betas)),
            n_histories=len(pairs),
            mc_per_history=None,
            method=mode,
        )
    if mode == MODE_MONTE_CARLO:
        if mc_per_history is None or mc_per_history < 1:
            raise ValueError("monte_carlo mode requires mc_per_history >= 1")
        if rng is None:
            raise ValueError("monte_carlo mode requires an rng")
        total = 0.0
        for p, q in pairs:
            xs = q.sample(rng, mc_per_history)
            total += float(np.sum(np.exp(np.minimum(0.0, log_density(p, xs) - log_density(q, xs)))))
        return AcceptanceEstimate(
            alpha_bar_hat=total / (len(pairs) * mc_per_history),
            n_histories=len(pairs),
            mc_per_history=mc_per_history,
            method=mode,
        )
    raise ValueError(f"unknown estimate mode {mode!r}")


# ---------------------------------------------------------------------------
# Deviation bounds for the practical variant's single-step output law.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationBounds:
    """Single-step deviation of g = alpha*q + (1 - alpha_bar)*p from p."""

    alpha_bar: float
    tv_bound: float
    tv_numeric_1d: float | None = None
    kl_bound_1d: float | None = None
    pinsker_tv: float | None = None
    note: str | None = None


def deviation_bounds(
    p: GaussianHead,
    q: GaussianHead,
    tolerance_lambda: float = 1.0,
    grid: GridSpec | None = None,
) -> DeviationBounds:
    """Numeric and analytic deviation controls for the fallback-to-target law.

    In one dimension the output density g, its TV distance to p, the
    one-sided KL bound, and the Pinsker TV bound are all evaluated by
    quadrature; the TV <= alpha_bar bound is checked against the numerics.
    In higher dimension only the dimension-free TV bound is reported.
    """
    if not tolerance_lambda > 0:
        raise ValueError("tolerance_lambda must be > 0")
    if p.d != q.d:
        raise ValueError("head dimensions differ")
    if p.d != 1:
        if tolerance_lambda != 1.0:
            raise ValueError("d > 1 deviation bounds support only tolerance_lambda = 1")
        alpha_bar = overlap_closed_form(p, q)
        return DeviationBounds(
            alpha_bar=alpha_bar,
            tv_bound=alpha_bar,
            note="KL/TV quadrature unavailable for d > 1; TV <= alpha_bar still holds",
        )

    grid = grid if grid is not None else GridSpec.for_heads(p, q)
    log_lam = math.log(tolerance_lambda)
    fp, fq = p.pdf(), q.pdf()

    def alpha_q(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)[:, None]
        lr = log_density(p, x) - log_density(q, x)
        return np.exp(np.minimum(0.0, lr + log_lam)) * fq(x[:, 0])

    _check_grid_coverage(fp, grid, "p")
    _check_grid_coverage(fq, grid, "q")

    alpha_bar = refined_trapezoid(alpha_q, grid, abs_tol=1e-9)
    alpha_bar = min(1.0, max(0.0, alpha_bar))

    def abs_dev(x: np.ndarray) -> np.ndarray:
        return np.abs(alpha_q(x) - alpha_bar * fp(x))

    tv_numeric = 0.5 * refined_trapezoid(abs_dev, grid, abs_tol=2e-9)

    def kl_integrand(x: np.ndarray) -> np.ndarray:
        aq = alpha_q(x)
        ref = alpha_bar * fp(x)
        out = np.zeros_like(aq)
        mask = aq > 1e-300
        out[mask] = aq[mask] * (np.log(aq[mask]) - np.log(ref[mask]))
        return out

    if alpha_bar > 0.0:
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
        tv_bound=alpha_bar,
        tv_numeric_1d=tv_numeric,
        kl_bound_1d=kl_bound,
        pinsker_tv=pinsker,
    )


# ---------------------------------------------------------------------------
# Predictor report.
# ---------------------------------------------------------------------------


@dataclass
class PredictorReport:
    """Predicted vs measured block length, speedup, and compute factor."""

    gamma: int
    alpha_bar: float
    c: float
    c_hat: float
    e_l_pred: float
    s_wall_pred: float
    ops_factor_pred: float
    e_l_meas: float | None = None
    n_mean_meas: float | None = None
    s_wall_meas: float | None = None
    ops_factor_meas: float | None = None
    flags: list[str] = field(default_factory=list)

    @classmethod
    def predict(cls, alpha_bar: float, gamma: int, cost: CostModel) -> "PredictorReport":
        return cls(
            gamma=gamma,
            alpha_bar=float(alpha_bar),
            c=cost.c,
            c_hat=cost.c_hat,
            e_l_pred=expected_block_length(alpha_bar, gamma),
            s_wall_pred=speedup_wall(alpha_bar, gamma, cost.c),
            ops_factor_pred=ops_factor(alpha_bar, gamma, cost.c_hat),
        )

    def deltas(self) -> dict[str, float]:
        out: dict[str, float] = {}
        if self.e_l_meas is not None:
            out["e_l_rel_gap"] = abs(self.e_l_pred - self.e_l_meas) / self.e_l_pred
        if self.s_wall_meas is not None:
            out["s_wall_rel_gap"] = abs(self.s_wall_pred - self.s_wall_meas) / self.s_wall_pred
        return out

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "alpha_bar": self.alpha_bar,
            "c": self.c,
            "c_hat": self.c_hat,
            "e_l_pred": self.e_l_pred,
            "s_wall_pred": self.s_wall_pred,
            "ops_factor_pred": self.ops_factor_pred,
            "e_l_meas": self.e_l_meas,
            "n_mean_meas": self.n_mean_meas,
            "s_wall_meas": self.s_wall_meas,
            "ops_factor_meas": self.ops_factor_meas,
            "flags": list(self.flags),
            "deltas": self.deltas(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PredictorReport":
        d = dict(d)
        d.pop("deltas", None)
        return cls(**d)
