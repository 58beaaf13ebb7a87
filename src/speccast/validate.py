"""Statistical validation suites: decode laws vs independent oracles.

Each suite checks one face of the decoder, or of a closed-form predictor,
against an independent reference (direct sampling, quadrature, closed forms
or brute-force scans) or against the engine itself: the decode suites run
``decode`` on the persistence pair, and the dependence suite on the
end-to-end system's test windows. No suite runs a twin of an engine kernel.
Sample sizes are fixed so the tests have enough power to be stable across
seeds; a seed override changes the draws but should not change pass/fail.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as scistats
from scipy.special import ndtr

from . import rng as rngmod
from .analysis import (
    block_length_pmf,
    dependence_interval,
    deviation_bounds,
    estimate_alpha,
    expected_block_length,
    ops_factor,
    select_gamma,
    speedup_wall,
)
from .engine import (
    VARIANT_LOSSLESS,
    VARIANT_PRACTICAL,
    DecodeConfig,
    decode,
)
from .models import History, persistence_model
from .prob import (
    GaussianHead,
    gap_for_overlap,
    overlap,
    overlap_monte_carlo,
    overlap_quadrature,
    residual_sample,
    whitened_gap,
)

SUITE_NAMES = (
    "lossless-exactness",
    "practical-law",
    "capped-geometric",
    "overlap",
    "residual-exactness",
    "gamma-rule",
    "dependence",
    "estimator",
    "bounds",
    "predictor-identities",
)


@dataclass
class SuiteResult:
    """One suite's details and failed checks; it passed if no check failed."""

    name: str
    details: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return {"name": d.pop("name"), "passed": self.passed, **d}


def _persistence_pair(sigma: float, gap: float):
    """1-d fixture from a zero patch: target mean = h0 = 0, draft mean = h0 + gap.

    With persistence models the draft/target mean gap stays constant along
    any accepted prefix, so per-position acceptance is i.i.d. with
    alpha_bar = 2*Phi(-gap / (2 sigma)).
    """
    target = persistence_model(patch_len=1, sigma=sigma)
    draft = persistence_model(patch_len=1, sigma=sigma, mean_bias=gap)
    h0 = History.from_patches(np.zeros((1, 1)), 1)
    return target, draft, h0


def _mass_single_rounds(variant: str, sigma: float, gap: float, gamma: int, n: int, seed: int):
    """Run n independent single-round decodes; returns (first outputs, L)."""
    target, draft, h0 = _persistence_pair(sigma, gap)
    base = DecodeConfig(variant=variant, horizon_patches=1, seed=0, gamma=gamma,
                        sigma_target=sigma, sigma_draft=sigma)
    outputs = np.empty(n)
    lengths = np.empty(n, dtype=np.int64)
    base_seed = rngmod.derive_seed(seed, 0xA11CE)
    for i in range(n):
        forecast, trace = decode(target, draft, h0, base.with_seed(base_seed + i))
        outputs[i] = forecast[0, 0]
        lengths[i] = trace.round_lengths()[0]
    return outputs, lengths


def suite_lossless_exactness(seed: int = 0, n: int = 100_000) -> SuiteResult:
    """Residual-sampling decode output vs direct target sampling (KS)."""
    c = SuiteResult("lossless-exactness")
    sigma, gap = 1.0, 1.0
    sd_samples, _ = _mass_single_rounds(VARIANT_LOSSLESS, sigma, gap, 1, n, seed)
    direct = rngmod.stream(rngmod.derive_seed(seed, 999), 0, rngmod.DIRECT).standard_normal(n) * sigma
    ks = scistats.ks_2samp(sd_samples, direct)
    c.details["ks_statistic"] = float(ks.statistic)
    c.details["ks_pvalue"] = float(ks.pvalue)
    c.details["n"] = n
    c.check(ks.pvalue >= 0.01, f"KS p-value {ks.pvalue:.4f} below 0.01")
    c.check(ks.statistic <= 0.01, f"KS sup-distance {ks.statistic:.4f} above 0.01")
    return c


def _g_bin_masses(edges: np.ndarray, mu_p: float, mu_q: float, sigma: float) -> np.ndarray:
    """Per-bin mass of g = min(p, q) + (1 - beta) p by fine quadrature."""
    fine = np.linspace(edges[0], edges[-1], (edges.size - 1) * 64 + 1)
    pv = np.exp(-0.5 * ((fine - mu_p) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    qv = np.exp(-0.5 * ((fine - mu_q) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    beta = overlap(whitened_gap([mu_p], [mu_q], sigma * sigma))
    g = np.minimum(pv, qv) + (1.0 - beta) * pv
    masses = np.empty(edges.size - 1)
    for b in range(edges.size - 1):
        seg = slice(b * 64, b * 64 + 65)
        masses[b] = np.trapezoid(g[seg], fine[seg])
    return masses


def suite_practical_law(seed: int = 0, n: int = 100_000, n_grid: int = 50) -> SuiteResult:
    """Practical single-step histogram vs the mixture law alpha*q + (1-a)p."""
    c = SuiteResult("practical-law")
    sigma, gap = 1.0, 1.0
    mu_p, mu_q = 0.0, gap
    samples, _ = _mass_single_rounds(VARIANT_PRACTICAL, sigma, gap, 1, n, seed)

    edges = np.linspace(mu_p - 8 * sigma, mu_q + 8 * sigma, 65)
    counts, _ = np.histogram(samples, bins=edges)
    inside = counts.sum()
    masses = _g_bin_masses(edges, mu_p, mu_q, sigma)
    tv_est = 0.5 * (
        np.abs(counts / n - masses).sum() + (1.0 - masses.sum()) + (n - inside) / n
    )
    c.details["tv_estimate"] = float(tv_est)
    c.details["n"] = n
    c.check(tv_est <= 0.02, f"histogram TV estimate {tv_est:.4f} above 0.02")

    # Bound grid: numeric TV(g, p) <= alpha_bar across (gap, sigma, lambda).
    rng = np.random.Generator(np.random.Philox(key=seed + 17))
    worst = -np.inf
    for _ in range(n_grid):
        g_gap = rng.uniform(0.1, 4.0)
        g_sigma = rng.uniform(0.3, 2.0)
        g_lam = rng.choice([0.5, 1.0, 2.0])
        bounds = deviation_bounds(whitened_gap([0.0], [g_gap], g_sigma * g_sigma), tolerance_lambda=g_lam)
        worst = max(worst, bounds.tv_numeric - bounds.alpha_bar)
    c.details["max_tv_minus_alpha"] = float(worst)
    c.check(worst <= 1e-9, f"numeric TV exceeded alpha_bar by {worst:.3e} on the grid")
    return c


def suite_capped_geometric(
    seed: int = 0, gammas: tuple[int, ...] = (2, 3, 5), n: int = 100_000
) -> SuiteResult:
    """Round-length histogram vs the capped geometric law (chi-square)."""
    c = SuiteResult("capped-geometric")
    sigma = 1.0
    alpha_bar = 0.8
    gap = gap_for_overlap(alpha_bar) * sigma
    for gamma in gammas:
        _, lengths = _mass_single_rounds(
            VARIANT_PRACTICAL, sigma, gap, gamma, n, rngmod.derive_seed(seed, 7, gamma)
        )
        pmf = block_length_pmf(alpha_bar, gamma)
        counts = np.bincount(lengths, minlength=gamma + 2)[1:]
        chi = scistats.chisquare(counts, f_exp=pmf * n)
        mean_l = float(lengths.mean())
        e_l = expected_block_length(alpha_bar, gamma)
        se = float(lengths.std(ddof=1) / math.sqrt(n))
        c.details[f"gamma={gamma}"] = {
            "chi2_pvalue": float(chi.pvalue),
            "mean_L": mean_l,
            "expected_L": e_l,
            "se": se,
        }
        c.check(chi.pvalue >= 0.01, f"gamma={gamma}: chi-square p {chi.pvalue:.4f} below 0.01")
        c.check(
            abs(mean_l - e_l) <= 3 * se,
            f"gamma={gamma}: mean L {mean_l:.4f} departs from {e_l:.4f} by more than 3 SE",
        )
    return c


def suite_overlap(seed: int = 0, n_pairs: int = 50, mc_samples: int = 1_000_000) -> SuiteResult:
    """Closed-form overlap vs quadrature and Monte Carlo."""
    c = SuiteResult("overlap")
    rng = np.random.Generator(np.random.Philox(key=seed + 41))
    worst = 0.0
    for _ in range(n_pairs):
        sigma = rng.uniform(0.1, 5.0)
        mu_p = rng.uniform(-3.0, 3.0)
        mu_q = mu_p + rng.uniform(-4.0, 4.0) * sigma
        delta = whitened_gap([mu_p], [mu_q], sigma * sigma)
        worst = max(worst, abs(overlap(delta) - overlap_quadrature(delta)))
    c.details["max_closed_vs_quadrature"] = float(worst)
    c.check(worst <= 1e-6, f"closed form vs quadrature disagree by {worst:.2e}")

    mc_beta, mc_se = overlap_monte_carlo(1.0, mc_samples, rng)
    closed = float(overlap(1.0))
    c.details["mc_beta"] = mc_beta
    c.details["mc_std_error"] = mc_se
    c.details["closed_beta"] = closed
    c.check(
        abs(mc_beta - closed) <= 3 * mc_se,
        f"Monte Carlo beta {mc_beta:.5f} departs from {closed:.5f} beyond 3 SE",
    )
    return c


def _residual_survival(s: np.ndarray, h: float) -> np.ndarray:
    """S(s) = [Phi(s + h) - Phi(s - h)] / erf(h / sqrt 2), written with ndtr.

    Where s > h both normal tails are upper tails, taken as ``norm.sf``.
    For small h the difference still loses digits, about 1e-16 / h relative,
    far below what the KS test resolves. It is independent of the erf/erfc
    code in ``prob``.
    """
    upper = scistats.norm.sf(s - h) - scistats.norm.sf(s + h)
    lower = ndtr(s + h) - ndtr(s - h)
    return np.where(s > h, upper, lower) / math.erf(h / math.sqrt(2.0))


def suite_residual_exactness(
    seed: int = 0,
    deltas: tuple[float, ...] = (2.0, 0.5, 1e-2, 1e-6, 1e-9),
    dims: tuple[int, ...] = (1, 32),
    n: int = 20_000,
) -> SuiteResult:
    """Residual draws vs their law, by projection onto the whitened mean gap.

    For each gap Delta and dimension d, ``residual_sample`` maps n target
    variates e = sigma * z, z ~ N(0, I), between heads with a random
    direction and a random width sigma. In the whitened frame the distance s
    from the midpoint along the unit gap must follow the survival function S
    of ``_residual_survival`` (KS), and, for d > 1, the coordinates on an
    orthonormal basis of the complement must be N(0, 1) (KS, pooled). Delta
    runs down to 1e-9, where the residual mass 1 - beta is about 4e-10. Each
    of the 15 tests must reach p >= 0.001.
    """
    c = SuiteResult("residual-exactness")
    geometry = np.random.Generator(np.random.Philox(key=seed + 53))
    for case, (d, delta) in enumerate((d, delta) for d in dims for delta in deltas):
        sigma = geometry.uniform(0.5, 2.0)
        u = geometry.normal(size=d)
        u /= np.linalg.norm(u)
        mu_q = geometry.normal(size=d)
        mu_p = mu_q + delta * sigma * u
        gen = rngmod.stream(rngmod.derive_seed(seed, case))
        xs = np.empty((n, d))
        scratch = np.empty((2, d))
        for x in xs:
            e = sigma * gen.standard_normal(d)
            residual_sample(mu_p, mu_q, sigma, e, x, scratch)
        ys = (xs - 0.5 * (mu_p + mu_q)) / sigma
        along = ys @ u
        ks = scistats.kstest(along, lambda v: 1.0 - _residual_survival(v, 0.5 * delta))
        row = {"ks_pvalue": float(ks.pvalue), "min_s": float(along.min())}
        c.check(ks.pvalue >= 1e-3, f"d={d} Delta={delta:g}: KS p {ks.pvalue:.2e} of s against S below 0.001")
        if d > 1:
            basis = np.linalg.qr(np.column_stack([u, geometry.normal(size=(d, d - 1))]))[0][:, 1:]
            ks_orth = scistats.kstest((ys @ basis).ravel(), "norm")
            row["orth_ks_pvalue"] = float(ks_orth.pvalue)
            c.check(
                ks_orth.pvalue >= 1e-3,
                f"d={d} Delta={delta:g}: KS p {ks_orth.pvalue:.2e} of the orthogonal coordinates below 0.001",
            )
        c.details[f"d={d},Delta={delta:g}"] = row
    c.details["n"] = n
    return c


def suite_gamma_rule(grid: int = 500, gamma_max: int = 64) -> SuiteResult:
    """Closed-form near-optimal gamma vs exhaustive speedup scan."""
    c = SuiteResult("gamma-rule")
    alphas = np.linspace(0.02, 0.995, 25)
    cs = np.linspace(0.02, 1.2, grid // 25)
    worst = 0
    for a in alphas:
        for cost in cs:
            choice = select_gamma(float(a), float(cost), gamma_max)
            worst = max(worst, abs(choice.gamma_rule - choice.gamma_scan))
    c.details["grid_points"] = int(len(alphas) * len(cs))
    c.details["max_rule_scan_gap"] = worst
    c.check(worst <= 1, f"rule and scan disagree by {worst} > 1")
    return c


def _proposal_overlaps(target, draft, context, forecast, trace, sigma: float) -> np.ndarray:
    """beta = 2 Phi(-|mu_p - mu_q| / (2 sigma)) at each examined proposal, in order.

    The j-th proposal of a round that starts after e emitted patches was
    drawn at the prefix context + forecast[:e] + the round's proposals
    0..j-1, which ``trace.xs`` still holds. Each model reads its own
    lookback from the last ``len(context)`` patches of that prefix.
    """
    k = context.shape[0]
    emitted = np.concatenate([context, forecast])
    windows = []
    e = 0
    counts = zip(trace.round_lengths().tolist(), trace.examined_counts().tolist())
    for r, (length, examined) in enumerate(counts):
        prefix = np.concatenate([emitted[e : k + e], trace.xs[r]])
        windows.extend(prefix[j : j + k] for j in range(examined))
        e += length
    stack = np.stack(windows)
    return overlap(whitened_gap(target.mean_batch(stack), draft.mean_batch(stack), sigma * sigma))


def suite_dependence(seed: int = 0) -> SuiteResult:
    """Engine decodes of the end-to-end system against the dependence interval.

    On real forecasts the acceptance probability of a proposal depends on
    its prefix, so per-position acceptance is not i.i.d. At
    tolerance_lambda = 1 a proposal drawn from the draft head is accepted
    with probability beta, the overlap of the two heads at its prefix. Every
    test window of the end-to-end spec is decoded with each speculative
    variant at gamma = 3 and sigma 0.1 and 1.0. Per (variant, sigma): the
    accepted count must sit within 4 standard deviations of the sum of the
    examined proposals' betas (|z| <= 4), and mean L must lie in
    ``dependence_interval(min beta, max beta, gamma)``.
    """
    from .harness import decode_windows, fit_system

    c = SuiteResult("dependence")
    gamma = 3
    # every test window of the end-to-end system
    spec = dataclasses.replace(end_to_end_spec(seed), max_test_windows=1_000_000)
    target, drafts, _, windows = fit_system(spec)
    draft = drafts[spec.scales[0]]
    c.details["windows"] = len(windows)
    for variant in (VARIANT_PRACTICAL, VARIANT_LOSSLESS):
        for sigma in (0.1, 1.0):
            cfg = DecodeConfig(variant=variant, horizon_patches=spec.horizon_patches, seed=0,
                               gamma=gamma, sigma_target=sigma, sigma_draft=sigma)
            forecasts, traces, _ = decode_windows(target, draft, windows, cfg, seed, target.lookback)
            beta = np.concatenate([
                _proposal_overlaps(target, draft, w.context, f, t, sigma)
                for w, f, t in zip(windows, forecasts, traces)
            ])
            accepted = sum(int(t.accepted_counts().sum()) for t in traces)
            z = (accepted - beta.sum()) / math.sqrt(float(np.sum(beta * (1.0 - beta))))
            mean_l = float(np.concatenate([t.round_lengths() for t in traces]).mean())
            lo, hi = dependence_interval(float(beta.min()), float(beta.max()), gamma)
            label = f"{variant},sigma={sigma:g}"
            c.details[label] = {
                "z": float(z),
                "mean_L": mean_l,
                "interval": [lo, hi],
                "beta_min": float(beta.min()),
                "beta_max": float(beta.max()),
                "proposals": int(beta.size),
            }
            c.check(abs(z) <= 4.0, f"{label}: accepted count is {z:.2f} SD from the sum of betas")
            c.check(lo <= mean_l <= hi, f"{label}: mean L {mean_l:.4f} outside [{lo:.4f}, {hi:.4f}]")
    return c


def suite_estimator(seed: int = 0, reps: int = 200) -> SuiteResult:
    """Hoeffding interval coverage for the acceptance estimators.

    Closed-form per-history overlaps are checked on a heterogeneous history
    population; the two-stage Monte Carlo estimator is checked on a
    homogeneous population, the regime where its N*m concentration rate
    applies (with heterogeneous histories the per-history overlaps share no
    common mean across draws and only the N-rate is guaranteed).
    """
    c = SuiteResult("estimator")
    rng = np.random.Generator(np.random.Philox(key=seed + 97))

    # Closed-form estimator, heterogeneous population of history gaps.
    gaps = np.linspace(0.2, 2.5, 64)
    pop_pairs = [
        (GaussianHead.isotropic([0.0], 1.0), GaussianHead.isotropic([g], 1.0)) for g in gaps
    ]
    truth = float(np.mean(overlap(gaps)))
    n_hist = 200
    estimates = np.empty(reps)
    for r in range(reps):
        idx = rng.integers(0, len(pop_pairs), n_hist)
        est = estimate_alpha([pop_pairs[i] for i in idx], mode="closed_form")
        estimates[r] = est.alpha_bar_hat
    for eps in (0.02, 0.05, 0.1):
        nominal = max(0.0, 1.0 - 2.0 * math.exp(-2.0 * n_hist * eps ** 2))
        coverage = float(np.mean(np.abs(estimates - truth) <= eps))
        c.details[f"closed_form_eps={eps}"] = {"coverage": coverage, "nominal": nominal}
        c.check(
            coverage >= nominal,
            f"closed-form coverage {coverage:.3f} below nominal {nominal:.3f} at eps={eps}",
        )

    # Two-stage estimator, homogeneous population (all histories share one
    # gap). Heterogeneous histories would make the N*m rate anticonservative
    # because draws within one history share its overlap value.
    gap = 1.0
    beta_true = float(overlap(gap))
    n_hist, m = 100, 50
    p = GaussianHead.isotropic([0.0], 1.0)
    q = GaussianHead.isotropic([gap], 1.0)
    pairs = [(p, q)] * n_hist
    estimates2 = np.empty(reps)
    for r in range(reps):
        est = estimate_alpha(pairs, mode="monte_carlo", mc_per_history=m, rng=rng)
        estimates2[r] = est.alpha_bar_hat
    for eps in (0.01, 0.02, 0.05):
        nominal = max(0.0, 1.0 - 2.0 * math.exp(-2.0 * n_hist * m * eps ** 2))
        coverage = float(np.mean(np.abs(estimates2 - beta_true) <= eps))
        c.details[f"two_stage_eps={eps}"] = {"coverage": coverage, "nominal": nominal}
        c.check(
            coverage >= nominal,
            f"two-stage coverage {coverage:.3f} below nominal {nominal:.3f} at eps={eps}",
        )

    # Unbiasedness: Monte Carlo mean across replications hugs the truth.
    mc_mean = float(estimates2.mean())
    mc_se = float(estimates2.std(ddof=1) / math.sqrt(reps))
    c.details["two_stage_mc_mean"] = mc_mean
    c.details["two_stage_truth"] = beta_true
    c.check(
        abs(mc_mean - beta_true) <= 3 * mc_se + 1e-12,
        f"two-stage mean {mc_mean:.5f} departs from {beta_true:.5f} beyond 3 SE",
    )

    # Pinned radius arithmetic: N=5000, m=1, eps=0.05 -> 2 exp(-25).
    from .analysis import AcceptanceEstimate

    est = AcceptanceEstimate(alpha_bar_hat=0.5, n_histories=5000, mc_per_history=1)
    bound = est.tail_bound(0.05)
    c.details["tail_bound_5000_m1_eps05"] = bound
    c.check(abs(bound - 2.0 * math.exp(-25.0)) < 1e-15, "Hoeffding tail arithmetic drifted")
    return c


def suite_bounds(seed: int = 0) -> SuiteResult:
    """Deviation bound battery: TV/KL/Pinsker, continuity, horizon bound."""
    c = SuiteResult("bounds")
    # Continuity: as the draft mean approaches the target mean, alpha_bar
    # rises to 1 and the numeric TV(g, p) falls to 0, monotonically.
    tvs, alphas = [], []
    for gap in (2.0, 1.0, 0.5, 0.25, 0.0):
        if gap == 0.0:
            alphas.append(1.0)
            tvs.append(0.0)
            continue
        b = deviation_bounds(gap)
        alphas.append(b.alpha_bar)
        tvs.append(b.tv_numeric)
    c.details["alphas"] = [float(a) for a in alphas]
    c.details["tvs"] = [float(t) for t in tvs]
    c.check(all(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:])), "alpha_bar not increasing")
    c.check(all(t2 <= t1 for t1, t2 in zip(tvs, tvs[1:])), "numeric TV not decreasing")

    # Far-apart heads: both alpha_bar and the numeric TV collapse.
    far = deviation_bounds(10.0)
    c.details["far_alpha"] = far.alpha_bar
    c.details["far_tv"] = far.tv_numeric
    c.check(far.alpha_bar <= 1e-6 and far.tv_numeric <= 1e-6, "far-apart deviation not collapsing")

    # Horizon bound: product form below sum form on random delta lists.
    rng = np.random.Generator(np.random.Philox(key=seed + 131))
    ok = True
    for _ in range(200):
        deltas = rng.uniform(0.0, 0.5, rng.integers(1, 12))
        from .analysis import horizon_tv_bound

        hb = horizon_tv_bound(deltas)
        ok &= hb.bound <= hb.sum_bound + 1e-12
    c.check(ok, "product-form horizon bound exceeded the sum form")
    return c


def suite_predictor_identities(seed: int = 0, n: int = 1000) -> SuiteResult:
    """Algebraic consistency of the block-length family of predictors."""
    c = SuiteResult("predictor-identities")
    rng = np.random.Generator(np.random.Philox(key=seed + 151))
    worst_pmf = 0.0
    worst_dot = 0.0
    worst_speed = 0.0
    for _ in range(n):
        a = float(rng.uniform(0.0, 1.0))
        gamma = int(rng.integers(1, 33))
        cost = float(rng.uniform(0.05, 1.5))
        pmf = block_length_pmf(a, gamma)
        e_l = expected_block_length(a, gamma)
        worst_pmf = max(worst_pmf, abs(pmf.sum() - 1.0))
        worst_dot = max(worst_dot, abs(float(pmf @ np.arange(1, gamma + 2)) - e_l))
        worst_speed = max(worst_speed, abs(speedup_wall(a, gamma, cost) * (cost * gamma + 1.0) - e_l))
        of = ops_factor(a, gamma, 0.25)
        c.check(of > 0, "ops factor must be positive")
    c.details["max_pmf_gap"] = worst_pmf
    c.details["max_dot_gap"] = worst_dot
    c.details["max_speed_identity_gap"] = worst_speed
    c.check(worst_pmf <= 1e-12, f"pmf mass off by {worst_pmf:.2e}")
    c.check(worst_dot <= 1e-10, f"pmf expectation off by {worst_dot:.2e}")
    c.check(worst_speed <= 1e-10, f"speedup identity off by {worst_speed:.2e}")
    return c


def end_to_end_spec(seed: int = 0):
    """Canonical desk-scale experiment on the bundled synthetic dataset."""
    from .harness import DataSpec, ExperimentSpec
    from .synth import SyntheticSpec

    return ExperimentSpec(
        data=DataSpec(synthetic=SyntheticSpec()),
        patch_len=32,
        lookback=96,
        horizon_steps=384,
        sigmas=(0.25, 0.5, 1.0, 2.0),
        gammas=(3,),
        variants=(VARIANT_PRACTICAL,),
        scales=(0.25,),
        seeds=(seed,),
        ridge=1e3,
        max_test_windows=32,
    )


def suite_end_to_end(seed: int = 0) -> SuiteResult:
    """Desk-scale forecasting run: saturation, accuracy delta, speedup.

    At the acceptance-saturation sigma the practical decoder must keep mean L
    close to gamma + 1, degrade MSE against the target-only baseline by at
    most 25%, and beat the baseline wall clock whenever the measured cost
    ratio is genuinely small (c < 0.4) at gamma = 3.
    """
    from .harness import pick_saturation_sigma, run_experiment

    c = SuiteResult("end-to-end")
    spec = end_to_end_spec(seed)
    results = run_experiment(spec)
    sigma_star = pick_saturation_sigma(results)
    row = next(
        r for r in results if r.variant == VARIANT_PRACTICAL and r.sigma == sigma_star
    )
    base = next(
        r for r in results if r.variant == "target_only" and r.sigma == sigma_star
    )
    gamma = row.gamma
    c.details["sigma_star"] = sigma_star
    c.details["alpha_hat"] = row.alpha_hat
    c.details["mean_l"] = row.mean_l
    c.details["gamma"] = gamma
    c.details["mse"] = row.mse
    c.details["baseline_mse"] = base.mse
    c.details["delta_mse_pct"] = 100.0 * (row.mse - base.mse) / base.mse
    c.details["measured_c"] = row.cost.c
    c.details["s_wall_measured"] = row.s_wall_measured
    c.details["s_wall_pred"] = row.s_wall_pred

    c.check(
        row.mean_l >= 0.9 * (gamma + 1),
        f"mean L {row.mean_l:.3f} below 0.9 (gamma+1) = {0.9 * (gamma + 1):.2f} at sigma*={sigma_star}",
    )
    c.check(
        row.mse <= 1.25 * base.mse,
        f"MSE {row.mse:.4f} degrades baseline {base.mse:.4f} by more than 25%",
    )
    if row.cost.c < 0.4 and gamma == 3:
        c.check(
            row.s_wall_measured > 1.0,
            f"measured speedup {row.s_wall_measured:.3f} not above 1.0 despite c={row.cost.c:.3f}",
        )
    return c


_SUITES = {
    "lossless-exactness": suite_lossless_exactness,
    "practical-law": suite_practical_law,
    "capped-geometric": suite_capped_geometric,
    "overlap": suite_overlap,
    "residual-exactness": suite_residual_exactness,
    "gamma-rule": lambda seed=0: suite_gamma_rule(),
    "dependence": suite_dependence,
    "estimator": suite_estimator,
    "bounds": suite_bounds,
    "predictor-identities": suite_predictor_identities,
    "end-to-end": suite_end_to_end,
}


def run_suites(names: list[str] | None = None, seed: int = 0) -> Iterator[tuple[SuiteResult, float]]:
    """Run the named suites (every default one for None or ["all"]) in order.

    Yields each suite's result with its wall seconds as the suite finishes.
    An unknown name is refused before any suite runs.
    """
    chosen = list(SUITE_NAMES) if not names or names == ["all"] else names
    for name in chosen:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; options: {', '.join(SUITE_NAMES)}")
    for name in chosen:
        t0 = time.perf_counter()
        result = _SUITES[name](seed=seed)
        yield result, time.perf_counter() - t0
