"""Workload set-up: everything a decode session needs, built from one seed.

forecast-aligned and forecast-sharp share the end-to-end spec of the
validation suite (synthetic seasonal+AR data, patch 32, lookback 96, a draft
at scale 0.25, ridge 1e3, gamma 3, 12-patch horizon over every test window)
and differ only in the head width: sigma 1.0 accepts almost every proposal,
sigma 0.1 rejects in about two rounds of three. mc-sessions is the
validation suites' traffic: horizon-1 sessions on the 1-d persistence pair
whose per-position acceptance is 0.8.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from speccast import rng as rngmod
from speccast.analysis import estimate_alpha
from speccast.engine import DecodeConfig
from speccast.harness import build_test_windows
from speccast.models import History, fit_linear_ar, persistence_model
from speccast.prob import GaussianHead, gap_for_overlap
from speccast.series import NormStats, PatchSeries, chronological_split
from speccast.synth import SyntheticSpec

VARIANTS = ("target_only", "practical", "lossless")
GAMMA = 3
FORECAST_HORIZON = 12
MC_ALPHA = 0.8


@dataclass(frozen=True)
class Scale:
    """Problem size and run shape; FULL is the benchmark, SMOKE its test."""

    n_steps: int            # synthetic series length per channel
    patch_len: int
    lookback: int
    max_windows: int
    alpha_histories: int
    min_setups: int         # set-up repeats; setup_s is their median ...
    min_setup_seconds: float  # ... and they continue until this much time passed
    max_triples: int | None  # session triples cap (None: run for --seconds)
    block_triples: int      # traced and untraced blocks alternate at this size
    check_sessions: int     # fixed-seed sessions per variant for the KS check


FULL = Scale(
    n_steps=360_000, patch_len=32, lookback=96, max_windows=1_000_000,
    alpha_histories=512, min_setups=3, min_setup_seconds=0.5,
    max_triples=None, block_triples=32, check_sessions=10_000,
)
SMOKE = Scale(
    n_steps=30_000, patch_len=8, lookback=24, max_windows=6,
    alpha_histories=64, min_setups=1, min_setup_seconds=0.0,
    max_triples=64, block_triples=16, check_sessions=400,
)


@dataclass
class Workload:
    name: str
    target: object
    draft: object
    sigma: float
    horizon: int
    inputs: list            # (initial History, reference patches) per window
    alpha_hat: float
    seed_base: int
    parts: dict = field(default_factory=dict)  # set-up sub-step seconds
    configs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for variant in VARIANTS:
            self.configs[variant] = DecodeConfig(
                variant=variant,
                horizon_patches=self.horizon,
                seed=0,
                gamma=GAMMA,
                sigma_target=self.sigma,
                sigma_draft=self.sigma,
            )

    def session(self, index: int, variant: str):
        """(draft, history, reference, config) of session ``index``."""
        h0, reference = self.inputs[index % len(self.inputs)]
        cfg = dataclasses.replace(self.configs[variant], seed=self.seed_base + index)
        draft = None if variant == "target_only" else self.draft
        return draft, h0, reference, cfg


def _alpha_pairs(target, draft, val: PatchSeries, k_ctx: int, sigma: float, n: int):
    """(target, draft) heads at held-out histories for the overlap estimate."""
    contexts = [
        val.channel_patches(ch)[start : start + k_ctx]
        for ch in range(val.n_channels)
        for start in range(0, val.n_patches - k_ctx, max(1, k_ctx // 4))
    ]
    idx = np.unique(np.linspace(0, len(contexts) - 1, min(n, len(contexts))).round().astype(int))
    stack = np.stack([contexts[i] for i in idx])
    var = np.full(target.d, sigma * sigma)
    mu_p, mu_q = target.predict_means(stack), draft.predict_means(stack)
    return [(GaussianHead(p, var), GaussianHead(q, var)) for p, q in zip(mu_p, mu_q)]


def setup_forecast(name: str, sigma: float, seed: int, scale: Scale) -> Workload:
    t0 = time.perf_counter()
    # The data and models are the end-to-end spec's own; the seed picks the
    # decode sessions' random streams.
    values = SyntheticSpec(n_steps=scale.n_steps).generate()
    t1 = time.perf_counter()
    train_v, val_v, test_v = chronological_split(values, (0.6, 0.2, 0.2))
    stats = NormStats.from_values(train_v)
    train, val, test = (PatchSeries.from_values(v, scale.patch_len, stats) for v in (train_v, val_v, test_v))
    t2 = time.perf_counter()
    target = fit_linear_ar(train, scale.lookback, 1e3)
    draft = fit_linear_ar(train, scale.lookback, 1e3, scale=0.25)
    t3 = time.perf_counter()
    k_ctx = target.lookback
    pad = target.pad_patch()
    inputs = [
        (History.from_patches(w.context, k_ctx, pad), w.truth)
        for w in build_test_windows(test, k_ctx, FORECAST_HORIZON, scale.max_windows)
    ]
    pairs = _alpha_pairs(target, draft, val, k_ctx, sigma, scale.alpha_histories)
    alpha_hat = estimate_alpha(pairs).alpha_bar_hat
    return Workload(
        name=name, target=target, draft=draft, sigma=sigma, horizon=FORECAST_HORIZON,
        inputs=inputs, alpha_hat=alpha_hat, seed_base=rngmod.derive_seed(seed, 1),
        parts={
            "synth.generate_s": t1 - t0,
            "series.patchify_s": t2 - t1,
            "models.fit_s": t3 - t2,
        },
    )


def setup_mc(name: str, seed: int, scale: Scale) -> Workload:
    sigma = 1.0
    gap = gap_for_overlap(MC_ALPHA) * sigma
    target = persistence_model(patch_len=1, sigma=sigma)
    draft = persistence_model(patch_len=1, sigma=sigma, mean_bias=gap)
    h0 = History.from_patches(np.zeros((1, 1)), 1)
    # The persistence target's mean at h0 is 0, so the reference patch is the
    # target's own mean and "MSE" is the output's spread around it.
    reference = np.zeros((1, 1))
    p, q = GaussianHead.isotropic([0.0], sigma), GaussianHead.isotropic([gap], sigma)
    alpha_hat = estimate_alpha([(p, q)]).alpha_bar_hat
    return Workload(
        name=name, target=target, draft=draft, sigma=sigma, horizon=1,
        inputs=[(h0, reference)], alpha_hat=alpha_hat, seed_base=rngmod.derive_seed(seed, 1),
    )


def setup(name: str, seed: int, scale: Scale) -> Workload:
    if name == "forecast-aligned":
        return setup_forecast(name, 1.0, seed, scale)
    if name == "forecast-sharp":
        return setup_forecast(name, 0.1, seed, scale)
    if name == "mc-sessions":
        return setup_mc(name, seed, scale)
    raise ValueError(f"unknown workload {name!r}; options: {', '.join(WORKLOADS)}")


WORKLOADS = ("forecast-aligned", "forecast-sharp", "mc-sessions")
