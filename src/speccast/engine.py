"""The speculative decode loop over draft/target forecaster pairs.

Each round the draft proposes ``gamma`` patches autoregressively, the target
evaluates all gamma + 1 prefixes in one batched call, and proposals are kept
up to the first rejection. The variants differ only in the draw that closes
a rejected round: the practical variant falls back to the target head, the
lossless variant samples the residual density and thereby reproduces the
exact target chain.

Every random draw comes from a stream keyed by (seed, round, purpose), so a
trace is replayable bit-for-bit and the practical/lossless variants consume
common random numbers until their behavior diverges.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import kernels
from . import rng as rngmod
from .models import ForecastModel, History
from .prob import GaussianHead, residual_sample

_LOCAL = threading.local()
_RNG_BLOCK = 8  # rounds per pre-drawn randomness block (horizon-independent)


def _streams() -> rngmod.ReusableStream:
    # One re-keyable generator per thread; decode sessions on a thread are
    # strictly sequential, so reuse is safe and saves per-session setup.
    pool = getattr(_LOCAL, "streams", None)
    if pool is None:
        pool = rngmod.ReusableStream()
        _LOCAL.streams = pool
    return pool

VARIANT_PRACTICAL = "practical"
VARIANT_LOSSLESS = "lossless"
VARIANT_TARGET_ONLY = "target_only"
VARIANT_DRAFT_ONLY = "draft_only"
VARIANTS = (VARIANT_PRACTICAL, VARIANT_LOSSLESS, VARIANT_TARGET_ONLY, VARIANT_DRAFT_ONLY)

SOURCE_EXTEND = "target_next"        # all proposals accepted, extra target draw
SOURCE_FALLBACK = "target_fallback"  # practical rejection draw
SOURCE_RESIDUAL = "residual"         # lossless rejection draw
SOURCE_BASELINE = "baseline_draw"    # plain autoregressive baselines


@dataclass(frozen=True)
class DecodeConfig:
    variant: str
    horizon_patches: int
    seed: int
    gamma: int = 1
    tolerance_lambda: float = 1.0
    sigma_target: float | None = None
    sigma_draft: float | None = None
    draft_bias: float | None = None
    allow_unequal_variance: bool = False

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.horizon_patches < 1:
            raise ValueError("horizon_patches must be >= 1")
        if not self.tolerance_lambda > 0:
            raise ValueError("tolerance_lambda must be > 0")
        if self.draft_bias is not None and not self.draft_bias >= 0:
            raise ValueError(f"draft_bias must be >= 0, got {self.draft_bias}")


class Proposal(NamedTuple):
    x: np.ndarray
    log_q: float
    log_p: float
    alpha: float
    accepted: bool
    uniform: float


@dataclass
class RoundRecord:
    index: int
    n_accepted: int
    final_draw_source: str
    outputs_emitted: int                # L = n_accepted + 1
    residual_target_draws: int = 0
    residual_degenerate: bool = False
    # Raw per-proposal arrays (consumed prefix only); Proposal views are
    # materialized lazily to keep the decode loop lean.
    _xs: np.ndarray | None = None
    _log_q: np.ndarray | None = None
    _log_p: np.ndarray | None = None
    _alphas: np.ndarray | None = None
    _uniforms: np.ndarray | None = None

    @property
    def proposals(self) -> list[Proposal]:
        if self._xs is None:
            return []
        return [
            Proposal(
                x=self._xs[i],
                log_q=float(self._log_q[i]),
                log_p=float(self._log_p[i]),
                alpha=float(self._alphas[i]),
                accepted=i < self.n_accepted,
                uniform=float(self._uniforms[i]),
            )
            for i in range(self._xs.shape[0])
        ]


@dataclass
class Totals:
    target_passes: int = 0      # target-forward equivalents
    draft_passes: int = 0
    target_batch_calls: int = 0
    patches_emitted: int = 0


@dataclass
class DecodeTrace:
    variant: str
    gamma: int
    seed: int
    horizon_patches: int
    rounds: list[RoundRecord] = field(default_factory=list)
    totals: Totals = field(default_factory=Totals)
    wall_times: dict = field(default_factory=lambda: {"draft_total": 0.0, "target_total": 0.0})
    truncated_patches: int = 0

    def round_lengths(self) -> np.ndarray:
        return np.array([r.outputs_emitted for r in self.rounds], dtype=np.int64)

    def accepted_counts(self) -> np.ndarray:
        return np.array([r.n_accepted for r in self.rounds], dtype=np.int64)

    def round_dicts(self) -> list[dict]:
        out = []
        for r in self.rounds:
            out.append(
                {
                    "round": r.index,
                    "n": r.n_accepted,
                    "L": r.outputs_emitted,
                    "source": r.final_draw_source,
                    "residual_target_draws": r.residual_target_draws,
                    "residual_degenerate": r.residual_degenerate,
                    "proposals": [
                        {
                            "x": p.x.tolist(),
                            "log_q": p.log_q,
                            "log_p": p.log_p,
                            "alpha": p.alpha,
                            "accepted": p.accepted,
                            "u": p.uniform,
                        }
                        for p in r.proposals
                    ],
                }
            )
        return out

    def summary_dict(self) -> dict:
        return {
            "variant": self.variant,
            "gamma": self.gamma,
            "seed": self.seed,
            "horizon_patches": self.horizon_patches,
            "truncated_patches": self.truncated_patches,
            "totals": {
                "target_passes": self.totals.target_passes,
                "draft_passes": self.totals.draft_passes,
                "target_batch_calls": self.totals.target_batch_calls,
                "patches_emitted": self.totals.patches_emitted,
            },
            "wall_times": dict(self.wall_times),
        }

    def write_jsonl(self, path) -> None:
        """Line-delimited trace: one object per round, then a summary line."""
        with open(path, "w") as fh:
            for d in self.round_dicts():
                fh.write(json.dumps(d, sort_keys=True))
                fh.write("\n")
            fh.write(json.dumps({"summary": self.summary_dict()}, sort_keys=True))
            fh.write("\n")


def _resolve_sigmas(target: ForecastModel, draft: ForecastModel | None, cfg: DecodeConfig) -> tuple[float, float]:
    sigma_t = cfg.sigma_target if cfg.sigma_target is not None else target.sigma
    sigma_d = cfg.sigma_draft if cfg.sigma_draft is not None else (draft.sigma if draft else sigma_t)
    if draft is not None and not cfg.allow_unequal_variance and sigma_t != sigma_d:
        raise ValueError(
            f"shared-variance mode requires sigma_target == sigma_draft "
            f"(got {sigma_t} vs {sigma_d}); set both or allow_unequal_variance"
        )
    return float(sigma_t), float(sigma_d)


def decode(
    target: ForecastModel,
    draft: ForecastModel | None,
    h0: History,
    cfg: DecodeConfig,
) -> tuple[np.ndarray, DecodeTrace]:
    """Run one decode session; returns (forecast patches, trace).

    The forecast has exactly ``cfg.horizon_patches`` rows; a final round that
    overshoots is truncated without altering earlier rounds.
    """
    if cfg.variant in (VARIANT_TARGET_ONLY, VARIANT_DRAFT_ONLY):
        model = target if cfg.variant == VARIANT_TARGET_ONLY else draft
        if model is None:
            raise ValueError(f"{cfg.variant} requires the corresponding model")
        return _decode_baseline(model, h0, cfg)
    if draft is None:
        raise ValueError("speculative variants require a draft model")
    return _decode_speculative(target, draft, h0, cfg)


def _check_finite(mean: np.ndarray, round_index: int) -> None:
    # Sum propagates NaN/inf; much cheaper than an isfinite scan per step.
    if not math.isfinite(float(mean.sum())):
        raise RuntimeError(f"non-finite head parameters at round {round_index}; aborting decode")


def _decode_speculative(
    target: ForecastModel,
    draft: ForecastModel,
    h0: History,
    cfg: DecodeConfig,
) -> tuple[np.ndarray, DecodeTrace]:
    if target.d != draft.d:
        raise ValueError(f"model dimensions differ: target d={target.d}, draft d={draft.d}")
    sigma_t, sigma_d = _resolve_sigmas(target, draft, cfg)
    if cfg.draft_bias is not None:
        draft = draft.with_knobs(mean_bias=cfg.draft_bias)
    lossless = cfg.variant == VARIANT_LOSSLESS
    gamma = cfg.gamma
    d = target.d
    k_t, k_d = target.lookback, draft.lookback
    k_max = max(k_t, k_d)
    var_t = np.full(d, sigma_t * sigma_t)
    var_d = np.full(d, sigma_d * sigma_d)
    kernel_params = np.array(
        [
            1.0 / (sigma_d * sigma_d),
            1.0 / (sigma_t * sigma_t),
            math.log(cfg.tolerance_lambda),
            float(np.sum(np.log(2.0 * np.pi * var_d))),
            float(np.sum(np.log(2.0 * np.pi * var_t))),
        ]
    )

    if h0.lookback < k_max:
        raise ValueError(
            f"history capacity {h0.lookback} is below the larger model lookback {k_max}"
        )
    history = h0.copy()
    trace = DecodeTrace(cfg.variant, gamma, cfg.seed, cfg.horizon_patches)
    streams = _streams()
    outputs: list[np.ndarray] = []
    ctx = np.empty((k_max + gamma, d))
    stride_r, stride_c = ctx.strides
    # All gamma+1 prefix windows as one strided view over ctx (constant
    # layout across rounds), consumed by a single batched target call.
    prefix_windows = as_strided(
        ctx[k_max - k_t :],
        shape=(gamma + 1, k_t, d),
        strides=(stride_r, stride_r, stride_c),
    )
    mu_q = np.empty((gamma, d))
    log_q = np.empty(gamma)
    log_p = np.empty(gamma)
    alphas = np.empty(gamma)
    emitted = 0
    round_index = 0
    block_u = block_z = block_ext = None

    while emitted < cfg.horizon_patches:
        # Round draws come from fixed-size blocks pre-drawn from one stream
        # per block in a fixed order (all acceptance uniforms first, then
        # proposal noise, then extension draws). A round's draws therefore
        # depend only on (seed, round index), so truncating the horizon
        # never alters earlier rounds and both variants consume common
        # random numbers until a round's first rejection.
        slot = round_index % _RNG_BLOCK
        if slot == 0:
            gen = streams.rekey(cfg.seed, round_index // _RNG_BLOCK, rngmod.ROUND)
            block_u = gen.random((_RNG_BLOCK, gamma))
            block_z = gen.standard_normal((_RNG_BLOCK, gamma, d))
            block_ext = gen.standard_normal((_RNG_BLOCK, d))
        uniforms = block_u[slot]
        noise = block_z[slot]

        history.fill_window(ctx[:k_max])
        t0 = time.perf_counter()
        for i in range(gamma):
            mu_q[i] = draft.mean_one(ctx[k_max + i - k_d : k_max + i])
            ctx[k_max + i] = mu_q[i] + sigma_d * noise[i]
        t1 = time.perf_counter()

        mu_p = target.mean_batch(prefix_windows)
        t2 = time.perf_counter()
        trace.wall_times["draft_total"] += t1 - t0
        trace.wall_times["target_total"] += t2 - t1
        trace.totals.draft_passes += gamma
        trace.totals.target_passes += gamma + 1
        trace.totals.target_batch_calls += 1

        xs = ctx[k_max : k_max + gamma]
        n = kernels.round_accept(
            xs, uniforms, mu_q, mu_p[:gamma], log_q, log_p, alphas, kernel_params
        )
        if not math.isfinite(float(alphas.sum())):
            raise RuntimeError(
                f"non-finite head parameters at round {round_index}; aborting decode"
            )

        residual_draws = 0
        degenerate = False
        if n == gamma:
            source = SOURCE_EXTEND
            final = mu_p[gamma] + sigma_t * block_ext[slot]
        elif lossless:
            p_head = GaussianHead(mu_p[n], var_t)
            q_head = GaussianHead(mu_q[n], var_d)
            try:
                gen = streams.rekey(cfg.seed, round_index, rngmod.RESIDUAL)
                final, residual_draws = residual_sample(p_head, q_head, gen)
                source = SOURCE_RESIDUAL
            except ValueError:
                # Heads numerically identical at the rejected position:
                # residual undefined, degrade to the practical fallback.
                degenerate = True
                gen = streams.rekey(cfg.seed, round_index, rngmod.FALLBACK)
                final = mu_p[n] + sigma_t * gen.standard_normal(d)
                source = SOURCE_FALLBACK
        else:
            gen = streams.rekey(cfg.seed, round_index, rngmod.FALLBACK)
            final = mu_p[n] + sigma_t * gen.standard_normal(d)
            source = SOURCE_FALLBACK

        length = n + 1
        final = np.asarray(final, dtype=np.float64)
        _check_finite(final, round_index)
        consumed = min(n + 1, gamma)
        for i in range(n):
            outputs.append(xs[i].copy())
        outputs.append(final)
        history.extend(xs[:n], final)
        trace.rounds.append(
            RoundRecord(
                index=round_index,
                n_accepted=n,
                final_draw_source=source,
                outputs_emitted=length,
                residual_target_draws=residual_draws,
                residual_degenerate=degenerate,
                _xs=xs[:consumed].copy(),
                _log_q=log_q[:consumed].copy(),
                _log_p=log_p[:consumed].copy(),
                _alphas=alphas[:consumed].copy(),
                _uniforms=uniforms[:consumed].copy(),
            )
        )
        trace.totals.patches_emitted += length
        emitted += length
        round_index += 1

    forecast = np.vstack(outputs)
    trace.truncated_patches = forecast.shape[0] - cfg.horizon_patches
    return forecast[: cfg.horizon_patches], trace


def _decode_baseline(model: ForecastModel, h0: History, cfg: DecodeConfig) -> tuple[np.ndarray, DecodeTrace]:
    sigma = cfg.sigma_target if cfg.variant == VARIANT_TARGET_ONLY else cfg.sigma_draft
    sigma = float(sigma) if sigma is not None else model.sigma
    if cfg.variant == VARIANT_DRAFT_ONLY and cfg.draft_bias is not None:
        model = model.with_knobs(mean_bias=cfg.draft_bias)
    horizon = cfg.horizon_patches
    d = model.d
    if h0.lookback < model.lookback:
        raise ValueError(
            f"history capacity {h0.lookback} is below the model lookback {model.lookback}"
        )
    history = h0.copy()
    trace = DecodeTrace(cfg.variant, cfg.gamma, cfg.seed, horizon)
    noise = _streams().rekey(cfg.seed, 0, rngmod.DIRECT).standard_normal((horizon, d))
    outputs = np.empty((horizon, d))
    wall_key = "target_total" if cfg.variant == VARIANT_TARGET_ONLY else "draft_total"

    t0 = time.perf_counter()
    for i in range(horizon):
        mean = model.mean_one(history.window(model.lookback))
        _check_finite(mean, i)
        patch = mean + sigma * noise[i]
        outputs[i] = patch
        history.append(patch)
        trace.rounds.append(
            RoundRecord(
                index=i,
                n_accepted=0,
                final_draw_source=SOURCE_BASELINE,
                outputs_emitted=1,
            )
        )
    trace.wall_times[wall_key] += time.perf_counter() - t0
    if cfg.variant == VARIANT_TARGET_ONLY:
        trace.totals.target_passes = horizon
    else:
        trace.totals.draft_passes = horizon
    trace.totals.patches_emitted = horizon
    return outputs, trace
