"""The speculative decode loop over draft/target forecaster pairs.

Each round the draft proposes ``gamma`` patches autoregressively, the target
evaluates all gamma + 1 prefixes in one batched call, and proposals are kept
up to the first rejection. The variants differ only in the draw that closes
a rejected round: the practical variant falls back to the target head, the
lossless variant samples the residual density and thereby reproduces the
exact target chain.

A round that accepts n proposals closes at position n. Unless it ends in a
residual draw, it closes with ``mu_p[n] + ext``, where ``ext`` is the
round's pre-drawn N(0, sigma^2 I) target variate: that covers the
extension (n = gamma) and the practical fallback (n < gamma). ``ext`` is
drawn with the round's uniforms and proposal noise but independently of
them, so given the accept decision it is still a target draw; one
expression closes the round and no rejection re-keys a stream. A rejected
lossless round closes with ``residual_sample(mu_p[n], mu_q[n], ...)`` on the
target and draft mean rows the round already holds, with the standard
deviation computed once per head setting (``_head_params``); no head object
is built. The sampler is exact for every overlap below 1, so a lossless
round never falls back to the practical draw. At tolerance_lambda = 1 a
rejection with finite means implies distinct means, so its only ValueError
is a non-finite mean (or a gap whose square underflows to 0), and that
aborts the decode with ``DecodeAborted`` (a RuntimeError) naming the round,
as does a non-finite closing draw.

The target and draft heads of a speculative decode share one variance, as
the paper's acceptance rule and every predictor here assume: a decode whose
resolved ``sigma_target`` and ``sigma_draft`` differ is refused with a
ValueError. The lossless variant also refuses a head variance below
``prob.VARIANCE_FLOOR``, and a tolerance_lambda other than 1: the
acceptance min(1, lambda p / q) and the (p - q)_+ residual combine to the
target law only at lambda = 1.

Every random draw comes from a stream keyed by (seed, round, purpose), so a
trace is replayable bit-for-bit and the practical/lossless variants consume
common random numbers until their behavior diverges.

A session starts from a ``models.History``, a read-only left-padded
context, and decodes inside one preallocated (k_max + horizon + gamma, d)
buffer: the context is written into it once, proposals, accepted patches
and closing draws are written in place, the gamma + 1 verify windows of a
round are a slice of one strided view built per session, and the forecast
is one slice copy at the end. ``kernels.round_accept`` scores the draft and
target densities of a round as one stacked computation that writes straight
into the trace's preallocated per-round columns; ``RoundRecord`` objects are
built from those columns only when they are read.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from . import rng as rngmod
from .models import ForecastModel, History
from .prob import VARIANCE_FLOOR, residual_sample, residual_std

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


class DecodeAborted(RuntimeError):
    """A decode met a non-finite head mean or draw and stopped at that round."""


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

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.horizon_patches < 1:
            raise ValueError("horizon_patches must be >= 1")
        if not self.tolerance_lambda > 0:
            raise ValueError("tolerance_lambda must be > 0")
        if self.variant == VARIANT_LOSSLESS and self.tolerance_lambda != 1.0:
            raise ValueError(
                f"lossless decoding requires tolerance_lambda == 1, got {self.tolerance_lambda}: "
                f"min(1, lambda p/q) acceptance and the (p - q)_+ residual sample the target only at 1"
            )
        if self.draft_bias is not None and not self.draft_bias >= 0:
            raise ValueError(f"draft_bias must be >= 0, got {self.draft_bias}")
        for name in ("sigma_target", "sigma_draft"):
            sigma = getattr(self, name)
            if sigma is not None and not (math.isfinite(sigma) and sigma > 0):
                raise ValueError(f"{name} must be finite and > 0, got {sigma}")


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
    # Per-proposal views of the trace columns (consumed prefix only);
    # Proposal tuples are materialized on access.
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


# Codes of the ``sources`` column, indexing SOURCES.
SOURCES = (SOURCE_BASELINE, SOURCE_EXTEND, SOURCE_FALLBACK, SOURCE_RESIDUAL)
_BASELINE, _EXTEND, _FALLBACK, _RESIDUAL = range(len(SOURCES))


@functools.lru_cache(maxsize=16)
def _zero_columns(h: int) -> tuple[np.ndarray, ...]:
    zeros = np.zeros((2, h), dtype=np.int64)
    zeros.flags.writeable = False
    return tuple(zeros)


@dataclass(eq=False)
class DecodeTrace:
    """Per-round columns of one session, preallocated for horizon rounds.

    A round emits at least one patch, so ``horizon_patches`` rows always
    suffice; the first ``n_rounds`` are filled. Integer columns:
    ``n_accepted`` and ``sources`` (codes into SOURCES). Speculative variants
    also fill, per round and proposal position, ``xs`` (rounds, gamma, d),
    ``log_q``/``log_p`` (views of the stacked ``logs``, shape
    (rounds, 2, gamma)), ``alphas`` and ``uniforms``; only the consumed
    prefix min(n + 1, gamma) of a round is meaningful.
    ``RoundRecord``/``Proposal`` objects are built from the columns only when
    ``rounds`` or ``round_dicts()`` is read.
    """

    variant: str
    gamma: int
    seed: int
    horizon_patches: int
    patch_len: int = 1
    totals: Totals = field(default_factory=Totals)
    wall_times: dict = field(default_factory=lambda: {"draft_total": 0.0, "target_total": 0.0})
    truncated_patches: int = 0
    n_rounds: int = 0
    _records: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        h = self.horizon_patches
        self.speculative = self.variant in (VARIANT_PRACTICAL, VARIANT_LOSSLESS)
        if not self.speculative:
            # Baseline rounds are all alike (n = 0, source baseline).
            self.n_accepted, self.sources = _zero_columns(h)
            return
        self.n_accepted, self.sources = np.zeros((2, h), dtype=np.int64)
        g = self.gamma
        self.xs = np.empty((h, g, self.patch_len))
        self.logs = np.empty((h, 2, g))
        self.log_q, self.log_p = self.logs[:, 0], self.logs[:, 1]
        self.alphas, self.uniforms = np.empty((2, h, g))

    @property
    def rounds(self) -> list[RoundRecord]:
        if self._records is None:
            self._records = [self._record(i) for i in range(self.n_rounds)]
        return self._records

    def _record(self, i: int) -> RoundRecord:
        n = int(self.n_accepted[i])
        rec = RoundRecord(
            index=i,
            n_accepted=n,
            final_draw_source=SOURCES[self.sources[i]],
            outputs_emitted=n + 1,
        )
        if self.speculative:
            consumed = min(n + 1, self.gamma)
            rec._xs = self.xs[i, :consumed]
            rec._log_q = self.log_q[i, :consumed]
            rec._log_p = self.log_p[i, :consumed]
            rec._alphas = self.alphas[i, :consumed]
            rec._uniforms = self.uniforms[i, :consumed]
        return rec

    def round_lengths(self) -> np.ndarray:
        return self.n_accepted[: self.n_rounds] + 1

    def accepted_counts(self) -> np.ndarray:
        return self.n_accepted[: self.n_rounds].copy()

    def round_dicts(self) -> list[dict]:
        out = []
        for r in self.rounds:
            out.append(
                {
                    "round": r.index,
                    "n": r.n_accepted,
                    "L": r.outputs_emitted,
                    "source": r.final_draw_source,
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


def _resolve_sigma(target: ForecastModel, draft: ForecastModel, cfg: DecodeConfig) -> float:
    """The one head sigma of a speculative decode."""
    sigma_t = cfg.sigma_target if cfg.sigma_target is not None else target.sigma
    sigma_d = cfg.sigma_draft if cfg.sigma_draft is not None else draft.sigma
    if sigma_t != sigma_d:
        raise ValueError(
            f"shared-variance decoding requires sigma_target == sigma_draft "
            f"(got {sigma_t} vs {sigma_d}); set both to one value"
        )
    if cfg.variant == VARIANT_LOSSLESS and sigma_t ** 2 < VARIANCE_FLOOR:
        raise ValueError(
            f"lossless decoding needs a head variance >= the variance floor {VARIANCE_FLOOR:g} "
            f"(sigma >= {math.sqrt(VARIANCE_FLOOR):g}), got sigma={sigma_t:g}"
        )
    return float(sigma_t)


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


def _check_finite(patch: np.ndarray, round_index: int) -> None:
    # Sum propagates NaN/inf; much cheaper than an isfinite scan per step.
    if not math.isfinite(np.add.reduce(patch)):
        raise DecodeAborted(f"non-finite head parameters at round {round_index}; aborting decode")


@functools.lru_cache(maxsize=64)
def _head_params(sigma: float, tolerance_lambda: float, d: int, gamma: int, lossless: bool):
    """The ``round_accept`` constants of one setting, and the
    ``residual_sample`` ones when lossless (None otherwise).

    Cached: the sessions of a run share them, and the arrays are only read.
    """
    var = np.full(d, sigma * sigma)
    params = (np.full((2, gamma), 1.0 / (sigma * sigma)),
              np.full((2, gamma), float(np.sum(np.log(2.0 * np.pi * var)))),
              np.full((2, gamma), -0.5),
              np.full(gamma, math.log(tolerance_lambda)), np.zeros(gamma))
    for a in params:
        a.flags.writeable = False
    return params, residual_std(var, var) if lossless else None


def _decode_speculative(
    target: ForecastModel,
    draft: ForecastModel,
    h0: History,
    cfg: DecodeConfig,
) -> tuple[np.ndarray, DecodeTrace]:
    if target.d != draft.d:
        raise ValueError(f"model dimensions differ: target d={target.d}, draft d={draft.d}")
    sigma = _resolve_sigma(target, draft, cfg)
    if cfg.draft_bias is not None:
        draft = draft.with_knobs(mean_bias=cfg.draft_bias)
    lossless = cfg.variant == VARIANT_LOSSLESS
    gamma = cfg.gamma
    horizon = cfg.horizon_patches
    d = target.d
    k_t, k_d = target.lookback, draft.lookback
    k_max = max(k_t, k_d)
    if h0.lookback < k_max:
        raise ValueError(
            f"history capacity {h0.lookback} is below the larger model lookback {k_max}"
        )
    kernel_params, residual = _head_params(sigma, cfg.tolerance_lambda, d, gamma, lossless)
    trace = DecodeTrace(cfg.variant, gamma, cfg.seed, horizon, d)
    streams = _streams()

    # The session buffer holds the history, then every emitted patch in
    # order; a round's proposals are written after the emitted ones, where
    # the accepted ones stay and the closing draw overwrites the first
    # rejected one. The last round may overshoot the horizon by gamma rows.
    buf = np.empty((k_max + horizon + gamma, d))
    h0.fill_window(buf[:k_max])
    row, col = buf.strides
    # windows[j] is the target window ending before buffer row k_max + j; a
    # round that has emitted e patches verifies windows[e : e + gamma + 1].
    windows = np.ndarray(
        (horizon + gamma, k_t, d), buffer=buf, offset=(k_max - k_t) * row, strides=(row, row, col)
    )
    mus = np.empty((2, gamma, d))  # draft (0) and target (1) means
    scratch = np.empty((2, gamma, d))
    n_col, src_col = trace.n_accepted, trace.sources
    xs_col, logs, alphas, u_col = trace.xs, trace.logs, trace.alphas, trace.uniforms
    draft_mean, target_mean = draft.mean_one, target.mean_batch
    draft_wall = target_wall = 0.0
    emitted = 0
    r = 0

    while emitted < horizon:
        # Round draws come from fixed-size blocks pre-drawn from one stream
        # per block in a fixed order (all acceptance uniforms first, then
        # proposal noise, then the closing target draws). A round's draws
        # therefore depend only on (seed, round index), so truncating the
        # horizon never alters earlier rounds and both variants consume
        # common random numbers until a round's first rejection.
        slot = r % _RNG_BLOCK
        if slot == 0:
            gen = streams.rekey(cfg.seed, r // _RNG_BLOCK, rngmod.ROUND)
            block_u = gen.random((_RNG_BLOCK, gamma))
            block_z = gen.standard_normal((_RNG_BLOCK, gamma, d))
            block_ext = gen.standard_normal((_RNG_BLOCK, d))
            block_z *= sigma
            block_ext *= sigma
            u_col[r : r + _RNG_BLOCK] = block_u[: horizon - r]
            u_rows = block_u.tolist()
        noise = block_z[slot]
        p = k_max + emitted

        t0 = time.perf_counter()
        for i in range(gamma):
            mu = draft_mean(buf[p + i - k_d : p + i])
            mus[0, i] = mu
            np.add(mu, noise[i], out=buf[p + i])
        t1 = time.perf_counter()
        mu_p = target_mean(windows[emitted : emitted + gamma + 1])
        t2 = time.perf_counter()
        draft_wall += t1 - t0
        target_wall += t2 - t1

        mus[1] = mu_p[:gamma]
        xs = buf[p : p + gamma]
        n = kernels.round_accept(xs, u_rows[slot], mus, scratch, logs[r], alphas[r], kernel_params)
        if n < 0:
            raise DecodeAborted(f"non-finite head parameters at round {r}; aborting decode")
        xs_col[r] = xs  # before the closing draw overwrites a rejected proposal

        final = buf[p + n]
        if lossless and n < gamma:
            gen = streams.rekey(cfg.seed, r, rngmod.RESIDUAL)
            try:
                final[:] = residual_sample(mu_p[n], mus[0, n], residual, gen)[0]
            except ValueError as exc:
                raise DecodeAborted(f"residual draw failed at round {r} ({exc}); aborting decode") from exc
            source = _RESIDUAL
        else:
            # The extension, or the practical fallback: the round's own
            # target draw, independent of its accept decision.
            np.add(mu_p[n], block_ext[slot], out=final)
            source = _EXTEND if n == gamma else _FALLBACK
        _check_finite(final, r)

        n_col[r] = n
        src_col[r] = source
        emitted += n + 1
        r += 1

    trace.n_rounds = r
    trace.totals = Totals(
        target_passes=r * (gamma + 1),
        draft_passes=r * gamma,
        target_batch_calls=r,
        patches_emitted=emitted,
    )
    trace.wall_times = {"draft_total": draft_wall, "target_total": target_wall}
    trace.truncated_patches = emitted - horizon
    return buf[k_max : k_max + horizon].copy(), trace


def _decode_baseline(model: ForecastModel, h0: History, cfg: DecodeConfig) -> tuple[np.ndarray, DecodeTrace]:
    sigma = cfg.sigma_target if cfg.variant == VARIANT_TARGET_ONLY else cfg.sigma_draft
    sigma = float(sigma) if sigma is not None else model.sigma
    if cfg.variant == VARIANT_DRAFT_ONLY and cfg.draft_bias is not None:
        model = model.with_knobs(mean_bias=cfg.draft_bias)
    horizon = cfg.horizon_patches
    k = model.lookback
    if h0.lookback < k:
        raise ValueError(
            f"history capacity {h0.lookback} is below the model lookback {k}"
        )
    # Session buffer: the history, then each patch as it is drawn; step i
    # reads the window buf[i : i + k] and writes row k + i.
    buf = np.empty((k + horizon, model.d))
    h0.fill_window(buf[:k])
    noise = _streams().rekey(cfg.seed, 0, rngmod.DIRECT).standard_normal((horizon, model.d))
    noise *= sigma
    mean_one = model.mean_one

    t0 = time.perf_counter()
    for i in range(horizon):
        np.add(mean_one(buf[i : i + k]), noise[i], out=buf[k + i])
    elapsed = time.perf_counter() - t0
    forecast = buf[k:]
    if not math.isfinite(np.add.reduce(forecast, axis=None)):
        # The noise is finite, so the first non-finite patch is the first
        # step whose head mean was not finite.
        first = int(np.argmin(np.isfinite(forecast).all(axis=1)))
        raise DecodeAborted(f"non-finite head parameters at round {first}; aborting decode")

    target_only = cfg.variant == VARIANT_TARGET_ONLY
    trace = DecodeTrace(
        cfg.variant, cfg.gamma, cfg.seed, horizon, model.d,
        totals=Totals(
            target_passes=horizon if target_only else 0,
            draft_passes=0 if target_only else horizon,
            patches_emitted=horizon,
        ),
        wall_times={
            "draft_total": 0.0 if target_only else elapsed,
            "target_total": elapsed if target_only else 0.0,
        },
        n_rounds=horizon,
    )
    return forecast.copy(), trace
