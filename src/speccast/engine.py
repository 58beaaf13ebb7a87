"""The speculative decode loop over draft/target forecaster pairs.

Each round the draft proposes ``gamma`` patches autoregressively, the target
evaluates all gamma + 1 prefixes in one batched call, and proposals are kept
up to the first rejection. The variants differ only in the draw that closes
a rejected round: the practical variant falls back to the target head, the
lossless variant samples the residual density and thereby reproduces the
exact target chain.

A round that accepts n proposals closes at position n, from ``ext``, the
round's one pre-drawn N(0, sigma^2 I) target variate. ``ext`` is drawn with
the round's uniforms and proposal noise but independently of them, so given
the accept decision it is still a target draw. The extension (n = gamma)
and the practical fallback (n < gamma) close with ``mu_p[n] + ext``; a
rejected lossless round closes with ``residual_sample(mu_p[n], mu_q[n],
std, ext)``, the exact residual draw that ext maps to, on the target and
draft mean rows the round already holds, with the standard deviation
built once per head setting (``_head_params``). No rejection re-keys a
stream and no head object is built. The residual map is exact for every
overlap below 1, so a lossless round never falls back to the practical
draw. At tolerance_lambda = 1 a rejection with finite means implies
distinct means, so its only ValueError is a non-finite mean (or a gap whose
square underflows to 0), and that aborts the decode with ``DecodeAborted``
(a RuntimeError) naming the round, as does a non-finite closing draw.

The target and draft heads of a speculative decode share one variance, as
the paper's acceptance rule and every predictor here assume: a decode whose
resolved ``sigma_target`` and ``sigma_draft`` differ is refused with a
ValueError. The lossless variant also refuses a head variance below
``prob.VARIANCE_FLOOR``, and a tolerance_lambda other than 1: the
acceptance min(1, lambda p / q) and the (p - q)_+ residual combine to the
target law only at lambda = 1.

Every random draw comes from a stream keyed by (seed, block, purpose): one
``ROUND`` key per block of 8 rounds for speculative variants, one
``DIRECT`` key per session for the baselines. So a trace is replayable
bit-for-bit and the practical/lossless variants consume the same random
numbers, diverging only in what a rejected round makes of its ``ext``.

A session starts from a ``models.History``, a read-only left-padded
context, and decodes inside a (k_max + horizon + gamma, d) buffer: the
context is written into it once, proposals, accepted patches and closing
draws are written in place, and the forecast is one slice copy at the end.
The buffer, the stacked means and the noise block belong to a
``_Workspace`` that the sessions of one shape on a thread share, with the
row and window views a round reads prebuilt as Python lists; so a session
allocates only its trace columns. A round makes only the numpy calls its
math needs:

- the draft writes each mean into its row of the stacked means with
  ``mean_one(window, out=row)``, and each proposal, mean plus noise, into
  the buffer;
- one batched target call writes the gamma + 1 target means in place with
  ``mean_batch(windows, out=rows)``;
- ``kernels.round_accept`` writes the proposals' squared distances to both
  means into the round's row of the trace's ``dists`` column with one
  subtract, square and reduce, then scans acceptance on Python floats;
- a block of 8 rounds takes its uniforms straight into the trace's
  ``uniforms`` column, and its proposal noise and closing variates from one
  ``standard_normal`` call and one scaling.

A ``DecodeTrace`` stores the columns the round writes (``n_accepted``,
``xs``, ``dists``, ``uniforms``), the round count and the wall times of the
draft and target calls. The trace alone derives everything else from them
when read: the ``sources`` of the closing draws, the ``log_q``, ``log_p``
and ``alphas`` columns (``kernels.acceptance_columns``, in the kernel's
operation order), the examined proposals of each round, the pass and patch
``totals``, the last round's ``truncated_patches`` and the export dicts of
``round_dicts()``. The ``RoundRecord`` list of ``rounds`` remains only
because ``perfbench`` reads it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from . import rng as rngmod
from .models import ForecastModel, History
from .prob import VARIANCE_FLOOR, residual_sample

_LOCAL = threading.local()
_RNG_BLOCK = 8  # rounds per pre-drawn randomness block (horizon-independent)
_WORKSPACE_SHAPES = 8  # session shapes a thread keeps workspaces for


def _streams() -> rngmod.ReusableStream:
    # One re-keyable generator per thread; decode sessions on a thread are
    # strictly sequential, so reuse is safe and saves per-session setup.
    pool = getattr(_LOCAL, "streams", None)
    if pool is None:
        pool = rngmod.ReusableStream()
        _LOCAL.streams = pool
    return pool


class _Workspace:
    """The scratch arrays of one speculative session shape, and their row views.

    The session buffer holds the context (``k_max`` rows), then every
    emitted patch in order; a round's proposals are written after the
    emitted ones, where the accepted ones stay and the closing draw
    overwrites the first rejected one, and the last round may overshoot the
    horizon by gamma rows. A round that has emitted e patches reads its
    views at index e: ``propose[e + i]`` is the draft window of proposal i,
    ``rows[e + i]`` the buffer row it is written to, ``verify[e]`` the
    gamma + 1 target windows (one strided view of the buffer) and
    ``proposals[e]`` the gamma proposals. ``means`` stacks the draft (0) and
    target (1) means at the gamma proposal positions, the kernel's operand;
    the draft writes its means into the rows of ``draft_means`` and the
    verify pass all gamma + 1 target means into ``target_means``, whose rows
    are ``target_rows``. ``normals`` holds a block's proposal noise, gamma
    rows per round, then its closing variates, one row per round, in the
    order they are drawn; ``noise`` lists its rows.

    Every session writes each row before it reads it, so the sessions of a
    thread, which run one after another, share one workspace per shape, and
    a round indexes Python lists of views instead of building views.
    """

    def __init__(self, k_max: int, k_t: int, k_d: int, horizon: int, gamma: int, d: int) -> None:
        buf = np.empty((k_max + horizon + gamma, d))
        self.context = buf[:k_max]
        self.forecast = buf[k_max : k_max + horizon]
        self.rows = list(buf[k_max:])
        self.propose = [buf[k_max + j - k_d : k_max + j] for j in range(horizon + gamma - 1)]
        self.proposals = [buf[k_max + e : k_max + e + gamma] for e in range(horizon)]
        row, col = buf.strides
        windows = np.ndarray(
            (horizon + gamma, k_t, d), buffer=buf, offset=(k_max - k_t) * row, strides=(row, row, col)
        )
        self.verify = [windows[e : e + gamma + 1] for e in range(horizon)]
        mus = np.empty((2, gamma + 1, d))
        self.means = mus[:, :gamma]
        self.draft_means = list(mus[0])
        self.target_means = mus[1]
        self.target_rows = list(mus[1])
        self.scratch = np.empty((2, gamma, d))
        self.normals = np.empty(((gamma + 1) * _RNG_BLOCK, d))
        self.noise = list(self.normals)


def _workspace(*shape: int) -> _Workspace:
    """This thread's workspace for a session shape (k_max, k_t, k_d, horizon, gamma, d)."""
    spaces = getattr(_LOCAL, "workspaces", None)
    if spaces is None:
        spaces = _LOCAL.workspaces = {}
    space = spaces.get(shape)
    if space is None:
        if len(spaces) >= _WORKSPACE_SHAPES:
            spaces.clear()
        space = spaces[shape] = _Workspace(*shape)
    return space


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
        for name in ("sigma_target", "sigma_draft"):
            sigma = getattr(self, name)
            if sigma is not None and not (math.isfinite(sigma) and sigma > 0):
                raise ValueError(f"{name} must be finite and > 0, got {sigma}")


@dataclass
class RoundRecord:
    """One round's outcome, as ``DecodeTrace.rounds`` lists it for ``perfbench``."""

    index: int
    n_accepted: int
    final_draw_source: str
    outputs_emitted: int                # L = n_accepted + 1


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
def _zero_column(h: int) -> np.ndarray:
    zeros = np.zeros(h, dtype=np.int64)
    zeros.flags.writeable = False
    return zeros


@dataclass(eq=False)
class DecodeTrace:
    """Per-round columns of one session, preallocated for horizon rounds.

    Stored: the integer column ``n_accepted``, ``n_rounds``, the number of
    rows filled (a round emits at least one patch, so ``horizon_patches``
    rows always suffice), and the ``wall_times`` of the draft and target
    calls. Speculative variants also fill, per round and proposal position,
    ``xs`` (rounds, gamma, d), the squared distances ``dists`` (rounds, 2,
    gamma) of each proposal to the draft (0) and target (1) mean, and
    ``uniforms``, which holds whole blocks of 8 rounds; ``accept_params``
    are the kernel's constants. Every position of a filled row is written;
    only a round's examined prefix is exported.

    Derived from the columns, here alone, and built once on first read:
    ``sources`` (codes into SOURCES: the extension when n = gamma, else the
    variant's rejection draw), ``log_q``, ``log_p`` and ``alphas`` (rounds,
    gamma) by ``kernels.acceptance_columns``, ``totals`` and
    ``truncated_patches``; and ``examined_counts()`` (min(n + 1, gamma) per
    speculative round, 0 for the baselines) and ``round_dicts()``.
    ``rounds`` and ``RoundRecord`` remain only because ``perfbench`` reads them.
    """

    variant: str
    gamma: int
    seed: int
    horizon_patches: int
    patch_len: int = 1
    wall_times: dict = field(default_factory=lambda: {"draft_total": 0.0, "target_total": 0.0})
    n_rounds: int = 0
    accept_params: tuple | None = None

    def __post_init__(self) -> None:
        h = self.horizon_patches
        self.speculative = self.variant in (VARIANT_PRACTICAL, VARIANT_LOSSLESS)
        if not self.speculative:
            # Baseline rounds are all alike (n = 0, source baseline).
            self.n_accepted = _zero_column(h)
            return
        self.n_accepted = np.zeros(h, dtype=np.int64)
        g = self.gamma
        self.xs = np.empty((h, g, self.patch_len))
        self.dists = np.empty((h, 2, g))
        self.uniforms = np.empty((-(-h // _RNG_BLOCK) * _RNG_BLOCK, g))

    @functools.cached_property
    def sources(self) -> np.ndarray:
        """Each round's closing-draw code into SOURCES, built once on first read."""
        n = self.n_accepted[: self.n_rounds]
        if not self.speculative:
            return np.full(n.shape, _BASELINE)
        rejected = _RESIDUAL if self.variant == VARIANT_LOSSLESS else _FALLBACK
        return np.where(n == self.gamma, _EXTEND, rejected)

    @functools.cached_property
    def _acceptance(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return kernels.acceptance_columns(self.dists[: self.n_rounds], self.accept_params)

    @property
    def log_q(self) -> np.ndarray:
        """Draft log density of each proposal, (rounds, gamma)."""
        return self._acceptance[0]

    @property
    def log_p(self) -> np.ndarray:
        """Target log density of each proposal, (rounds, gamma)."""
        return self._acceptance[1]

    @property
    def alphas(self) -> np.ndarray:
        """Acceptance probability of each proposal, (rounds, gamma)."""
        return self._acceptance[2]

    @functools.cached_property
    def rounds(self) -> list[RoundRecord]:
        """The rounds' outcomes as objects, built once on first read."""
        r = self.n_rounds
        return [
            RoundRecord(i, n, SOURCES[s], n + 1)
            for i, (n, s) in enumerate(zip(self.n_accepted[:r].tolist(), self.sources.tolist()))
        ]

    @functools.cached_property
    def totals(self) -> Totals:
        """Model passes, target batch calls and patches emitted, built once on first read."""
        r = self.n_rounds
        emitted = int(self.round_lengths().sum())
        if self.speculative:
            return Totals(r * (self.gamma + 1), r * self.gamma, r, emitted)
        if self.variant == VARIANT_TARGET_ONLY:
            return Totals(target_passes=r, patches_emitted=emitted)
        return Totals(draft_passes=r, patches_emitted=emitted)

    @property
    def truncated_patches(self) -> int:
        """Patches the last round emitted beyond the horizon."""
        return self.totals.patches_emitted - self.horizon_patches

    def round_lengths(self) -> np.ndarray:
        return self.n_accepted[: self.n_rounds] + 1

    def accepted_counts(self) -> np.ndarray:
        return self.n_accepted[: self.n_rounds].copy()

    def examined_counts(self) -> np.ndarray:
        """Proposals each round scored up to its first rejection: min(n + 1, gamma)."""
        if not self.speculative:
            return np.zeros(self.n_rounds, dtype=np.int64)
        return np.minimum(self.n_accepted[: self.n_rounds] + 1, self.gamma)

    def round_dicts(self) -> list[dict]:
        """One dict per round, with the round's examined proposals, for export."""
        r = self.n_rounds
        out = [
            {"round": i, "n": n, "L": n + 1, "source": SOURCES[s], "proposals": []}
            for i, (n, s) in enumerate(zip(self.n_accepted[:r].tolist(), self.sources.tolist()))
        ]
        if self.speculative:
            columns = (c[:r].tolist() for c in (self.xs, self.log_q, self.log_p, self.alphas, self.uniforms))
            for d, k, *cols in zip(out, self.examined_counts().tolist(), *columns):
                n = d["n"]
                d["proposals"] = [
                    {"x": x, "log_q": lq, "log_p": lp, "alpha": a, "accepted": j < n, "u": u}
                    for j, (x, lq, lp, a, u) in enumerate(zip(*(c[:k] for c in cols)))
                ]
        return out

    def summary_dict(self) -> dict:
        return {
            "variant": self.variant,
            "gamma": self.gamma,
            "seed": self.seed,
            "horizon_patches": self.horizon_patches,
            "truncated_patches": self.truncated_patches,
            "totals": dataclasses.asdict(self.totals),
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
def _head_params(sigma: float, tolerance_lambda: float, d: int):
    """The ``round_accept`` constants of one setting, and the standard
    deviation ``residual_sample`` takes.

    Both heads have width sigma, so the draft and target constants are the
    same floats. Cached: the sessions of a run share them, and the array is
    only read.
    """
    inv_var = 1.0 / (sigma * sigma)
    log_norm = float(np.sum(np.log(2.0 * np.pi * np.full(d, sigma * sigma))))
    std = np.full(d, sigma)
    std.flags.writeable = False
    return (inv_var, log_norm, inv_var, log_norm, math.log(tolerance_lambda)), std


def _decode_speculative(
    target: ForecastModel,
    draft: ForecastModel,
    h0: History,
    cfg: DecodeConfig,
) -> tuple[np.ndarray, DecodeTrace]:
    if target.d != draft.d:
        raise ValueError(f"model dimensions differ: target d={target.d}, draft d={draft.d}")
    sigma = _resolve_sigma(target, draft, cfg)
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
    params, std = _head_params(sigma, cfg.tolerance_lambda, d)
    trace = DecodeTrace(cfg.variant, gamma, cfg.seed, horizon, d, accept_params=params)
    streams = _streams()
    space = _workspace(k_max, k_t, k_d, horizon, gamma, d)
    h0.fill_window(space.context)
    rows, propose, proposals, verify = space.rows, space.propose, space.proposals, space.verify
    means, draft_means, target_means = space.means, space.draft_means, space.target_means
    target_rows, scratch, normals, noise = space.target_rows, space.scratch, space.normals, space.noise
    first_ext = gamma * _RNG_BLOCK
    n_col, xs_col, dist_col, u_col = trace.n_accepted, trace.xs, trace.dists, trace.uniforms
    draft_mean, target_mean = draft.mean_one, target.mean_batch
    draft_wall = target_wall = 0.0
    emitted = 0
    r = 0

    while emitted < horizon:
        # Round draws come from fixed-size blocks pre-drawn from one stream
        # per block in a fixed order (all acceptance uniforms first, then
        # proposal noise, then the closing target variates). A round's draws
        # therefore depend only on (seed, round index), so truncating the
        # horizon never alters earlier rounds, and both variants consume the
        # same draws in every round.
        slot = r % _RNG_BLOCK
        if slot == 0:
            gen = streams.rekey(cfg.seed, r // _RNG_BLOCK, rngmod.ROUND)
            block_u = u_col[r : r + _RNG_BLOCK]
            gen.random(out=block_u)
            gen.standard_normal(out=normals)
            normals *= sigma
            u_rows = block_u.tolist()
        z = slot * gamma

        t0 = time.perf_counter()
        for i in range(gamma):
            np.add(draft_mean(propose[emitted + i], out=draft_means[i]), noise[z + i], out=rows[emitted + i])
        t1 = time.perf_counter()
        target_mean(verify[emitted], out=target_means)
        t2 = time.perf_counter()
        draft_wall += t1 - t0
        target_wall += t2 - t1

        xs = proposals[emitted]
        n = kernels.round_accept(xs, u_rows[slot], means, scratch, dist_col[r], params)
        if n < 0:
            raise DecodeAborted(f"non-finite head parameters at round {r}; aborting decode")
        xs_col[r] = xs  # before the closing draw overwrites a rejected proposal

        # Every round closes from its own target variate, independent of its
        # accept decision: as is on the extension or a practical fallback,
        # mapped to its residual draw on a lossless rejection.
        final = rows[emitted + n]
        ext = noise[first_ext + slot]
        if lossless and n < gamma:
            try:
                final[:] = residual_sample(target_rows[n], draft_means[n], std, ext)[0]
            except ValueError as exc:
                raise DecodeAborted(f"residual draw failed at round {r} ({exc}); aborting decode") from exc
        else:
            np.add(target_rows[n], ext, out=final)
        _check_finite(final, r)

        n_col[r] = n
        emitted += n + 1
        r += 1

    trace.n_rounds = r
    trace.wall_times = {"draft_total": draft_wall, "target_total": target_wall}
    return space.forecast.copy(), trace


def _decode_baseline(model: ForecastModel, h0: History, cfg: DecodeConfig) -> tuple[np.ndarray, DecodeTrace]:
    sigma = cfg.sigma_target if cfg.variant == VARIANT_TARGET_ONLY else cfg.sigma_draft
    sigma = float(sigma) if sigma is not None else model.sigma
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
        wall_times={
            "draft_total": 0.0 if target_only else elapsed,
            "target_total": elapsed if target_only else 0.0,
        },
        n_rounds=horizon,
    )
    return forecast.copy(), trace
