"""The speculative decode loop over draft/target forecaster pairs.

Each round the draft proposes ``gamma`` patches autoregressively, the target
evaluates all gamma + 1 prefixes in one batched call, and proposals are kept
up to the first rejection. The variants differ only in the draw that closes
a rejected round: the practical variant falls back to the target head, the
lossless variant samples the residual density and thereby reproduces the
exact target chain.

A round that accepts n proposals closes at position n. The extension
(n = gamma) and the practical fallback (n < gamma) write ``mu_p[n] + ext``
into the closing row, where ``ext`` is the round's one pre-drawn
N(0, sigma^2 I) target variate, drawn with the round's uniforms and
proposal noise but independently of them, so that given the accept
decision it is still a target draw. A rejected lossless round instead
reflects its rejected proposal x = mu_q[n] + eps, which the closing row
already holds, across the bisector of the two means, with
``residual_sample(mu_p[n], mu_q[n], eps, row)``, from the target and draft
mean rows the round already holds and the proposal's own noise row eps.
For heads of one isotropic width the reflection R swaps the two means, so
q(R x) = p(x): it maps the rejected proposal's law (q - p)_+ to the
residual (p - q)_+, exactly, for every overlap below 1. That needs
tolerance_lambda = 1: at lambda != 1 a rejected proposal has the law
(q - lambda p)_+, which is not the mirror of the residual, so the lossless
variant refuses any other lambda. No rejection re-keys a stream, reads
``ext`` or builds a head object. At lambda = 1 a rejection with finite
means implies distinct means, so the map's only ValueError is a non-finite
mean, and that aborts the decode with ``DecodeAborted`` (a RuntimeError)
naming the round, as does a non-finite closing draw.

The target and draft heads of a speculative decode share one isotropic
variance, as the paper's acceptance rule, the reflection and every
predictor here assume: a decode whose resolved ``sigma_target`` and
``sigma_draft`` differ is refused with a ValueError, and so is a sigma
whose variance or inverse variance is not a finite float. So the head
width is one float at every layer: the plan's sigma and the kernel's three
constants (inverse variance, log normalizer, log lambda); the residual map
needs none.

Every random draw comes from a stream keyed by (seed, block, purpose): one
``ROUND`` key per block of 8 rounds for speculative variants, one
``DIRECT`` key per session for the baselines. A block's stream holds its 8
rounds' acceptance uniforms, then its normals round-major: per round, gamma
proposal rows and then the round's closing row. A session draws only the
rounds it can still use, so a round's draws are the same however the block
was drawn. So a trace is replayable bit-for-bit from (seed, round) and the
practical/lossless variants consume the same random numbers, diverging
only in how a rejected round closes.

Everything a session sets up that depends only on its models and its
config without the seed is set up once per thread, in a session plan
(``_BaselinePlan`` for target_only and draft_only, ``_SpeculativePlan`` for
practical and lossless) that ``_plan`` keeps in a small per-thread cache
keyed by the two models and that config. The plan runs the checks (the
models the variant needs, equal widths and the shared sigma), resolves
sigma and the kernel's constants, takes the thread's ``ReusableStream`` and
owns the session's scratch arrays, with the row and window views a session
reads prebuilt as Python lists; its ``views`` tuple holds all of it, and a
session binds it with one unpack. A check that fails leaves no plan, so it
fails on every call; the history is checked per session. The cache entry
holds the models, so no other object can take their ids while it is kept.
The plan holds no model method and no module function: tracing and tests
patch ``mean_one``, ``mean_batch``, ``kernels.round_accept``,
``residual_sample``, ``rekey`` and ``fill_window``, and a session looks
them up itself, so a patch takes effect on the next session.

So a session does only the work that depends on its seed and its history.
It starts from a ``models.History``, a read-only (lookback, d) context (a
view of a frozen source, or a left-padded copy), and decodes inside its
plan's buffer: the context is written into it once, every patch the
session makes is written in place, and the forecast is one slice copy at
the end. Besides that copy a speculative session allocates its trace's four
columns (``n_accepted``, ``xs``, ``dists`` and the uniforms of whole
blocks), a list of each round's uniforms and the ``wall_times`` dict; a
baseline session allocates its trace, which shares one read-only zero
column per horizon, and that dict. A baseline session draws its noise in
place into the plan's noise block, from one ``DIRECT`` stream per session,
scales it by sigma, and adds it to one ``mean_one`` per step, in place in
the buffer. A speculative session's buffer holds k_max + horizon + gamma
rows. A round makes only the numpy calls its math needs:

- the draft writes each mean into its row of the stacked means with
  ``mean_one(window, out=row)``, and each proposal, mean plus noise, into
  the buffer;
- one batched target call writes the gamma + 1 target means in place with
  ``mean_batch(windows, out=rows)``;
- ``kernels.round_accept`` writes the proposals' squared distances to both
  means into the round's row of the trace's ``dists`` column with one
  subtract, square and reduce, then scans acceptance on Python floats;
- a block of 8 rounds takes its uniforms straight into the trace's
  uniforms column at its first round; its normals come from one
  ``standard_normal`` call and one scaling, for the fewest rounds the
  session can still need: min(rounds left in the block,
  ceil((horizon - emitted) / (gamma + 1))), as a round emits at most
  gamma + 1 patches. A session that needs more rounds continues the
  block's generator the same way. Each round lists only its own row of
  uniforms as Python floats for the scan;
- the closing row is checked finite by its sum, which propagates NaN and
  inf, inline.

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
import operator
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from . import rng as rngmod
from .models import ForecastModel, History
from .prob import residual_sample
from .synth import check_integer, check_real

_LOCAL = threading.local()
# Rounds per ROUND stream key. The key is per block and horizon-independent;
# how many of a block's rounds a session draws depends on its horizon.
_RNG_BLOCK = 8
_PLANS = 16  # decode configurations a thread keeps session plans for
# A proposal this many sigma from its mean in every coordinate must have a
# finite squared distance to it, or the acceptance scan would read inf.
_PROPOSAL_Z = 8.0


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

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        check_integer("seed", self.seed)
        if check_integer("gamma", self.gamma) < 1:
            raise ValueError("gamma must be >= 1")
        if check_integer("horizon_patches", self.horizon_patches) < 1:
            raise ValueError("horizon_patches must be >= 1")
        check_real("tolerance_lambda", self.tolerance_lambda)
        if self.variant == VARIANT_LOSSLESS and self.tolerance_lambda != 1.0:
            raise ValueError(
                f"lossless decoding requires tolerance_lambda == 1, got {self.tolerance_lambda}: "
                f"min(1, lambda p/q) acceptance and the (p - q)_+ residual sample the target only at 1"
            )
        for name in ("sigma_target", "sigma_draft"):
            if getattr(self, name) is not None:
                check_real(name, getattr(self, name))

    def with_seed(self, seed: int) -> "DecodeConfig":
        """This validated config with another seed.

        Copies the fields instead of validating them again, as
        ``dataclasses.replace`` would, which costs several microseconds a
        call, more than a short decode session's set-up.
        """
        config = object.__new__(type(self))
        config.__dict__.update(self.__dict__, seed=seed)
        return config


# Every field of a config but its seed: the part of a session plan's key
# that the config gives.
_setting = operator.attrgetter(*(f.name for f in dataclasses.fields(DecodeConfig) if f.name != "seed"))


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


class DecodeTrace:
    """Per-round columns of one session, preallocated for horizon rounds.

    Stored: the integer column ``n_accepted``, ``n_rounds``, the number of
    rows filled (a round emits at least one patch, so ``horizon_patches``
    rows always suffice), and the ``wall_times`` of the draft and target
    calls. Speculative variants, the ones given the kernel's three constants
    ``accept_params`` (``_head_params``), also fill, per round and proposal
    position, ``xs`` (rounds, gamma, d), the squared distances ``dists``
    (rounds, 2, gamma) of each proposal to the draft (0) and target (1)
    mean, and the acceptance uniforms of every block of 8 rounds they
    reach, which ``uniforms`` shows: (8 * ceil(n_rounds / 8), gamma). Every
    position of a filled row is written; only a round's examined prefix is
    exported.

    Derived from the columns, here alone, and built once on first read:
    ``sources`` (codes into SOURCES: the extension when n = gamma, else the
    variant's rejection draw), ``log_q``, ``log_p`` and ``alphas`` (rounds,
    gamma) by ``kernels.acceptance_columns``, ``totals`` and
    ``truncated_patches``; and ``examined_counts()`` (min(n + 1, gamma) per
    speculative round, 0 for the baselines) and ``round_dicts()``.
    ``rounds`` and ``RoundRecord`` remain only because ``perfbench`` reads them.
    """

    def __init__(
        self,
        variant: str,
        gamma: int,
        seed: int,
        horizon_patches: int,
        patch_len: int,
        accept_params: tuple | None = None,
        n_rounds: int = 0,
        wall_times: dict | None = None,
    ) -> None:
        self.variant = variant
        self.gamma = gamma
        self.seed = seed
        self.horizon_patches = horizon_patches
        self.patch_len = patch_len
        self.accept_params = accept_params
        self.n_rounds = n_rounds
        self.wall_times = wall_times
        self.speculative = accept_params is not None
        if accept_params is None:
            # Baseline rounds are all alike (n = 0, source baseline).
            self.n_accepted = _zero_column(horizon_patches)
            return
        self.n_accepted = np.zeros(horizon_patches, dtype=np.int64)
        self.xs = np.empty((horizon_patches, gamma, patch_len))
        self.dists = np.empty((horizon_patches, 2, gamma))
        self._uniform_blocks = np.empty((-(-horizon_patches // _RNG_BLOCK) * _RNG_BLOCK, gamma))

    @property
    def uniforms(self) -> np.ndarray:
        """The acceptance uniforms of the blocks the session drew, (8 * ceil(n_rounds / 8), gamma)."""
        return self._uniform_blocks[: -(-self.n_rounds // _RNG_BLOCK) * _RNG_BLOCK]

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
    """The one head sigma of a speculative decode.

    Refused with a ValueError naming it: a sigma whose variance or inverse
    variance is not a finite float, or one so wide that the squared distance
    of a proposal ``_PROPOSAL_Z`` sigma out in every coordinate overflows.
    """
    sigma_t = cfg.sigma_target if cfg.sigma_target is not None else target.sigma
    sigma_d = cfg.sigma_draft if cfg.sigma_draft is not None else draft.sigma
    if sigma_t != sigma_d:
        raise ValueError(
            f"shared-variance decoding requires sigma_target == sigma_draft "
            f"(got {sigma_t} vs {sigma_d}); set both to one value"
        )
    var = sigma_t * sigma_t
    if not (0.0 < var < math.inf and 1.0 / var < math.inf):
        raise ValueError(
            f"sigma={sigma_t:g} is out of range: the acceptance rule needs a finite variance sigma^2 "
            f"and a finite inverse variance 1/sigma^2"
        )
    spread = _PROPOSAL_Z * sigma_t
    if not spread * spread * target.d < math.inf:
        raise ValueError(
            f"sigma={sigma_t:g} is out of range: the squared distance of a proposal "
            f"{_PROPOSAL_Z:g} sigma from its mean in each of d={target.d} coordinates overflows"
        )
    return float(sigma_t)


def _head_params(sigma: float, tolerance_lambda: float, d: int) -> tuple[float, float, float]:
    """The ``round_accept`` constants (inv_var, log_norm, log_lambda) of one setting.

    Both heads have width sigma, so one inverse variance and one log
    normalizer serve both. The normalizer is the sum of the d per-dimension
    logs, in numpy's summation order.
    """
    inv_var = 1.0 / (sigma * sigma)
    log_norm = float(np.sum(np.log(2.0 * np.pi * np.full(d, sigma * sigma))))
    return inv_var, log_norm, math.log(tolerance_lambda)


class _BaselinePlan:
    """The set-up of a target_only or draft_only configuration.

    ``model`` is the one model the variant samples, ``sigma`` its head
    width and ``streams`` the thread's ``ReusableStream``. The session
    buffer holds the context (``k`` rows), then each patch as it is drawn:
    step i reads ``windows[i]``, buffer rows i to i + k - 1, and writes
    ``rows[i]``, row k + i. The session's standard normals are drawn into
    ``draws``, and ``noise`` lists the rows of ``normals``, which takes them
    times sigma. Scaling into a second array gives the bits of scaling in
    place and avoids numpy's slower path for a one-element operand that is
    also the output. ``views`` holds all of it, with the config's settings,
    in the order a session unpacks it.
    """

    def __init__(self, target: ForecastModel, draft: ForecastModel | None, cfg: DecodeConfig) -> None:
        target_only = cfg.variant == VARIANT_TARGET_ONLY
        model = target if target_only else draft
        if model is None:
            raise ValueError(f"{cfg.variant} requires the corresponding model")
        sigma = cfg.sigma_target if target_only else cfg.sigma_draft
        sigma = float(sigma) if sigma is not None else model.sigma
        variant, gamma, horizon = cfg.variant, cfg.gamma, cfg.horizon_patches
        k, d, streams = model.lookback, model.d, _streams()
        buf = np.empty((k + horizon, d))
        context, forecast = buf[:k], buf[k:]
        windows = [buf[i : i + k] for i in range(horizon)]
        rows = list(forecast)
        draws = np.empty((horizon, d))
        normals = np.empty((horizon, d))
        noise = list(normals)
        self.views = (
            variant, gamma, horizon, d, k, sigma, target_only, model, streams,
            context, forecast, windows, rows, draws, normals, noise,
        )


class _SpeculativePlan:
    """The set-up of a practical or lossless configuration.

    The checks and constants: equal model widths, one resolved head
    ``sigma`` (``_resolve_sigma``) and the kernel's constants ``params``
    (``_head_params``). ``streams`` is the thread's ``ReusableStream``.

    The scratch arrays: the session buffer holds the context (``k_max``
    rows), then every emitted patch in order; a round's proposals are
    written after the emitted ones, where the accepted ones stay and the
    closing draw overwrites the first rejected one, and the last round may
    overshoot the horizon by gamma rows. A round that has emitted e patches
    reads its views at index e: ``propose[e + i]`` is the draft window of
    proposal i, ``rows[e + i]`` the buffer row it is written to,
    ``verify[e]`` the gamma + 1 target windows (one strided view of the
    buffer) and ``proposals[e]`` the gamma proposals. ``means`` stacks the
    draft (0) and target (1) means at the gamma proposal positions, the
    kernel's operand; the draft writes its means into the rows of
    ``draft_means`` and the verify pass all gamma + 1 target means into
    ``target_means``, whose rows are ``target_rows``. ``normals`` holds a
    block's normals round-major, in the order they are drawn: the rows of
    round slot s are (gamma + 1) * s onward, its gamma proposal rows and
    then its closing row. A session fills only the rounds it draws.
    ``noise`` lists the rows of ``normals``. ``scratch`` is the kernel's
    work array. ``views`` holds all of it, with the config's settings, in
    the order a session unpacks it.
    """

    def __init__(self, target: ForecastModel, draft: ForecastModel | None, cfg: DecodeConfig) -> None:
        if draft is None:
            raise ValueError("speculative variants require a draft model")
        if target.d != draft.d:
            raise ValueError(f"model dimensions differ: target d={target.d}, draft d={draft.d}")
        sigma = _resolve_sigma(target, draft, cfg)
        variant, gamma, horizon, d = cfg.variant, cfg.gamma, cfg.horizon_patches, target.d
        lossless = variant == VARIANT_LOSSLESS
        params = _head_params(sigma, cfg.tolerance_lambda, d)
        streams = _streams()
        k_t, k_d = target.lookback, draft.lookback
        k_max = max(k_t, k_d)

        buf = np.empty((k_max + horizon + gamma, d))
        context = buf[:k_max]
        forecast = buf[k_max : k_max + horizon]
        rows = list(buf[k_max:])
        propose = [buf[k_max + j - k_d : k_max + j] for j in range(horizon + gamma - 1)]
        proposals = [buf[k_max + e : k_max + e + gamma] for e in range(horizon)]
        row, col = buf.strides
        windows = np.ndarray(
            (horizon + gamma, k_t, d), buffer=buf, offset=(k_max - k_t) * row, strides=(row, row, col)
        )
        verify = [windows[e : e + gamma + 1] for e in range(horizon)]
        mus = np.empty((2, gamma + 1, d))
        means = mus[:, :gamma]
        draft_means = list(mus[0])
        target_means = mus[1]
        target_rows = list(mus[1])
        scratch = np.empty((2, gamma, d))
        normals = np.empty(((gamma + 1) * _RNG_BLOCK, d))
        noise = list(normals)
        self.views = (
            variant, gamma, horizon, d, k_max, sigma, lossless, params, streams,
            context, forecast, rows, propose, proposals, verify,
            means, draft_means, target_means, target_rows, scratch, normals, noise,
        )


def _plan(target: ForecastModel, draft: ForecastModel | None, cfg: DecodeConfig):
    """This thread's session plan for (target, draft, cfg without its seed).

    Built on a thread's first session of a configuration, so a check that
    fails leaves no plan and fails again on the next call. The cache entry
    holds the two models, so no other object can take their ids while it
    is kept. The plan holds no model method or module function: tracing
    and tests patch those, and a session looks them up itself.
    """
    try:
        plans = _LOCAL.plans
    except AttributeError:
        plans = _LOCAL.plans = {}
    key = (id(target), id(draft), _setting(cfg))
    try:
        return plans[key][0]
    except KeyError:
        pass
    if cfg.variant in (VARIANT_TARGET_ONLY, VARIANT_DRAFT_ONLY):
        plan = _BaselinePlan(target, draft, cfg)
    else:
        plan = _SpeculativePlan(target, draft, cfg)
    if len(plans) >= _PLANS:
        del plans[next(iter(plans))]  # the oldest
    plans[key] = (plan, target, draft)
    return plan


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
    plan = _plan(target, draft, cfg)
    if type(plan) is _BaselinePlan:
        return _decode_baseline(plan, h0, cfg.seed)
    return _decode_speculative(plan, target, draft, h0, cfg.seed)


def _decode_speculative(
    plan: _SpeculativePlan,
    target: ForecastModel,
    draft: ForecastModel,
    h0: History,
    seed: int,
) -> tuple[np.ndarray, DecodeTrace]:
    (
        variant, gamma, horizon, d, k_max, sigma, lossless, params, streams,
        context, forecast, rows, propose, proposals, verify,
        means, draft_means, target_means, target_rows, scratch, normals, noise,
    ) = plan.views
    if h0.lookback < k_max:
        raise ValueError(f"history capacity {h0.lookback} is below the larger model lookback {k_max}")
    if h0.d != d:
        raise ValueError(f"history patch width {h0.d} does not match the model patch width {d}")
    trace = DecodeTrace(variant, gamma, seed, horizon, d, params)
    h0.fill_window(context)
    n_col, xs_col, dist_col, u_col = trace.n_accepted, trace.xs, trace.dists, trace._uniform_blocks
    draft_mean, target_mean, accept = draft.mean_one, target.mean_batch, kernels.round_accept
    add, add_reduce, isfinite, clock = np.add, np.add.reduce, math.isfinite, time.perf_counter
    width = gamma + 1  # rows of normals per round
    draft_wall = target_wall = 0.0
    emitted = 0
    r = 0
    drawn = 0  # round slots of the current block whose normals are drawn

    while emitted < horizon:
        # Each block of rounds has one stream, drawn in a fixed order: all
        # the block's acceptance uniforms first, then its normals round by
        # round. standard_normal continues a stream the same way however
        # the draws are split, so a round's draws depend only on (seed,
        # round index): truncating the horizon never alters earlier rounds,
        # and both variants consume the same draws in every round.
        slot = r % _RNG_BLOCK
        if slot == 0:
            gen = streams.rekey(seed, r // _RNG_BLOCK, rngmod.ROUND)
            gen.random(out=u_col[r : r + _RNG_BLOCK])
            drawn = 0
        z = slot * width
        if slot == drawn:
            # the fewest rounds the session can still need, capped at the
            # block: slot + ceil((horizon - emitted) / width)
            drawn = slot - (emitted - horizon) // width
            if drawn > _RNG_BLOCK:
                drawn = _RNG_BLOCK
            chunk = normals[z : drawn * width]
            gen.standard_normal(out=chunk)
            chunk *= sigma

        t0 = clock()
        for i in range(gamma):
            add(draft_mean(propose[emitted + i], out=draft_means[i]), noise[z + i], out=rows[emitted + i])
        t1 = clock()
        target_mean(verify[emitted], out=target_means)
        t2 = clock()
        draft_wall += t1 - t0
        target_wall += t2 - t1

        xs = proposals[emitted]
        n = accept(xs, u_col[r].tolist(), means, scratch, dist_col[r], params)
        if n < 0:
            raise DecodeAborted(f"non-finite head parameters at round {r}; aborting decode")
        xs_col[r] = xs  # before the closing draw overwrites a rejected proposal

        # The extension and a practical fallback close from the round's own
        # target variate, independent of its accept decision; a lossless
        # rejection reflects its rejected proposal, which the closing row
        # holds, into the residual.
        final = rows[emitted + n]
        if lossless and n < gamma:
            try:
                residual_sample(target_rows[n], draft_means[n], noise[z + n], final)
            except ValueError as exc:
                raise DecodeAborted(f"residual draw failed at round {r} ({exc}); aborting decode") from exc
        else:
            add(target_rows[n], noise[z + gamma], out=final)
        # the sum propagates NaN and inf, and costs much less than an isfinite scan
        if not isfinite(add_reduce(final)):
            raise DecodeAborted(f"non-finite head parameters at round {r}; aborting decode")

        n_col[r] = n
        emitted += n + 1
        r += 1

    trace.n_rounds = r
    trace.wall_times = {"draft_total": draft_wall, "target_total": target_wall}
    return forecast.copy(), trace


def _decode_baseline(plan: _BaselinePlan, h0: History, seed: int) -> tuple[np.ndarray, DecodeTrace]:
    (
        variant, gamma, horizon, d, k, sigma, target_only, model, streams,
        context, forecast, windows, rows, draws, normals, noise,
    ) = plan.views
    if h0.lookback < k:
        raise ValueError(f"history capacity {h0.lookback} is below the model lookback {k}")
    if h0.d != d:
        raise ValueError(f"history patch width {h0.d} does not match the model patch width {d}")
    h0.fill_window(context)
    np.multiply(streams.rekey(seed, 0, rngmod.DIRECT).standard_normal(out=draws), sigma, out=normals)
    mean_one, add = model.mean_one, np.add

    t0 = time.perf_counter()
    for window, noise_row, row in zip(windows, noise, rows):
        add(mean_one(window), noise_row, out=row)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(np.add.reduce(forecast, axis=None)):
        # The noise is finite, so the first non-finite patch is the first
        # step whose head mean was not finite.
        first = int(np.argmin(np.isfinite(forecast).all(axis=1)))
        raise DecodeAborted(f"non-finite head parameters at round {first}; aborting decode")

    if target_only:
        wall_times = {"draft_total": 0.0, "target_total": elapsed}
    else:
        wall_times = {"draft_total": elapsed, "target_total": 0.0}
    return forecast.copy(), DecodeTrace(variant, gamma, seed, horizon, d, n_rounds=horizon, wall_times=wall_times)
