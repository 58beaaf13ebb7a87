"""Desk-scale autoregressive forecasters with isotropic Gaussian heads.

Targets and drafts share one model type of two kinds, a ridge-fitted linear
map of the lookback window (``linear_ar``) and the last patch
(``persistence``). The decode engine reads only a model's next-patch mean
(``mean_one``, ``mean_batch``) and head width ``sigma``. A draft is a
reduced-capacity ridge refit of the same data: ``scale`` < 1 truncates the
lookback window, which keeps the essential draft property (cheaper per
pass, approximately aligned mean) without a separate training pipeline.
``History`` is the read-only, left-padded context a decode session starts
from.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .series import NormStats, PatchSeries

KIND_LINEAR = "linear_ar"
KIND_PERSISTENCE = "persistence"

MODEL_FORMAT_VERSION = 1
_CACHE_LINE = 64  # bytes
# Rows per block of the ridge fit's lag products and residuals: a block of
# patches with its k trailing rows, and the products made from it, stay in
# L2 cache at the benchmark's shapes (d = 32, k = 96).
_FIT_ROW_BLOCK = 512
_NAMED_PATCHES = 3  # non-finite training patches named in the fit's error


class History:
    """Read-only (lookback, d) context of one channel, oldest patch first.

    Built by ``from_patches``: the most recent ``lookback`` patches, left-padded
    with the pad patch (the train mean patch) when there are fewer, so
    predictions stay finite from the first step. A decode copies the context
    into its session buffer with ``fill_window`` and never changes it.
    """

    def __init__(self, context: np.ndarray):
        self._context = context
        self.lookback, self.d = context.shape

    @classmethod
    def from_patches(cls, patches: np.ndarray, lookback: int, pad_patch: np.ndarray | None = None) -> "History":
        if lookback < 1:
            raise ValueError("lookback must be >= 1")
        patches = np.atleast_2d(np.asarray(patches, dtype=np.float64))
        pad = np.asarray(pad_patch if pad_patch is not None else np.zeros(patches.shape[1]), dtype=np.float64)
        if pad.shape != (patches.shape[1],):
            raise ValueError(f"patch width {patches.shape[1]} does not match the pad patch shape {pad.shape}")
        context = np.tile(pad, (lookback, 1))
        m = min(lookback, patches.shape[0])
        if m:
            context[lookback - m :] = patches[-m:]
        context.flags.writeable = False
        return cls(context)

    def window(self) -> np.ndarray:
        """A writable copy of the context, shape (lookback, d)."""
        return self._context.copy()

    def fill_window(self, out: np.ndarray) -> None:
        """Write the most recent len(out) patches into a caller buffer."""
        out[:] = self._context[self.lookback - out.shape[0] :]


@dataclass(frozen=True)
class ForecastModel:
    """Point forecaster plus isotropic Gaussian head of width sigma.

    mean_bias >= 0 shifts the predicted mean by a fixed vector of that norm
    along the first patch coordinate (after standardization). It is a
    reproducible knob for degrading a draft's alignment with the target;
    being a norm, a negative value is rejected. A model is checked where it
    is built, so a bad one never reaches a decode: a ValueError names the
    weights, intercept or mean patch when its shape is wrong or it holds
    NaN or inf.
    """

    kind: str
    patch_len: int
    lookback: int
    sigma: float
    weights: np.ndarray | None = None     # (d, lookback*d), linear_ar only
    intercept: np.ndarray | None = None   # (d,)
    mean_bias: float = 0.0
    mean_patch: np.ndarray | None = None  # pad patch for short histories
    norm_stats: NormStats | None = None
    # (lookback*d, d) C-ordered copy of ``weights`` for the mean products,
    # built on first use and handed on by ``with_knobs``.
    _mean_weights: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LINEAR, KIND_PERSISTENCE):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not self.mean_bias >= 0:
            raise ValueError(f"mean_bias must be >= 0, got {self.mean_bias}")
        if self.kind == KIND_LINEAR:
            if self.weights is None or self.intercept is None:
                raise ValueError("linear_ar model requires weights and intercept")
            expected = (self.patch_len, self.lookback * self.patch_len)
            if self.weights.shape != expected:
                raise ValueError(f"weights shape {self.weights.shape} != {expected}")
        for name in ("intercept", "mean_patch"):
            value = getattr(self, name)
            if value is not None and value.shape != (self.patch_len,):
                raise ValueError(f"{name} shape {value.shape} != {(self.patch_len,)}")
        for name in ("weights", "intercept", "mean_patch"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")

    @property
    def d(self) -> int:
        return self.patch_len

    @property
    def param_count(self) -> int:
        if self.kind == KIND_LINEAR:
            return self.weights.size + self.intercept.size
        return 0

    def with_knobs(self, sigma: float | None = None, mean_bias: float | None = None) -> "ForecastModel":
        changes = {}
        if sigma is not None:
            changes["sigma"] = float(sigma)
        if mean_bias is not None:
            changes["mean_bias"] = float(mean_bias)
        if not changes:
            return self
        model = dataclasses.replace(self, **changes)
        if self.kind == KIND_LINEAR:
            # Same weights array, so the same copy: build it once here
            # rather than once per copy.
            object.__setattr__(model, "_mean_weights", self.mean_weights())
        return model

    def mean_weights(self) -> np.ndarray:
        """The read-only (lookback*d, d) C-ordered copy of ``weights``.

        Both mean products multiply by it. With this right operand the
        (B, k*d) x (k*d, d) verify product of a few windows runs in about
        the time of one single-window step, where the F-ordered view
        ``weights.T`` takes markedly longer. ``mean_one`` uses it too, so a
        process that runs the step and the verify keeps one copy of the
        weights hot in cache, not two. ``weights`` stays the fitted
        parameter that is saved and counted. Built once per model and
        shared by its ``with_knobs`` copies; ``dataclasses.replace`` with
        new weights starts without one.
        """
        w = self._mean_weights
        if w is None:
            # Start the copy on a cache line: the step streams it, and a
            # copy that straddles cache lines (malloc aligns to 16 bytes)
            # made the step about 1.5x slower.
            raw = np.empty(self.weights.nbytes + _CACHE_LINE, dtype=np.uint8)
            start = -raw.ctypes.data % _CACHE_LINE
            w = raw[start : start + self.weights.nbytes].view(np.float64).reshape(self.weights.T.shape)
            w[...] = self.weights.T
            w.flags.writeable = False
            object.__setattr__(self, "_mean_weights", w)
        return w

    def pad_patch(self) -> np.ndarray:
        return self.mean_patch if self.mean_patch is not None else np.zeros(self.d)

    def predict_means(self, windows: np.ndarray) -> np.ndarray:
        """Point forecasts for a batch of histories, shape (B, k, d) -> (B, d).

        Windows may carry more than ``lookback`` patches; only the most
        recent ones are consumed. Validates the shapes, then evaluates
        ``mean_batch``.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3 or windows.shape[2] != self.d:
            raise ValueError(f"windows must have shape (B, k, {self.d})")
        if windows.shape[1] < self.lookback:
            raise ValueError(
                f"windows carry {windows.shape[1]} patches, model needs {self.lookback}"
            )
        return self.mean_batch(windows)

    def mean_batch(self, windows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """predict_means without validation; the engine's batched verify pass.

        With ``out``, a (B, d) array, the means are written there, with the
        same bits, and ``out`` is returned.
        """
        recent = windows if windows.shape[1] == self.lookback else windows[:, -self.lookback :, :]
        if self.kind == KIND_PERSISTENCE:
            if out is None:
                means = recent[:, -1, :].copy()
            else:
                out[:] = recent[:, -1, :]
                means = out
        else:
            # Overlapping prefix views reshape to a strided matrix that BLAS
            # cannot consume; force a contiguous copy before the product.
            flat = np.ascontiguousarray(recent).reshape(windows.shape[0], self.lookback * self.d)
            if out is None:
                means = flat @ self.mean_weights() + self.intercept
            else:
                means = np.matmul(flat, self.mean_weights(), out=out)
                means += self.intercept
        if self.mean_bias > 0.0:
            means[:, 0] += self.mean_bias
        return means

    def mean_one(self, window: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Point forecast for one (k, d) window; no validation (hot path).

        With ``out``, a (d,) array, the mean is written there, with the same
        bits, and ``out`` is returned.
        """
        recent = window if window.shape[0] == self.lookback else window[-self.lookback :]
        if self.kind == KIND_PERSISTENCE:
            if out is None:
                mean = recent[-1].copy()
            else:
                out[:] = recent[-1]
                mean = out
        elif out is None:
            mean = recent.reshape(-1) @ self.mean_weights() + self.intercept
        else:
            mean = np.matmul(recent.reshape(-1), self.mean_weights(), out=out)
            mean += self.intercept
        if self.mean_bias > 0.0:
            mean[0] += self.mean_bias
        return mean


def effective_lookback(lookback: int, scale: float) -> int:
    """Capacity truncation rule: scale < 1 keeps the most recent patches."""
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    return max(1, round(scale * lookback))


def _check_training_patches(patches: np.ndarray, ridge: float) -> None:
    """Refuse training patches the fit cannot take.

    A ValueError names the patches that hold NaN or inf (the first
    ``_NAMED_PATCHES`` of them), or says that the patches are so large that
    an entry of the normal equations could overflow. The fit's Cholesky
    factor and solve skip SciPy's finiteness scans on the strength of this.
    """
    lo, hi = float(patches.min()), float(patches.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = np.argwhere(~np.isfinite(patches).all(axis=2))
        named = ", ".join(f"channel {c} patch {t}" for c, t in bad[:_NAMED_PATCHES])
        more = f" and {len(bad) - _NAMED_PATCHES} more" if len(bad) > _NAMED_PATCHES else ""
        raise ValueError(f"training patches must be finite; NaN or inf in {named}{more}")
    # An entry sums at most 2 * C * n products of centred values, each at
    # most (2 * peak)^2 in size.
    peak = max(-lo, hi)
    if not math.isfinite(ridge + 8.0 * patches.shape[0] * patches.shape[1] * peak * peak):
        raise ValueError(
            f"training patches up to {peak:g} in size overflow the sums of the normal equations"
        )


def fit_linear_ar(
    train: PatchSeries,
    lookback: int,
    ridge: float = 1e-3,
    scale: float = 1.0,
) -> ForecastModel:
    """Ridge-fit a linear next-patch predictor on pooled channel patches.

    Features are the concatenated ``k`` lookback patches (oldest first);
    the fit residual standard deviation becomes the default head sigma.
    Intercept is not regularized, so ridge -> inf drives the prediction to
    the train mean patch. Each channel contributes its N = n - k training
    rows t = 0 .. N-1. Training patches must be finite; a ValueError names
    those that are not before any Gram work.

    The (rows, k*d) feature matrix is never built. A training row, features
    and target together, is a window of k + 1 consecutive patches, so the
    centred normal equations are blocks of the Gram matrix of those windows:
    block (a, a + lag) sums q[t + a] q[t + a + lag]^T over t, with q the
    patches centred by their pooled mean. The block at offset 0 of each lag
    is summed directly: one pass over each channel's rows, in blocks of
    ``_FIT_ROW_BLOCK`` rows that stay in L2 cache, forms all k + 1 lag
    products of a block in one batched product. Every later block is the
    block before it plus the outer product of the row that enters the
    range, minus the one that leaves it, summed over channels in one
    batched product per lag. The window means come from one prefix sum per
    channel; subtracting rows * m m^T (m the mean window) centres the
    blocks, and each lag's blocks are written into the Gram matrix through
    one strided view of its block diagonal. Where every patch is the same,
    q is a residue of a few ulps whose products and sums are exact, so the
    Gram matrix is exactly zero and ``ridge = 0`` fails as singular. The
    residuals for sigma come from the structured prediction
    b + sum_a x[t + a] W_a^T, not from the normal equations' quadratic
    form, which cancels when the residuals are tiny; they too are
    accumulated one row block at a time.

    The patches are checked once, up front: finite, and small enough that
    no sum of products can overflow. The Cholesky factor and solve then
    skip SciPy's own finiteness scans of the Gram matrix and its factor.

    Cost O((k+1) * N * d^2 + (k*d)^3) time. Memory: the (k*d)^2 Gram
    matrix, which is factored in place, a centred copy of the patches, and
    O((k + row block) * d^2) of work arrays; no finiteness mask of the Gram
    matrix or its factor is made.
    """
    if not np.isfinite(ridge) or ridge < 0:
        raise ValueError("ridge must be finite and >= 0")
    k = effective_lookback(lookback, scale)
    d = train.patch_len
    if train.n_patches < k + 1:
        raise ValueError(
            f"need at least {k + 1} patches per channel to fit, have {train.n_patches}"
        )
    patches = train.patches
    _check_training_patches(patches, ridge)
    n_channels = train.n_channels
    n_rows = train.n_patches - k
    rows = n_channels * n_rows
    mu = patches.reshape(-1, d).mean(axis=0)
    q = patches - mu

    # Window sums: sums[a] adds q[c, t + a] over channels c and rows t.
    prefix = np.zeros((train.n_patches + 1, d))
    sums = np.zeros((k + 1, d))
    for qc in q:
        np.cumsum(qc, axis=0, out=prefix[1:])
        sums += prefix[n_rows:] - prefix[: k + 1]
    mean = sums / rows

    # lag_sum[lag] adds q[c, t]^T q[c, t + lag] over channels and rows.
    lag_sum = np.zeros((k + 1, d, d))
    part = np.empty_like(lag_sum)
    step, col = q.strides[1:]
    for qc in q:
        for r0 in range(0, n_rows, _FIT_ROW_BLOCK):
            b = min(_FIT_ROW_BLOCK, n_rows - r0)
            ahead = as_strided(qc[r0:], (k + 1, b, d), (step, step, col), writeable=False)
            np.matmul(qc[r0 : r0 + b].T, ahead, out=part)
            lag_sum += part

    # The rows that enter (q[c, N + s]) and leave (q[c, s]) the sum range
    # at step s, stacked so that one product sums a step's outer products
    # over channels: left[s] @ right[s + lag] is the change of block
    # (s, s + lag) to (s + 1, s + 1 + lag).
    moved = np.concatenate([q[:, n_rows:], q[:, :k]])  # (2C, k, d)
    left = np.ascontiguousarray(moved.transpose(1, 2, 0))
    right = np.ascontiguousarray(moved.transpose(1, 0, 2))
    right[:, n_channels:] *= -1.0

    kd = k * d
    gram = np.zeros((kd, kd))
    row = gram.strides[0]
    cross = np.empty((k, d, d))  # X^T y, one (d, d) block per lag position
    for lag in range(k + 1):
        n_blocks = k + 1 - lag  # blocks (a, a + lag), a = 0 .. k - lag
        blocks = np.empty((n_blocks, d, d))
        blocks[0] = lag_sum[lag]
        np.cumsum(np.matmul(left[: n_blocks - 1], right[lag:]), axis=0, out=blocks[1:])
        blocks[1:] += blocks[0]
        blocks -= rows * (mean[:n_blocks, :, None] * mean[lag:, None, :])
        # gram[a * d + i, (a + lag) * d + j] for a < k - lag
        diagonal = as_strided(gram[:, lag * d :], (n_blocks - 1, d, d), (d * (row + col), row, col))
        diagonal[...] = blocks[:-1]
        if lag:  # the last block is (k - lag, k); at lag 0 it is y^T y
            cross[k - lag] = blocks[-1]
    gram[np.diag_indices_from(gram)] += ridge
    try:
        # gram holds the upper block triangle; its transpose is the
        # Fortran-ordered lower one, which LAPACK factors in place.
        factor = cho_factor(gram.T, lower=True, overwrite_a=True, check_finite=False)
    except LinAlgError:
        if ridge == 0:
            raise ValueError(
                "singular normal equations with ridge = 0; refit with ridge > 0"
            ) from None
        raise
    w = np.ascontiguousarray(cho_solve(factor, cross.reshape(kd, d), check_finite=False).T)  # (d, k*d)
    intercept = (mean[k] + mu) - w @ (mean[:k] + mu).reshape(-1)

    # w_lags[a] = W_a^T, which weighs the patch at offset a
    w_lags = np.ascontiguousarray(w.reshape(d, k, d).transpose(1, 2, 0))
    resid = np.empty((_FIT_ROW_BLOCK, d))
    term = np.empty((_FIT_ROW_BLOCK, d))
    sq_sum = 0.0
    for pc in patches:
        for r0 in range(0, n_rows, _FIT_ROW_BLOCK):
            b = min(_FIT_ROW_BLOCK, n_rows - r0)
            r, t = resid[:b], term[:b]
            np.subtract(pc[r0 + k : r0 + k + b], intercept, out=r)
            for a in range(k):
                np.matmul(pc[r0 + a : r0 + a + b], w_lags[a], out=t)
                r -= t
            sq_sum += float(np.vdot(r, r))
    sigma = math.sqrt(sq_sum / (rows * d))
    w.flags.writeable = False
    intercept.flags.writeable = False
    return ForecastModel(
        kind=KIND_LINEAR,
        patch_len=d,
        lookback=k,
        sigma=max(sigma, 1e-6),
        weights=w,
        intercept=intercept,
        mean_patch=mu,
        norm_stats=train.norm_stats,
    )


def persistence_model(
    patch_len: int,
    sigma: float = 1.0,
    mean_bias: float = 0.0,
    norm_stats: NormStats | None = None,
) -> ForecastModel:
    """Mean = last observed patch; the simplest possible draft."""
    return ForecastModel(
        kind=KIND_PERSISTENCE,
        patch_len=patch_len,
        lookback=1,
        sigma=sigma,
        mean_bias=mean_bias,
        norm_stats=norm_stats,
    )


def save_model(model: ForecastModel, path) -> None:
    """Write a model as a single self-describing JSON document."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "patch_len": model.patch_len,
        "lookback": model.lookback,
        "sigma": model.sigma,
        "mean_bias": model.mean_bias,
        "param_count": model.param_count,
        "weights": None if model.weights is None else model.weights.reshape(-1).tolist(),
        "weights_shape": None if model.weights is None else list(model.weights.shape),
        "intercept": None if model.intercept is None else model.intercept.tolist(),
        "mean_patch": None if model.mean_patch is None else model.mean_patch.tolist(),
        "norm_stats": None if model.norm_stats is None else model.norm_stats.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ForecastModel:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format {doc.get('format_version')!r}")
    weights = None
    if doc["weights"] is not None:
        weights = np.asarray(doc["weights"], dtype=np.float64).reshape(doc["weights_shape"])
    return ForecastModel(
        kind=doc["kind"],
        patch_len=doc["patch_len"],
        lookback=doc["lookback"],
        sigma=doc["sigma"],
        weights=weights,
        intercept=None if doc["intercept"] is None else np.asarray(doc["intercept"]),
        mean_bias=doc["mean_bias"],
        mean_patch=None if doc["mean_patch"] is None else np.asarray(doc["mean_patch"]),
        norm_stats=None if doc["norm_stats"] is None else NormStats.from_dict(doc["norm_stats"]),
    )
