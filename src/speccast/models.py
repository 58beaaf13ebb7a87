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
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .series import NormStats, PatchSeries

KIND_LINEAR = "linear_ar"
KIND_PERSISTENCE = "persistence"

MODEL_FORMAT_VERSION = 1
_CACHE_LINE = 64  # bytes


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
    being a norm, a negative value is rejected.
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
    rows t = 0 .. N-1.

    The (rows, k*d) feature matrix is never built. A training row, features
    and target together, is a window of k + 1 consecutive patches, so the
    centred normal equations are blocks of the Gram matrix of those windows:
    block (a, a + lag) sums q[t + a] q[t + a + lag]^T over t, with q the
    patches centred by their pooled mean. The block at offset 0 of each lag
    is summed directly; every later one is the block before it plus the
    outer product of the row that enters the range, minus the one that
    leaves it, per channel. Subtracting rows * m m^T (m the mean window)
    centres them. Where every patch is the same, q is a residue of a few
    ulps whose products and sums are exact, so the Gram matrix is exactly
    zero and ``ridge = 0`` fails as singular. The residuals for sigma come
    from the structured prediction b + sum_a x[t + a] W_a^T, not from the
    normal equations' quadratic form, which cancels when the residuals are
    tiny.

    Cost O((k+1) * N * d^2 + (k*d)^3) time and O((k*d)^2) memory, the
    latter for the Gram matrix, which is factored in place.
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
    n_rows = train.n_patches - k
    rows = train.n_channels * n_rows
    mu = patches.reshape(-1, d).mean(axis=0)
    q = patches - mu

    def lagged(x, a):
        """Per-channel (n_rows, d) views of x[c, t + a]."""
        return [xc[a : a + n_rows] for xc in x]

    mean = np.stack([sum(v.sum(axis=0) for v in lagged(q, a)) for a in range(k + 1)]) / rows
    kd = k * d
    gram = np.zeros((kd, kd))
    gram_blocks = gram.reshape(k, d, k, d)
    cross = np.empty((k, d, d))  # X^T y, one (d, d) block per lag position
    for lag in range(k + 1):
        n_blocks = k + 1 - lag  # blocks (a, a + lag), a = 0 .. k - lag
        blocks = np.empty((n_blocks, d, d))
        blocks[0] = sum(x.T @ y for x, y in zip(lagged(q, 0), lagged(q, lag)))
        steps = n_blocks - 1
        if steps > 0:
            # blocks[a] = blocks[a - 1] + delta[a - 1] for a >= 1
            delta = np.zeros((steps, d, d))
            for qc in q:
                enter = qc[n_rows:]  # the rows that enter the sum range, one per step
                delta += enter[:steps, :, None] * enter[lag : lag + steps, None, :]
                delta -= qc[:steps, :, None] * qc[lag : lag + steps, None, :]
            blocks[1:] = blocks[0] + np.cumsum(delta, axis=0)
        blocks -= rows * (mean[:n_blocks, :, None] * mean[lag:, None, :])
        a = np.arange(n_blocks - 1)
        gram_blocks[a, :, a + lag, :] = blocks[:-1]
        if lag:  # the last block is (k - lag, k); at lag 0 it is y^T y
            cross[k - lag] = blocks[-1]
    gram[np.diag_indices_from(gram)] += ridge
    try:
        # gram holds the upper block triangle; its transpose is the
        # Fortran-ordered lower one, which LAPACK factors in place.
        factor = cho_factor(gram.T, lower=True, overwrite_a=True)
    except LinAlgError:
        if ridge == 0:
            raise ValueError(
                "singular normal equations with ridge = 0; refit with ridge > 0"
            ) from None
        raise
    w = np.ascontiguousarray(cho_solve(factor, cross.reshape(kd, d)).T)  # (d, k*d)
    intercept = (mean[k] + mu) - w @ (mean[:k] + mu).reshape(-1)
    w_lags = w.reshape(d, k, d)  # w_lags[:, a] weighs the patch at offset a
    windows = [lagged(patches, a) for a in range(k + 1)]
    sq_sum = 0.0
    for i, y in enumerate(windows[k]):
        resid = y - intercept
        for a in range(k):
            resid -= windows[a][i] @ w_lags[:, a].T
        sq_sum += float(np.vdot(resid, resid))
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
        mean_patch=train.mean_patch(),
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
