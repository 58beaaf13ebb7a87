"""Desk-scale autoregressive forecasters with Gaussian heads.

Targets and drafts share one model type. A draft is a reduced-capacity
ridge refit of the same data: ``scale`` < 1 truncates the lookback window,
which keeps the essential draft property (cheaper per pass, approximately
aligned mean) without any separate training pipeline.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .prob import GaussianHead
from .series import NormStats, PatchSeries

KIND_LINEAR = "linear_ar"
KIND_PERSISTENCE = "persistence"
KIND_ORACLE = "synthetic_oracle"

MODEL_FORMAT_VERSION = 1


class History:
    """Ring of the most recent ``lookback`` patches for one channel.

    Shorter histories are left-padded with the pad patch (train mean patch),
    so predictions stay finite from the first step.
    """

    def __init__(self, lookback: int, pad_patch: np.ndarray):
        if lookback < 1:
            raise ValueError("lookback must be >= 1")
        pad_patch = np.asarray(pad_patch, dtype=np.float64)
        self.lookback = lookback
        self.patch_len = pad_patch.shape[0]
        self._buf = np.tile(pad_patch, (lookback, 1))
        self.total_appended = 0

    @classmethod
    def from_patches(cls, patches: np.ndarray, lookback: int, pad_patch: np.ndarray | None = None) -> "History":
        patches = np.atleast_2d(np.asarray(patches, dtype=np.float64))
        pad = pad_patch if pad_patch is not None else np.zeros(patches.shape[1])
        h = cls(lookback, pad)
        m = min(lookback, patches.shape[0])
        if m:
            h._buf[lookback - m :] = patches[-m:]
        h.total_appended = patches.shape[0]
        return h

    def append(self, patch: np.ndarray) -> None:
        self._buf[:-1] = self._buf[1:]
        self._buf[-1] = patch
        self.total_appended += 1

    def window(self, k: int | None = None) -> np.ndarray:
        """Most recent k patches, oldest first, shape (k, d)."""
        k = self.lookback if k is None else k
        if k > self.lookback:
            raise ValueError(f"requested window {k} exceeds history capacity {self.lookback}")
        return self._buf[self.lookback - k :].copy()

    def fill_window(self, out: np.ndarray) -> None:
        """Write the most recent len(out) patches into a caller buffer."""
        out[:] = self._buf[self.lookback - out.shape[0] :]


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
    oracle_phi: float | None = None       # AR(1) coefficient, synthetic_oracle only
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LINEAR, KIND_PERSISTENCE, KIND_ORACLE):
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
        if self.kind == KIND_ORACLE and self.oracle_phi is None:
            raise ValueError("synthetic_oracle requires oracle_phi")

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
        return dataclasses.replace(self, **changes) if changes else self

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

    def mean_batch(self, windows: np.ndarray) -> np.ndarray:
        """predict_means without validation; the engine's batched verify pass."""
        recent = windows if windows.shape[1] == self.lookback else windows[:, -self.lookback :, :]
        if self.kind == KIND_PERSISTENCE:
            means = recent[:, -1, :].copy()
        elif self.kind == KIND_LINEAR:
            # Overlapping prefix views reshape to a strided matrix that BLAS
            # cannot consume; force a contiguous copy before the product.
            flat = np.ascontiguousarray(recent).reshape(windows.shape[0], self.lookback * self.d)
            means = flat @ self.weights.T + self.intercept
        else:
            last = recent[:, -1, -1]
            means = last[:, None] * (self.oracle_phi ** np.arange(1, self.d + 1))[None, :]
        if self.mean_bias > 0.0:
            means[:, 0] += self.mean_bias
        return means

    def mean_one(self, window: np.ndarray) -> np.ndarray:
        """Point forecast for one (k, d) window; no validation (hot path)."""
        recent = window if window.shape[0] == self.lookback else window[-self.lookback :]
        if self.kind == KIND_PERSISTENCE:
            mean = recent[-1].copy()
        elif self.kind == KIND_LINEAR:
            mean = self.weights @ recent.reshape(-1) + self.intercept
        else:
            mean = recent[-1, -1] * self.oracle_phi ** np.arange(1, self.d + 1)
        if self.mean_bias > 0.0:
            mean[0] += self.mean_bias
        return mean

    def predict(self, history: History, sigma_override: float | None = None) -> GaussianHead:
        """Gaussian head for the next patch given a history."""
        mean = self.predict_means(history.window(self.lookback)[None, :, :])[0]
        sigma = self.sigma if sigma_override is None else float(sigma_override)
        return GaussianHead.isotropic(mean, sigma)


def effective_lookback(lookback: int, scale: float) -> int:
    """Capacity truncation rule: scale < 1 keeps the most recent patches."""
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    return max(1, round(scale * lookback))


def fit_linear_ar(
    train: PatchSeries,
    lookback: int,
    ridge: float = 1e-3,
    scale: float = 1.0,
    seed: int | None = None,
    sample_stride: int = 1,
) -> ForecastModel:
    """Ridge-fit a linear next-patch predictor on pooled channel patches.

    Features are the concatenated ``k`` lookback patches (oldest first);
    the fit residual standard deviation becomes the default head sigma.
    Intercept is not regularized, so ridge -> inf drives the prediction to
    the train mean patch. Channel c contributes N = n - k training rows
    t = 0 .. N-1; pooled row c*N + t is kept iff it is a multiple of
    ``sample_stride``.

    The (rows, k*d) feature matrix is never built. A training row, features
    and target together, is a window of k + 1 consecutive patches, so the
    centred normal equations are blocks of the Gram matrix of those windows:
    block (a, a + lag) sums q[t + a] q[t + a + lag]^T over the kept t, with
    q the patches centred by their pooled mean. The blocks at the first
    ``sample_stride`` offsets of each lag are summed directly; every later
    one is the block ``sample_stride`` offsets before it plus the outer
    product of the row that enters the range, minus the one that leaves it,
    per channel. Subtracting rows * m m^T (m the mean window) centres them.
    Where every patch is the same, q is a residue of a few ulps whose
    products and sums are exact, so the Gram matrix is exactly zero and
    ``ridge = 0`` fails as singular. The residuals for sigma come from the
    structured prediction b + sum_a x[t + a] W_a^T, not from the normal
    equations' quadratic form, which cancels when the residuals are tiny.

    Cost O((k+1) * N * d^2 + (k*d)^3) time and O((k*d)^2) memory, the
    latter for the Gram matrix, which is factored in place.
    """
    if not np.isfinite(ridge) or ridge < 0:
        raise ValueError("ridge must be finite and >= 0")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    k = effective_lookback(lookback, scale)
    d = train.patch_len
    if train.n_patches < k + 1:
        raise ValueError(
            f"need at least {k + 1} patches per channel to fit, have {train.n_patches}"
        )
    s = sample_stride
    patches = train.patches
    n_rows = train.n_patches - k
    # (channel, first kept t, kept count) of every channel that keeps a row.
    runs = []
    for c in range(train.n_channels):
        first = (-c * n_rows) % s
        if first < n_rows:
            runs.append((c, first, (n_rows - first + s - 1) // s))
    rows = sum(m for _, _, m in runs)
    mu = patches.reshape(-1, d).mean(axis=0)
    q = patches - mu

    def kept(x, a):
        """Per-channel (count, d) views of x[c, t + a] over the kept t."""
        return [x[c, f + a : f + a + (m - 1) * s + 1 : s] for c, f, m in runs]

    mean = np.stack([sum(v.sum(axis=0) for v in kept(q, a)) for a in range(k + 1)]) / rows
    kd = k * d
    gram = np.zeros((kd, kd))
    gram_blocks = gram.reshape(k, d, k, d)
    cross = np.empty((k, d, d))  # X^T y, one (d, d) block per lag position
    for lag in range(k + 1):
        n_blocks = k + 1 - lag  # blocks (a, a + lag), a = 0 .. k - lag
        blocks = np.empty((n_blocks, d, d))
        for a in range(min(s, n_blocks)):
            blocks[a] = sum(x.T @ y for x, y in zip(kept(q, a), kept(q, a + lag)))
        steps = n_blocks - s
        if steps > 0:
            # blocks[a] = blocks[a - s] + delta[a - s] for a >= s
            delta = np.zeros((steps, d, d))
            for c, f, m in runs:
                enter = f + m * s  # one stride past the last kept t
                qc = q[c]
                delta += qc[enter : enter + steps, :, None] * qc[enter + lag : enter + lag + steps, None, :]
                delta -= qc[f : f + steps, :, None] * qc[f + lag : f + lag + steps, None, :]
            for r in range(s):
                blocks[r + s :: s] = blocks[r] + np.cumsum(delta[r::s], axis=0)
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
    lagged = [kept(patches, a) for a in range(k + 1)]
    sq_sum = 0.0
    for i, y in enumerate(lagged[k]):
        resid = y - intercept
        for a in range(k):
            resid -= lagged[a][i] @ w_lags[:, a].T
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
        seed=seed,
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


def oracle_ar1(patch_len: int, phi: float, sigma: float = 1.0) -> ForecastModel:
    """Exact conditional mean of a step-level AR(1) process (test fixture)."""
    return ForecastModel(
        kind=KIND_ORACLE,
        patch_len=patch_len,
        lookback=1,
        sigma=sigma,
        oracle_phi=float(phi),
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
        "oracle_phi": model.oracle_phi,
        "seed": model.seed,
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
        oracle_phi=doc["oracle_phi"],
        seed=doc["seed"],
    )
