"""Desk-scale autoregressive forecasters with isotropic Gaussian heads.

Targets and drafts share one model type of two kinds, a ridge-fitted linear
map of the lookback window (``linear_ar``) and the last patch
(``persistence``). The decode engine reads only a model's next-patch mean
(``mean_one``, ``mean_batch``) and head width ``sigma``. A draft is a
reduced-capacity ridge refit of the same data: ``scale`` < 1 truncates the
lookback window, which keeps the essential draft property (cheaper per
pass, approximately aligned mean) without a separate training pipeline.
A linear model holds its weights once, as the frozen operand of its mean
products (see ``ForecastModel``), and no caller array can change a model.
``History`` is the read-only context a decode session starts from,
left-padded when its source is short. It views its source's recent
patches where nothing can write them: a float64 source of at least
``lookback`` patches that is read-only, as is every array up its
``.base`` chain (a ``PatchSeries``'s patches, say, and every test window
cut from them). Any other source is copied, since a view of memory that
some writable array still reaches could change under a decode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpftrf, dpftrs

from .series import NormStats, PatchSeries
from .synth import check_real

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
    predictions stay finite from the first step. Where the source is
    float64, holds at least ``lookback`` patches and is frozen (it and
    every array up its ``.base`` chain are read-only, see ``_is_frozen``),
    the context is a view of its last ``lookback`` rows: it allocates no
    copy but keeps the source alive. A read-only view of a writable array
    is not frozen, as the array could still be written through, so such a
    source is copied, and so are a converted (non-float64) and a short
    one. A decode copies the context into its session buffer with
    ``fill_window`` and never changes it.
    """

    def __init__(self, context: np.ndarray):
        self._context = context
        self.lookback, self.d = context.shape

    @classmethod
    def from_patches(cls, patches: np.ndarray, lookback: int, pad_patch: np.ndarray | None = None) -> "History":
        if lookback < 1:
            raise ValueError("lookback must be >= 1")
        # asarray hands a float64 array on as it is and converts anything
        # else into a new, writable array, which is never frozen.
        patches = np.atleast_2d(np.asarray(patches, dtype=np.float64))
        if patches.ndim != 2:
            raise ValueError(f"patches must be 2-D (n, d), got shape {patches.shape}")
        pad = np.asarray(pad_patch if pad_patch is not None else np.zeros(patches.shape[1]), dtype=np.float64)
        if pad.ndim != 1:
            raise ValueError(f"the pad patch must be 1-D (d,), got shape {pad.shape}")
        if pad.shape != (patches.shape[1],):
            raise ValueError(f"patch width {patches.shape[1]} does not match the pad patch shape {pad.shape}")
        n = patches.shape[0]
        if n >= lookback and _is_frozen(patches):
            return cls(patches[n - lookback :])
        context = np.tile(pad, (lookback, 1))
        m = min(lookback, n)
        if m:
            context[lookback - m :] = patches[-m:]
        context.flags.writeable = False
        return cls(context)

    def window(self) -> np.ndarray:
        """A writable copy of the context, shape (lookback, d)."""
        return self._context.copy()

    def fill_window(self, out: np.ndarray) -> None:
        """Write the most recent len(out) patches into a caller buffer."""
        k = out.shape[0]
        out[...] = self._context if k == self.lookback else self._context[self.lookback - k :]


def _is_frozen(array: np.ndarray) -> bool:
    """True when ``array`` and every array up its ``.base`` chain are read-only.

    The chain must end at an array that owns its memory: one that ends at
    another buffer object (``bytes``, a ``bytearray``, an ``mmap``) is not
    frozen, as that buffer may be writable. The owner is trusted to stay
    read-only, although numpy lets its holder make it writable again.
    """
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


def _frozen_copy(array: np.ndarray) -> np.ndarray:
    """A frozen, C-ordered float64 copy of ``array`` that starts on a cache line.

    The mean products stream the weights operand: one that straddles cache
    lines (malloc aligns to 16 bytes) made the step about 1.5x slower.
    """
    nbytes = array.size * np.dtype(np.float64).itemsize
    raw = np.empty(nbytes + _CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % _CACHE_LINE
    copy = raw[start : start + nbytes].view(np.float64).reshape(array.shape)
    copy[...] = array
    copy.flags.writeable = False
    raw.flags.writeable = False
    return copy


@dataclass(frozen=True)
class ForecastModel:
    """Point forecaster plus isotropic Gaussian head of width sigma.

    mean_bias >= 0 shifts the predicted mean by a fixed vector of that norm
    along the first patch coordinate (after standardization). It is a
    reproducible knob for degrading a draft's alignment with the target;
    being a norm, a negative or non-finite value is rejected. A model is
    checked where it is built, so a bad one never reaches a decode: a
    ValueError names the sigma or mean_bias when it is not a finite number
    in range, and the weights, intercept or mean patch when its shape is
    wrong or it holds NaN or inf.

    The weights live in one array, the read-only, C-ordered (lookback*d, d)
    operand of the mean products, starting on a cache line; ``weights`` is
    its F-ordered transpose. Weights whose transpose is already such an
    operand (frozen, see ``_is_frozen``) are kept, as are a frozen float64
    intercept and mean patch; any others are copied once, here. So the
    fit's own operand and ``dataclasses.replace`` copies share one array,
    and a model built from caller arrays never sees them change.
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
    # weights.T, held so that a mean product does not make the view per call
    _operand: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LINEAR, KIND_PERSISTENCE):
            raise ValueError(f"unknown model kind {self.kind!r}")
        check_real("sigma", self.sigma)
        check_real("mean_bias", self.mean_bias, "finite and >= 0")
        if self.kind == KIND_LINEAR:
            if self.weights is None or self.intercept is None:
                raise ValueError("linear_ar model requires weights and intercept")
            expected = (self.patch_len, self.lookback * self.patch_len)
            if self.weights.shape != expected:
                raise ValueError(f"weights shape {self.weights.shape} != {expected}")
        for name in ("intercept", "mean_patch"):
            value = getattr(self, name)
            if value is not None:
                if value.shape != (self.patch_len,):
                    raise ValueError(f"{name} shape {value.shape} != {(self.patch_len,)}")
                if not (value.dtype == np.float64 and _is_frozen(value)):
                    object.__setattr__(self, name, _frozen_copy(value))
        for name in ("weights", "intercept", "mean_patch"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if self.weights is not None:
            operand = self.weights.T
            aligned = operand.flags.c_contiguous and operand.ctypes.data % _CACHE_LINE == 0
            if not (aligned and operand.dtype == np.float64 and _is_frozen(operand)):
                operand = _frozen_copy(operand)
                object.__setattr__(self, "weights", operand.T)
            object.__setattr__(self, "_operand", operand)

    @property
    def d(self) -> int:
        return self.patch_len

    @property
    def param_count(self) -> int:
        if self.kind == KIND_LINEAR:
            return self.weights.size + self.intercept.size
        return 0

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

        With ``out``, a C-contiguous float64 (B, d) array, the means are
        written there, with the same bits, and ``out`` is returned. A
        linear model multiplies with ``ndarray.dot`` (``np.dot`` without
        its dispatch step, and the cblas call of ``np.matmul``), which
        raises ValueError for any other ``out``.
        """
        if self.kind == KIND_PERSISTENCE:
            # the last patch, whatever the window's length
            if out is None:
                means = windows[:, -1].copy()
            else:
                out[...] = windows[:, -1]
                means = out
        else:
            recent = windows if windows.shape[1] == self.lookback else windows[:, -self.lookback :, :]
            # Overlapping prefix views reshape to a strided matrix that BLAS
            # cannot consume; force a contiguous copy before the product.
            flat = np.ascontiguousarray(recent).reshape(windows.shape[0], self.lookback * self.d)
            means = flat.dot(self._operand, out=out)
            means += self.intercept
        if self.mean_bias > 0.0:
            means[:, 0] += self.mean_bias
        return means

    def mean_one(self, window: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Point forecast for one (k, d) window; no validation (hot path).

        With ``out``, a C-contiguous float64 (d,) array, the mean is written
        there, with the same bits, and ``out`` is returned. A linear model
        multiplies with ``ndarray.dot``, which raises ValueError for any
        other ``out``.
        """
        if self.kind == KIND_PERSISTENCE:
            # the last patch, whatever the window's length
            if out is None:
                mean = window[-1].copy()
            else:
                out[...] = window[-1]
                mean = out
        else:
            recent = window if window.shape[0] == self.lookback else window[-self.lookback :]
            mean = recent.reshape(-1).dot(self._operand, out=out)
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
    an entry of the normal equations could overflow. The fit's packed
    Cholesky factor and solve scan for neither, on the strength of this.
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


def _rfp_halves(packed: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Writable views of the lower triangle of an n x n matrix A in RFP.

    ``packed`` holds A's lower triangle in n (n + 1) / 2 entries, in
    LAPACK's rectangular full packed storage with TRANSR = 'N' and
    UPLO = 'L'. With h = ceil(n / 2), it is a column-major array of h
    columns whose leading dimension is n (n odd) or n + 1 (n even). The
    first h columns of the triangle fill it from its first row (n odd) or
    one row down (n even); the trailing (n - h) triangle is held transposed
    in the entries above them. Returns (left, right): left[r, c] is
    A[r, c] for c < h, and right[r, c] is A[h + r, h + c]; both hold A
    where r >= c, and an entry above their diagonal is one of the other
    view's.
    """
    h = (n + 1) // 2
    lda = n + 1 - n % 2
    item = packed.itemsize
    left = as_strided(packed[1 - n % 2 :], (n, h), (item, lda * item))
    right = as_strided(packed[n % 2 * lda :], (n - h, n - h), (lda * item, item))
    return left, right


def _put_lag_blocks(left: np.ndarray, right: np.ndarray, blocks: np.ndarray, lag: int) -> None:
    """Write blocks (a, a + lag) of a symmetric matrix into its RFP halves.

    ``blocks[a]`` is the (d, d) block at rows a * d and columns
    (a + lag) * d, so its transpose is the lower triangle's block at rows
    (a + lag) * d and columns a * d. A block lands in ``left``, in
    ``right``, or, where h falls inside it, in both, each part through one
    strided view of the half's block diagonal. At lag 0 only the entries on
    and above each block's diagonal are written: the others would land
    above a half's diagonal, on entries of the other half.
    """
    count, d, _ = blocks.shape
    h = left.shape[1]
    upper = np.triu(np.ones((d, d), bool))
    split, cut = divmod(h, d)  # block `split` has its first `cut` columns left of h
    for half, shift, a0, a1, i0, i1 in (
        (left, 0, 0, split, 0, d),  # whole blocks left of h
        (left, 0, split, split + 1, 0, cut),  # the block that h cuts, in two parts
        (right, h, split, split + 1, cut, d),
        (right, h, split + 1, count, 0, d),  # whole blocks right of h
    ):
        a1 = min(a1, count)
        if a0 >= a1 or i0 >= i1:
            continue
        # At lag 0, entry (i, j) of a block is written where j >= i, so
        # columns i >= i0 skip rows j < i0, which may lie outside the half.
        j0 = i0 if lag == 0 else 0
        where = upper[i0:i1, j0:] if lag == 0 else True
        rows, cols = half.strides
        corner = half[(a0 + lag) * d + j0 - shift :, a0 * d + i0 - shift :]
        view = as_strided(corner, (a1 - a0, i1 - i0, d - j0), (d * (rows + cols), cols, rows))
        np.copyto(view, blocks[a0:a1, i0:i1, j0:], where=where)


def _packed_normal_equations(
    patches: np.ndarray, mu: np.ndarray, k: int, ridge: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The fit's centred ridge normal equations, with the matrix in RFP.

    A training row, features and target together, is a window of k + 1
    consecutive patches, so the centred normal equations are blocks of the
    Gram matrix of those windows: block (a, a + lag) sums
    q[t + a]^T q[t + a + lag] over t, with q the patches centred by their
    pooled mean ``mu``. The block at offset 0 of each lag is summed
    directly: one pass over each channel's rows, in blocks of
    ``_FIT_ROW_BLOCK`` rows that stay in L2 cache, forms all k + 1 lag
    products of a block in one batched product. Every later block is the
    block before it plus the outer product of the row that enters the
    range, minus the one that leaves it, summed over channels in one
    batched product per lag. The window means come from one prefix sum per
    channel; subtracting rows * m m^T (m the mean window) centres the
    blocks.

    Returns (packed, rhs, x_mean, y_mean). ``packed`` is the (k*d, k*d)
    Gram matrix plus ``ridge`` on its diagonal, one triangle in the RFP
    storage that ``_rfp_halves`` describes; every entry is written once.
    ``rhs`` is X^T y, Fortran-ordered (k*d, d), and x_mean and y_mean are
    the mean feature row and target. The centred patches and their prefix
    sums are freed before ``packed`` is made, the other work arrays on
    return.
    """
    n_channels, n_patches, d = patches.shape
    n_rows = n_patches - k
    rows = n_channels * n_rows
    q = patches - mu

    # Window sums: sums[a] adds q[c, t + a] over channels c and rows t.
    prefix = np.zeros((n_patches + 1, d))
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
    del q, qc, ahead, prefix, part  # freed before the packed matrix is made

    kd = k * d
    packed = np.empty(kd * (kd + 1) // 2)
    halves = _rfp_halves(packed, kd)
    rhs = np.empty((d, k, d))  # rhs[:, a] = (X_a^T y)^T, X_a the patch at offset a
    for lag in range(k + 1):
        n_blocks = k + 1 - lag  # blocks (a, a + lag), a = 0 .. k - lag
        blocks = np.empty((n_blocks, d, d))
        blocks[0] = lag_sum[lag]
        np.cumsum(np.matmul(left[: n_blocks - 1], right[lag:]), axis=0, out=blocks[1:])
        blocks[1:] += blocks[0]
        blocks -= rows * (mean[:n_blocks, :, None] * mean[lag:, None, :])
        _put_lag_blocks(*halves, blocks[:-1], lag)
        if lag:  # the last block is (k - lag, k); at lag 0 it is y^T y
            rhs[:, k - lag] = blocks[-1].T
    for half in halves:
        as_strided(half, (half.shape[1],), (sum(half.strides),))[...] += ridge
    return packed, rhs.reshape(d, kd).T, (mean[:k] + mu).reshape(-1), mean[k] + mu


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

    The (rows, k*d) feature matrix is never built:
    ``_packed_normal_equations`` sums the centred normal equations from
    lagged window products and writes each lag's blocks straight into one
    triangle of the Gram matrix in rectangular full packed (RFP) storage,
    through strided views of the two halves' block diagonals. LAPACK's
    ``dpftrf`` factors that array in place with level-3 BLAS and
    ``dpftrs`` solves for the (k*d, d) weights, copied once into the model's
    operand after the factor is freed. Where every patch is the same, the
    centred patches are a residue of a few ulps whose products and sums are
    exact, so the Gram matrix is exactly zero and ``ridge = 0`` fails as
    singular. The residuals for sigma come from the structured prediction
    b + sum_a x[t + a] W_a^T, not from the normal equations' quadratic
    form, which cancels when the residuals are tiny; they are accumulated
    one row block at a time.

    The patches are checked once, up front: finite, and small enough that
    no sum of products can overflow. The LAPACK calls scan nothing, so no
    finiteness mask of the Gram matrix or its factor is made.

    Cost O((k+1) * N * d^2 + (k*d)^3) time. Memory: one triangle of the
    Gram matrix, (k*d) (k*d + 1) / 2 floats, factored in place, and
    O((k + row block) * d^2) of work arrays beside it; the centred copy of
    the patches is freed before that triangle is made.
    """
    check_real("ridge", ridge, "finite and >= 0")
    k = effective_lookback(lookback, scale)
    d = train.patch_len
    if train.n_patches < k + 1:
        raise ValueError(
            f"need at least {k + 1} patches per channel to fit, have {train.n_patches}"
        )
    patches = train.patches
    _check_training_patches(patches, ridge)
    n_rows = train.n_patches - k
    rows = train.n_channels * n_rows
    mu = patches.reshape(-1, d).mean(axis=0)

    kd = k * d
    packed, rhs, x_mean, y_mean = _packed_normal_equations(patches, mu, k, ridge)
    factor, info = dpftrf(kd, packed, uplo="L", overwrite_a=True)
    if info > 0:
        if ridge == 0:
            raise ValueError(
                "singular normal equations with ridge = 0; refit with ridge > 0"
            )
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    solution, _ = dpftrs(kd, factor, rhs, uplo="L", overwrite_b=True)  # (k*d, d), F-ordered
    del packed, factor  # freed before the operand is made
    operand = _frozen_copy(solution)
    intercept = y_mean - solution.T @ x_mean

    # w_lags[a] = W_a^T, which weighs the patch at offset a
    w_lags = operand.reshape(k, d, d)
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
    return ForecastModel(
        kind=KIND_LINEAR,
        patch_len=d,
        lookback=k,
        sigma=max(sigma, 1e-6),
        weights=operand.T,
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
