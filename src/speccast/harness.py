"""Experiment orchestration: splits, sweeps, cost measurement, calibration.

A sweep point is (variant, gamma, sigma, draft scale, bias, seed). The
draft-only baseline never looks at gamma, so it has one point per (sigma,
scale, bias, seed), recorded with gamma 0. For every (sigma, seed) the
harness also runs the target-only baseline on the same test windows with the
same per-window seeds, so measured speedups and accuracy deltas compare like
against like. One function of ``run_experiment`` decodes a point of any
variant and builds its row. A speculative row's acceptance estimate
alpha_hat is the mean acceptance at the spec's tolerance_lambda,
``overlap(Delta, lambda)``, over the whitened gaps of the two models' means
on held-out validation histories, which each model predicts once.

``RunResult`` is the one record of a sweep point: its keys, accuracy,
acceptance, cost, the closed-form predictions and the measurements, each
stored once. The calibration and trade-off tables are read from it. Its
determinism digest strips every TIMING_KEYS entry: the cost model (timed
passes), the predicted speedup (a function of the timed c), the measured
speedup and ops factor, and the wall seconds. On a fixed machine everything
else must replay exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .analysis import CostModel, expected_block_length, ops_factor, speedup_wall
from .engine import (
    VARIANT_DRAFT_ONLY,
    VARIANT_LOSSLESS,
    VARIANT_PRACTICAL,
    VARIANT_TARGET_ONLY,
    VARIANTS,
    DecodeConfig,
    decode,
)
from .models import ForecastModel, History, fit_linear_ar
from .prob import overlap, whitened_gap
from .series import CsvSchema, NormStats, PatchSeries, chronological_split, load_csv, metrics
from .synth import SyntheticSpec, check_integer, check_keys, drop_retired

SPLIT = (0.6, 0.2, 0.2)  # chronological train / validation / test fractions
ALPHA_HISTORIES = 512    # held-out histories per acceptance estimate, at most
TIMING_PASSES = 200      # timed forwards per model in measure_cost_ratio

# Spec keys of earlier versions, each with the one value it ever held; a
# saved spec that carries one at that value still loads.
_RETIRED_SPEC_KEYS = {
    "split": SPLIT,
    "cost_c": None,
    "cost_c_hat": None,
    "n_alpha_histories": ALPHA_HISTORIES,
    "timing_passes": TIMING_PASSES,
    "fit_sample_stride": 1,
}

SATURATION_ALPHA = 0.97  # acceptance estimate at which pick_saturation_sigma stops

# Keys of the figures that read the clock: a RunResult's, and a decode
# trace's summary ``wall_times``.
TIMING_KEYS = {"wall_times", "cost", "s_wall_pred", "s_wall_measured", "ops_factor_meas", "wall_seconds"}


@dataclass(frozen=True)
class DataSpec:
    """Either a CSV on disk or a synthetic generator."""

    csv_path: str | None = None
    channel_cols: tuple[str, ...] | None = None
    timestamp_col: str | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self) -> None:
        if (self.csv_path is None) == (self.synthetic is None):
            raise ValueError("DataSpec needs exactly one of csv_path or synthetic")

    @property
    def name(self) -> str:
        if self.csv_path is not None:
            stem = str(self.csv_path).rsplit("/", 1)[-1]
            return stem.rsplit(".", 1)[0]
        return f"synthetic-{self.synthetic.seed}"

    def load(self) -> np.ndarray:
        if self.csv_path is not None:
            return load_csv(self.csv_path, CsvSchema(self.channel_cols, self.timestamp_col))
        return self.synthetic.generate()

    def to_dict(self) -> dict:
        return {
            "csv_path": self.csv_path,
            "channel_cols": None if self.channel_cols is None else list(self.channel_cols),
            "timestamp_col": self.timestamp_col,
            "synthetic": None if self.synthetic is None else self.synthetic.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DataSpec":
        """The data a ``to_dict`` document describes; ValueError names an unknown key."""
        check_keys(d, cls, "data spec")
        return cls(
            csv_path=d.get("csv_path"),
            channel_cols=None if d.get("channel_cols") is None else tuple(d["channel_cols"]),
            timestamp_col=d.get("timestamp_col"),
            synthetic=None if d.get("synthetic") is None else SyntheticSpec.from_dict(d["synthetic"]),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    data: DataSpec
    patch_len: int
    lookback: int
    horizon_steps: int
    sigmas: tuple[float, ...] = (0.5,)
    gammas: tuple[int, ...] = (3,)
    variants: tuple[str, ...] = ("practical",)
    scales: tuple[float, ...] = (0.25,)
    biases: tuple[float, ...] = (0.0,)
    seeds: tuple[int, ...] = (0,)
    ridge: float = 1e-3
    tolerance_lambda: float = 1.0
    max_test_windows: int = 8

    def __post_init__(self) -> None:
        for key in ("patch_len", "lookback", "horizon_steps", "max_test_windows"):
            check_integer(key, getattr(self, key))
        for key in ("gammas", "seeds"):
            for v in getattr(self, key):
                check_integer(key, v)
        rules = (
            ("patch_len", (self.patch_len,), lambda v: v >= 1, ">= 1"),
            ("lookback", (self.lookback,), lambda v: v >= 1, ">= 1"),
            ("horizon_steps", (self.horizon_steps,), lambda v: v >= self.patch_len,
             f">= patch_len {self.patch_len}"),
            ("gammas", self.gammas, lambda v: v >= 1, ">= 1"),
            ("sigmas", self.sigmas, lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
            ("biases", self.biases, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
            ("scales", self.scales, lambda v: 0 < v <= 1, "in (0, 1]"),
            ("max_test_windows", (self.max_test_windows,), lambda v: v >= 1, ">= 1"),
            ("tolerance_lambda", (self.tolerance_lambda,), lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
        )
        for key, values, ok, rule in rules:
            for v in values:
                if not ok(v):
                    raise ValueError(f"{key} must be {rule}, got {v}")
        if self.horizon_steps % self.patch_len != 0:
            raise ValueError(
                f"horizon_steps {self.horizon_steps} not divisible by patch_len {self.patch_len}"
            )
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}")
        if VARIANT_LOSSLESS in self.variants and self.tolerance_lambda != 1.0:
            raise ValueError(
                f"variant {VARIANT_LOSSLESS!r} requires tolerance_lambda == 1, got {self.tolerance_lambda}"
            )

    @property
    def horizon_patches(self) -> int:
        return self.horizon_steps // self.patch_len

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["data"] = self.data.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """The spec a ``to_dict`` document describes; ValueError names a bad key."""
        d = drop_retired(d, _RETIRED_SPEC_KEYS, "spec")
        check_keys(d, cls, "spec")
        d["data"] = DataSpec.from_dict(d["data"])
        for key in ("sigmas", "gammas", "variants", "scales", "biases", "seeds"):
            if key in d and d[key] is not None:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class RunResult:
    """One sweep point, each figure stored once.

    Speculative rows carry every field. A draft_only row has no acceptance
    figures and no predictions, and a target_only row has no cost either.
    """

    dataset: str
    variant: str
    gamma: int
    sigma: float
    scale: float
    bias: float
    seed: int
    mse: float
    mae: float
    n_windows: int
    horizon_patches: int
    alpha_hat: float | None = None        # held-out mean acceptance at the spec's lambda
    n_histories: int | None = None        # held-out histories behind alpha_hat
    alpha_empirical: float | None = None  # accepted / examined proposals, from traces
    mean_n: float | None = None           # accepted proposals per round
    mean_l: float | None = None           # patches emitted per round
    cost: CostModel | None = None
    e_l_pred: float | None = None
    s_wall_pred: float | None = None
    ops_factor_pred: float | None = None
    s_wall_measured: float = 1.0
    ops_factor_meas: float | None = None
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunResult":
        """The record a ``to_dict`` document describes; ValueError names a bad key."""
        check_keys(d, cls, "run result")
        cost = d.get("cost")
        return cls(**{**d, "cost": None if cost is None else CostModel.from_dict(cost)})

    def rel_gaps(self) -> tuple[float, float]:
        """|predicted - measured| / predicted, of E[L] and of the wall-clock speedup."""
        return (
            abs(self.e_l_pred - self.mean_l) / self.e_l_pred,
            abs(self.s_wall_pred - self.s_wall_measured) / self.s_wall_pred,
        )

    def determinism_digest(self) -> str:
        """Digest of all non-timing fields; identical across replays."""
        payload = strip_timing(self.to_dict())
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def strip_timing(obj):
    """Drop every TIMING_KEYS entry, at any depth, and sort dict keys."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in sorted(obj.items()) if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def measure_cost_ratio(target: ForecastModel, draft: ForecastModel, window: np.ndarray) -> CostModel:
    """Median per-forward wall-clock ratio over TIMING_PASSES passes each.

    ``c_hat`` is the parameter-count ratio, or the timed ratio when a model
    has no parameters. Warns when the target pass is too fast for the timer
    (< 1 microsecond median).
    """
    window = np.ascontiguousarray(np.asarray(window, dtype=np.float64))
    if window.ndim == 3:
        window = window[0]

    def _median_pass(model: ForecastModel) -> float:
        # Times the engine's per-forward primitive on the same batch shape
        # for both models.
        for _ in range(20):
            model.mean_one(window)
        samples = np.empty(TIMING_PASSES)
        for i in range(TIMING_PASSES):
            t0 = time.perf_counter_ns()
            model.mean_one(window)
            samples[i] = time.perf_counter_ns() - t0
        return float(np.median(samples)) * 1e-9

    target_s = _median_pass(target)
    draft_s = _median_pass(draft)
    if target.param_count > 0 and draft.param_count > 0:
        c_hat = draft.param_count / target.param_count
    else:
        c_hat = max(draft_s / target_s, 1e-9)
    if target_s < 1e-6:
        warnings.warn(
            f"target pass medians {target_s * 1e9:.0f} ns; timer resolution inadequate "
            "for the measured cost ratio",
            stacklevel=2,
        )
    return CostModel(
        c=draft_s / target_s,
        c_hat=c_hat,
        n_timed_passes=TIMING_PASSES,
        target_pass_seconds=target_s,
        draft_pass_seconds=draft_s,
    )


@dataclass(frozen=True)
class TestWindow:
    channel: int
    context: np.ndarray  # (k_ctx, d)
    truth: np.ndarray    # (horizon_patches, d)


def build_test_windows(
    test: PatchSeries, k_ctx: int, horizon_patches: int, max_windows: int
) -> list[TestWindow]:
    """Disjoint context+horizon windows, evenly subsampled across channels."""
    if horizon_patches < 1:
        raise ValueError(f"horizon_patches must be >= 1, got {horizon_patches}")
    windows: list[TestWindow] = []
    span = k_ctx + horizon_patches
    for ch in range(test.n_channels):
        patches = test.channel_patches(ch)
        start = 0
        while start + span <= patches.shape[0]:
            windows.append(
                TestWindow(
                    channel=ch,
                    context=patches[start : start + k_ctx],
                    truth=patches[start + k_ctx : start + span],
                )
            )
            start += horizon_patches
    if not windows:
        raise ValueError(
            f"test split too short: need {span} patches per channel, have {test.n_patches}"
        )
    if len(windows) > max_windows:
        idx = np.linspace(0, len(windows) - 1, max_windows).round().astype(int)
        windows = [windows[i] for i in sorted(set(idx.tolist()))]
    return windows


def _alpha_contexts(val: PatchSeries, k_ctx: int) -> np.ndarray:
    """The held-out histories of the acceptance estimate, stacked (N, k_ctx, d)."""
    contexts = []
    for ch in range(val.n_channels):
        patches = val.channel_patches(ch)
        for start in range(0, patches.shape[0] - k_ctx, max(1, k_ctx // 4)):
            contexts.append(patches[start : start + k_ctx])
    if not contexts:
        raise ValueError("validation split too short for acceptance estimation")
    if len(contexts) > ALPHA_HISTORIES:
        idx = np.linspace(0, len(contexts) - 1, ALPHA_HISTORIES).round().astype(int)
        contexts = [contexts[i] for i in sorted(set(idx.tolist()))]
    return np.stack(contexts)


def decode_windows(
    target: ForecastModel,
    draft: ForecastModel | None,
    windows: list[TestWindow],
    cfg: DecodeConfig,
    run_seed: int,
):
    """Decode every window, window i at seed ``derive_seed(run_seed, i)``.

    Each context is the window's last ``target.lookback`` patches. Returns
    (forecasts stacked as (windows, horizon, d), traces, wall seconds).
    """
    pad = target.pad_patch()
    # The contexts are built before the clock starts, so the wall times
    # only the decodes.
    histories = [History.from_patches(win.context, target.lookback, pad) for win in windows]
    forecasts = []
    traces = []
    # Untimed warmup: first-call costs (the engine's session plan, lazy
    # imports, allocator growth) stay out of the measured wall.
    decode(target, draft, histories[0], cfg.with_seed(0))
    t0 = time.perf_counter()
    for w_idx, h0 in enumerate(histories):
        forecast, trace = decode(target, draft, h0, cfg.with_seed(rngmod.derive_seed(run_seed, w_idx)))
        forecasts.append(forecast)
        traces.append(trace)
    wall = time.perf_counter() - t0
    return np.stack(forecasts), traces, wall


def fit_system(spec: ExperimentSpec):
    """(target, drafts by scale, validation series, test windows) of a spec.

    Splits the spec's data chronologically, standardizes every split by the
    train split's statistics, fits the target and one draft per scale on
    the train split, and cuts up to ``spec.max_test_windows`` test windows
    of a target lookback of context each.
    """
    values = spec.data.load()
    train_vals, val_vals, test_vals = chronological_split(values, SPLIT)
    stats = NormStats.from_values(train_vals)
    train = PatchSeries.from_values(train_vals, spec.patch_len, stats)
    val = PatchSeries.from_values(val_vals, spec.patch_len, stats)
    test = PatchSeries.from_values(test_vals, spec.patch_len, stats)

    target = fit_linear_ar(train, spec.lookback, spec.ridge, scale=1.0)
    drafts = {scale: fit_linear_ar(train, spec.lookback, spec.ridge, scale=scale) for scale in spec.scales}
    windows = build_test_windows(test, target.lookback, spec.horizon_patches, spec.max_test_windows)
    return target, drafts, val, windows


def run_experiment(spec: ExperimentSpec) -> list[RunResult]:
    """Fit models, measure costs, decode the sweep; one ``point`` builds every row.

    Returns a target-only baseline row per (sigma, seed), then one RunResult
    per sweep point, ordered by spec coordinates. A speculative row's
    alpha_hat is the mean of ``overlap(Delta_i, spec.tolerance_lambda)``
    over the whitened gaps Delta_i of the two models' held-out means at sigma.
    """
    target, drafts, val, windows = fit_system(spec)
    timing_window = windows[0].context[None, :, :]
    costs = {scale: measure_cost_ratio(target, drafts[scale], timing_window) for scale in spec.scales}
    # One biased copy of each draft, shared by its acceptance estimate and
    # every decode that uses it.
    biased = {
        (scale, bias): dataclasses.replace(drafts[scale], mean_bias=float(bias))
        for scale in spec.scales for bias in spec.biases
    }
    # The held-out means do not depend on sigma: each model predicts them once.
    contexts = _alpha_contexts(val, target.lookback)
    mu_p = target.predict_means(contexts)
    mu_q = {key: draft.predict_means(contexts) for key, draft in biased.items()}
    truth = np.stack([w.truth for w in windows])
    base_walls: dict[tuple[float, int], float] = {}

    def point(variant: str, gamma: int, sigma: float, scale: float, bias: float, seed: int) -> RunResult:
        """Decode one sweep point of any variant and build its row.

        The target_only point of (sigma, seed) runs first: its wall is the
        one the other points' measured speedups divide.
        """
        baseline = variant == VARIANT_TARGET_ONLY
        # a baseline point has gamma 0, which its decode never reads
        cfg = DecodeConfig(variant=variant, horizon_patches=spec.horizon_patches, seed=0, gamma=max(gamma, 1),
                           tolerance_lambda=spec.tolerance_lambda, sigma_target=sigma, sigma_draft=sigma)
        forecasts, traces, wall = decode_windows(target, None if baseline else biased[scale, bias], windows, cfg, seed)
        base_wall = base_walls.setdefault((sigma, seed), wall)
        m = metrics(forecasts, truth)
        cost = None if baseline else costs[scale]
        row = dict(
            dataset=spec.data.name, variant=variant, gamma=gamma, sigma=sigma, scale=scale, bias=bias,
            seed=seed, mse=m["mse"], mae=m["mae"], n_windows=len(windows),
            horizon_patches=spec.horizon_patches, cost=cost,
            s_wall_measured=base_wall / wall if wall > 0 else float("nan"), wall_seconds=wall,
        )
        if variant in (VARIANT_PRACTICAL, VARIANT_LOSSLESS):
            deltas = whitened_gap(mu_p, mu_q[scale, bias], sigma * sigma)
            alpha = float(np.mean(overlap(deltas, spec.tolerance_lambda)))
            lengths = np.concatenate([t.round_lengths() for t in traces])
            accepted = np.concatenate([t.accepted_counts() for t in traces])
            proposals = sum(int(t.examined_counts().sum()) for t in traces)
            total_target = sum(t.totals.target_passes for t in traces)
            total_draft = sum(t.totals.draft_passes for t in traces)
            total_patches = sum(t.totals.patches_emitted for t in traces)
            row.update(
                alpha_hat=alpha,
                n_histories=len(contexts),
                alpha_empirical=int(accepted.sum()) / proposals if proposals else None,
                mean_n=float(accepted.mean()),
                mean_l=float(lengths.mean()),
                e_l_pred=expected_block_length(alpha, gamma),
                s_wall_pred=speedup_wall(alpha, gamma, cost.c),
                ops_factor_pred=ops_factor(alpha, gamma, cost.c_hat),
                ops_factor_meas=(cost.c_hat * total_draft + total_target) / total_patches,
            )
        return RunResult(**row)

    results = [point(VARIANT_TARGET_ONLY, 0, sigma, 1.0, 0.0, seed) for sigma in spec.sigmas for seed in spec.seeds]
    for variant in spec.variants:
        if variant != VARIANT_TARGET_ONLY:  # its rows are the baselines above
            gammas = (0,) if variant == VARIANT_DRAFT_ONLY else spec.gammas
            keys = itertools.product(gammas, spec.sigmas, spec.scales, spec.biases, spec.seeds)
            results += [point(variant, *key) for key in keys]
    return results


# ---------------------------------------------------------------------------
# Calibration and trade-off tables.
# ---------------------------------------------------------------------------


@dataclass
class CalibrationTable:
    """The results that carry predictions, and the relative gap above which a row is flagged."""

    rows: list[RunResult]
    flag_threshold: float

    def flagged(self, r: RunResult) -> bool:
        return any(gap > self.flag_threshold for gap in r.rel_gaps())

    @property
    def any_flagged(self) -> bool:
        return any(self.flagged(r) for r in self.rows)

    def to_json(self) -> str:
        """Per row: the point's keys, the predicted and measured figures, both gaps and the flag."""
        keys = ("dataset", "variant", "gamma", "sigma", "scale", "bias", "seed", "alpha_hat",
                "e_l_pred", "s_wall_pred", "ops_factor_pred", "mean_n", "mean_l", "s_wall_measured",
                "ops_factor_meas")
        rows = []
        for r in self.rows:
            row = {k: getattr(r, k) for k in keys}
            row["e_l_rel_gap"], row["s_wall_rel_gap"] = r.rel_gaps()
            row["flagged"] = self.flagged(r)
            rows.append(row)
        return json.dumps({"flag_threshold": self.flag_threshold, "rows": rows}, sort_keys=True)

    def render_text(self) -> str:
        header = (
            f"{'dataset':<18} {'variant':<10} {'g':>2} {'sigma':>6} {'scale':>5} {'bias':>5} "
            f"{'alpha^':>7} {'E[L]pred':>8} {'n-meas':>7} {'L-meas':>7} "
            f"{'S pred':>7} {'S meas':>7} {'flag':>5}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.dataset:<18} {r.variant:<10} {r.gamma:>2d} {r.sigma:>6.3f} {r.scale:>5.2f} "
                f"{r.bias:>5.2f} {r.alpha_hat:>7.4f} {r.e_l_pred:>8.3f} {r.mean_n:>7.3f} "
                f"{r.mean_l:>7.3f} {r.s_wall_pred:>7.3f} {r.s_wall_measured:>7.3f} "
                f"{'YES' if self.flagged(r) else '':>5}"
            )
        return "\n".join(lines)


def calibrate(results: list[RunResult], flag_threshold: float = 0.25) -> CalibrationTable:
    """Predicted-vs-measured table of the results that carry predictions.

    Both the accepted-run mean (n) and the output-length mean (L) appear,
    since measured block statistics are reported under either convention.
    """
    return CalibrationTable([r for r in results if r.e_l_pred is not None], flag_threshold)


def tradeoff_table(results: list[RunResult]) -> list[tuple[RunResult, RunResult]]:
    """(result, matching target-only baseline) pairs, by measured speedup."""
    baselines = {
        (r.dataset, r.sigma, r.seed): r
        for r in results
        if r.variant == VARIANT_TARGET_ONLY
    }
    pairs = []
    for res in results:
        if res.variant == VARIANT_TARGET_ONLY:
            continue
        key = (res.dataset, res.sigma, res.seed)
        if key not in baselines:
            raise ValueError(f"missing target_only baseline for {key}")
        pairs.append((res, baselines[key]))
    pairs.sort(key=lambda pair: pair[0].s_wall_measured)
    return pairs


def render_tradeoff(pairs: list[tuple[RunResult, RunResult]]) -> str:
    header = (
        f"{'dataset':<18} {'variant':<10} {'g':>2} {'sigma':>6} {'scale':>5} "
        f"{'MSE':>9} {'dMSE%':>7} {'S meas':>7}"
    )
    lines = [header, "-" * len(header)]
    for r, base in pairs:
        lines.append(
            f"{r.dataset:<18} {r.variant:<10} {r.gamma:>2d} {r.sigma:>6.3f} {r.scale:>5.2f} "
            f"{r.mse:>9.4f} {100.0 * (r.mse - base.mse) / base.mse:>7.2f} {r.s_wall_measured:>7.3f}"
        )
    return "\n".join(lines)


def render_results(results: list[RunResult]) -> str:
    header = (
        f"{'dataset':<18} {'variant':<11} {'g':>2} {'sigma':>6} {'scale':>5} {'bias':>5} "
        f"{'MSE':>9} {'MAE':>9} {'alpha^':>7} {'emp':>7} {'L-meas':>7} "
        f"{'c':>6} {'S pred':>7} {'S meas':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        alpha = f"{r.alpha_hat:.4f}" if r.alpha_hat is not None else "--"
        emp = f"{r.alpha_empirical:.4f}" if r.alpha_empirical is not None else "--"
        mean_l = f"{r.mean_l:.3f}" if r.mean_l is not None else "--"
        c = f"{r.cost.c:.3f}" if r.cost is not None else "--"
        s_pred = f"{r.s_wall_pred:.3f}" if r.s_wall_pred is not None else "--"
        lines.append(
            f"{r.dataset:<18} {r.variant:<11} {r.gamma:>2d} {r.sigma:>6.3f} {r.scale:>5.2f} "
            f"{r.bias:>5.2f} {r.mse:>9.4f} {r.mae:>9.4f} {alpha:>7} {emp:>7} {mean_l:>7} "
            f"{c:>6} {s_pred:>7} {r.s_wall_measured:>7.3f}"
        )
    return "\n".join(lines)


def pick_saturation_sigma(results: list[RunResult]) -> float:
    """Smallest sigma whose practical held-out acceptance estimate reaches
    SATURATION_ALPHA, else the sigma of the highest estimate."""
    candidates = [
        (r.sigma, r.alpha_hat)
        for r in results
        if r.variant == VARIANT_PRACTICAL and r.alpha_hat is not None
    ]
    if not candidates:
        raise ValueError("no rows with acceptance estimates")
    saturated = sorted(s for s, a in candidates if a >= SATURATION_ALPHA)
    if saturated:
        return saturated[0]
    return max(candidates, key=lambda t: t[1])[0]
