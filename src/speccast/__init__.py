"""Speculative decoding for autoregressive time-series patch models.

A draft forecaster proposes blocks of future patches; a target forecaster
validates all block prefixes in one batched pass and keeps the accepted run.
The package provides the decode engine (practical fallback-to-target and
lossless residual-sampling variants), the closed-form performance predictors
with concentration radii, the overlap law and the deviation bounds in closed
form as functions of the whitened mean gap (``whitened_gap``, ``overlap``,
``deviation_bounds``), and an experiment harness that calibrates predictions
against measurements.
"""

__version__ = "0.1.0"

from .analysis import (
    AcceptanceEstimate,
    CostModel,
    DeviationBounds,
    GammaChoice,
    block_length_pmf,
    dependence_interval,
    deviation_bounds,
    estimate_alpha,
    expected_block_length,
    horizon_tv_bound,
    lossless_worthwhile,
    ops_factor,
    select_gamma,
    speedup_wall,
)
from .engine import DecodeAborted, DecodeConfig, DecodeTrace, decode
from .harness import (
    DataSpec,
    ExperimentSpec,
    RunResult,
    calibrate,
    run_experiment,
    tradeoff_table,
)
from .models import (
    ForecastModel,
    History,
    fit_linear_ar,
    load_model,
    persistence_model,
    save_model,
)
from .prob import (
    GaussianHead,
    gap_for_overlap,
    overlap,
    residual_sample,
    whitened_gap,
)
from .series import CsvSchema, NormStats, PatchSeries, load_csv, metrics
