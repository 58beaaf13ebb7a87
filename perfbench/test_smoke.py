"""Tiny run of every benchmark workload, untraced and traced.

Runs a reduced fit, a few windows and a capped number of session triples,
and checks that every metric BENCHMARK.json declares is emitted as a finite
value and that the output checks ran and passed.
"""

import json
import math
import os

import pytest

from perfbench import bench
from perfbench.workloads import SMOKE, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    result = bench.run(workload, seed=5, seconds=60.0, trace=trace, scale=SMOKE)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"]), m["name"]
    if not trace:
        assert all(metrics[m["name"]]["value"] != 0 for m in declared)

    checks = result["checks"]
    assert {"forecast_finite_shape", "replay_bit_identical"} <= set(checks)
    if workload == "forecast-aligned":
        assert "practical_mse_ratio_le_1.25" in checks
    if workload == "mc-sessions":
        assert {
            "practical_mean_L_within_4se",
            "lossless_mean_L_within_4se",
            "ks_lossless_vs_target_only_p_ge_1e-3",
        } <= set(checks)
    assert all(checks.values()), checks
    assert result["correct"]

    assert result["attempted"] == 3 * SMOKE.max_triples
    assert result["failed"] == 0
    env = result["environment"]
    for key in ("seed", "OPENBLAS_NUM_THREADS", "numpy", "scipy", "blas", "kernels_backend",
                "nproc", "loadavg_start", "loadavg_end", "sessions"):
        assert key in env
    if trace:
        assert result["spans"] is not None and len(result["spans"].start) > 0


def test_tracing_restores_patched_attributes():
    from speccast import engine, kernels, models

    before = (kernels.round_accept, engine.residual_sample, models.ForecastModel.mean_batch)
    bench.run("mc-sessions", seed=1, seconds=60.0, trace=True, scale=SMOKE)
    assert (kernels.round_accept, engine.residual_sample, models.ForecastModel.mean_batch) == before


def test_failed_sessions_are_counted(monkeypatch):
    from speccast import rng as rngmod

    original = bench.decode
    first_seed = rngmod.derive_seed(2, 1)  # seed of the run's first measured session

    def flaky(target, draft, h0, cfg):
        index = cfg.seed - first_seed
        if cfg.variant == "lossless" and 0 <= index < SMOKE.max_triples and index % 4 == 0:
            raise RuntimeError("injected")
        return original(target, draft, h0, cfg)

    monkeypatch.setattr(bench, "decode", flaky)
    result = bench.run("mc-sessions", seed=2, seconds=60.0, trace=False, scale=SMOKE)
    failures = result["environment"]["failures"]
    assert result["failed"] > 0
    assert failures["lossless"]["by_type"] == {"RuntimeError": result["failed"]}
    assert failures["lossless"]["failed_frac"] == pytest.approx(result["failed"] / SMOKE.max_triples)
    assert failures["practical"]["failed_frac"] == 0.0
    assert result["correct"]
