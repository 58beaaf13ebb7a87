"""Experiment harness: the cost measurement, the spec document and the sweep record."""

import dataclasses
import json
import types
import warnings

import numpy as np
import pytest

from speccast import harness
from speccast import rng as rngmod
from speccast.analysis import (
    CostModel,
    deviation_bounds,
    estimate_alpha,
    expected_block_length,
    ops_factor,
    speedup_wall,
)
from speccast.engine import DecodeConfig, decode
from speccast.harness import (
    TIMING_PASSES,
    DataSpec,
    ExperimentSpec,
    RunResult,
    build_test_windows,
    calibrate,
    decode_windows,
    measure_cost_ratio,
    run_experiment,
)
from speccast.models import History, effective_lookback, fit_linear_ar, persistence_model
from speccast.prob import GaussianHead, whitened_gap
from speccast.series import PatchSeries
from speccast.synth import SyntheticSpec

from helpers import ar1

# The resolved spec of a scan manifest written before the retired keys went:
# every one of them is at the only value it ever held.
PARENT_SPEC = {
    "biases": [0.0], "cost_c": None, "cost_c_hat": None,
    "data": {
        "channel_cols": None, "csv_path": None, "timestamp_col": None,
        "synthetic": {
            "ar_coeff": 0.9, "ar_std": 0.25, "n_channels": 2, "n_harmonics": 3, "n_steps": 6000,
            "obs_noise": 0.0, "season_amp": 1.0, "season_len": 64, "seed": 2024,
        },
    },
    "fit_sample_stride": 1, "gammas": [2, 3], "horizon_steps": 32, "lookback": 4,
    "max_test_windows": 3, "n_alpha_histories": 512, "patch_len": 8, "ridge": 0.001,
    "scales": [0.25], "seeds": [0], "sigmas": [0.5, 1.0], "split": [0.6, 0.2, 0.2],
    "timing_passes": 200, "tolerance_lambda": 1.0, "variants": ["practical", "lossless", "draft_only"],
}
RETIRED = {"split", "cost_c", "cost_c_hat", "n_alpha_histories", "timing_passes", "fit_sample_stride"}
RETIRED_SYNTH = {"season_amp", "n_harmonics", "obs_noise"}


class TestMeasureCostRatio:
    def test_linear_pair_is_measured(self):
        series = PatchSeries.from_values(ar1(8192, n_channels=2, phi=0.8, seed=1), patch_len=16)
        target = fit_linear_ar(series, lookback=16)
        draft = fit_linear_ar(series, lookback=16, scale=0.25)
        window = series.channel_patches(0)[:16][None]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cost = measure_cost_ratio(target, draft, window)
        # however fast the host, nothing warns: the cost records the pass medians
        assert caught == []
        assert cost.n_timed_passes == TIMING_PASSES
        assert cost.c == cost.draft_pass_seconds / cost.target_pass_seconds
        assert cost.c_hat == draft.param_count / target.param_count

    def test_persistence_pair_takes_the_timed_ratio(self):
        # no parameters to count, so c_hat is the timed ratio as well
        target = persistence_model(patch_len=4)
        draft = persistence_model(patch_len=4, mean_bias=0.3)
        window = ar1(16, seed=2).reshape(4, 4)
        cost = measure_cost_ratio(target, draft, window)
        assert cost.c == cost.draft_pass_seconds / cost.target_pass_seconds
        assert cost.c_hat == max(cost.c, 1e-9)


class TestDecodeWindows:
    def test_wall_times_only_the_decodes(self, monkeypatch):
        # Each context build advances a fake clock by a second and nothing
        # else moves it, so a wall that timed a build would not read 0.
        series = PatchSeries.from_values(ar1(2000, seed=2), patch_len=4)
        target = fit_linear_ar(series, lookback=4)
        draft = fit_linear_ar(series, lookback=4, scale=0.5)
        windows = build_test_windows(series, 4, 3, 5)
        cfg = DecodeConfig(variant="practical", horizon_patches=3, seed=0, gamma=2, sigma_target=1.0, sigma_draft=1.0)
        want = [
            decode(target, draft, History.from_patches(w.context, 4, target.pad_patch()),
                   cfg.with_seed(rngmod.derive_seed(7, i)))
            for i, w in enumerate(windows)
        ]
        clock = [0.0]
        build = History.from_patches.__func__

        def timed_build(cls, *args):
            clock[0] += 1.0
            return build(cls, *args)

        monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(History, "from_patches", classmethod(timed_build))
        forecasts, traces, wall = decode_windows(target, draft, windows, cfg, 7)
        assert clock[0] == len(windows) and wall == 0.0
        for (forecast, trace), got, got_trace in zip(want, forecasts, traces, strict=True):
            assert got.tobytes() == forecast.tobytes()
            assert got_trace.round_dicts() == trace.round_dicts()


class TestSpecDocument:
    def test_parent_spec_loads_and_round_trips(self):
        spec = ExperimentSpec.from_dict(PARENT_SPEC)
        doc = spec.to_dict()
        assert set(doc) == set(PARENT_SPEC) - RETIRED
        synthetic = {k: v for k, v in PARENT_SPEC["data"]["synthetic"].items() if k not in RETIRED_SYNTH}
        want = {**{k: PARENT_SPEC[k] for k in doc}, "data": {**PARENT_SPEC["data"], "synthetic": synthetic}}
        assert json.loads(json.dumps(doc)) == want
        assert ExperimentSpec.from_dict(doc) == spec
        assert ExperimentSpec.from_dict(json.loads(json.dumps(doc))) == spec

    @pytest.mark.parametrize(
        "key,value",
        [("split", [0.5, 0.25, 0.25]), ("cost_c", 0.3), ("cost_c_hat", 0.1),
         ("n_alpha_histories", 64), ("timing_passes", 50), ("fit_sample_stride", 2)],
    )
    def test_retired_key_at_another_value_is_refused(self, key, value):
        with pytest.raises(ValueError, match=f"spec key '{key}' is retired"):
            ExperimentSpec.from_dict({**PARENT_SPEC, key: value})

    def test_a_negative_ridge_is_refused_before_any_data_is_made(self, monkeypatch):
        def refuse(self):
            raise AssertionError("generated data")
        monkeypatch.setattr(SyntheticSpec, "generate", refuse)
        with pytest.raises(ValueError, match=r"^ridge must be finite and >= 0, got -1$"):
            harness.fit_system(ExperimentSpec.from_dict({**PARENT_SPEC, "ridge": -1}))

    def test_unknown_or_missing_keys_are_named(self):
        doc = ExperimentSpec(DataSpec(synthetic=SyntheticSpec()), 8, 4, 32).to_dict()
        with pytest.raises(ValueError, match=r"unknown spec key\(s\): 'bogus', 'sigma'$"):
            ExperimentSpec.from_dict({**doc, "sigma": 0.5, "bogus": 1})
        with pytest.raises(ValueError, match=r"lacks required key\(s\): 'data'$"):
            ExperimentSpec.from_dict({k: v for k, v in doc.items() if k != "data"})
        with pytest.raises(ValueError, match=r"lacks required key\(s\): 'patch_len', 'lookback'$"):
            ExperimentSpec.from_dict({k: v for k, v in doc.items() if k not in ("patch_len", "lookback")})


class TestSpecRanges:
    def test_degenerate_sizes_are_refused_where_they_are_used(self):
        series = PatchSeries.from_values(ar1(400, seed=3), patch_len=4)
        with pytest.raises(ValueError, match=r"horizon_patches must be >= 1, got 0$"):
            build_test_windows(series, 4, 0, 8)
        with pytest.raises(ValueError, match=r"lookback must be >= 1, got 0$"):
            effective_lookback(0, 1.0)
        with pytest.raises(ValueError, match=r"lookback must be >= 1, got 0$"):
            fit_linear_ar(series, lookback=0)


def _record(**kw):
    """A practical sweep point with predictions and measurements."""
    base = dict(
        dataset="d", variant="practical", gamma=3, sigma=1.0, scale=0.25, bias=0.0, seed=0,
        mse=1.0, mae=1.0, n_windows=1, horizon_patches=4, alpha_hat=0.8, n_histories=64,
        alpha_empirical=0.75, mean_n=1.8, mean_l=2.8, cost=CostModel(c=0.25, c_hat=0.25),
        e_l_pred=expected_block_length(0.8, 3), s_wall_pred=speedup_wall(0.8, 3, 0.25),
        ops_factor_pred=ops_factor(0.8, 3, 0.25), s_wall_measured=1.4, ops_factor_meas=1.6,
        wall_seconds=0.1,
    )
    return RunResult(**{**base, **kw})


# The tiny CLI sweep: one channel, 8-step patches, 3 test windows.
TINY = ExperimentSpec(
    DataSpec(synthetic=SyntheticSpec(n_steps=6000, n_channels=1, season_len=64, ar_std=0.25)), 8, 4, 32,
    sigmas=(0.5,), gammas=(2, 3), variants=("practical", "lossless"), max_test_windows=3,
)


@pytest.fixture(scope="module")
def sweep():
    return run_experiment(TINY)


class TestRunResult:
    def test_predictions_come_from_the_laws(self, sweep):
        speculative = [r for r in sweep if r.variant != "target_only"]
        assert [(r.variant, r.gamma) for r in speculative] == [
            ("practical", 2), ("practical", 3), ("lossless", 2), ("lossless", 3)
        ]
        for r in speculative:
            assert r.e_l_pred == expected_block_length(r.alpha_hat, r.gamma)
            assert r.s_wall_pred == speedup_wall(r.alpha_hat, r.gamma, r.cost.c)
            assert r.ops_factor_pred == ops_factor(r.alpha_hat, r.gamma, r.cost.c_hat)
            assert r.mean_l == pytest.approx(r.mean_n + 1, abs=1e-12)
            assert r.n_histories > 0 and 0 <= r.alpha_empirical <= 1
        e_gap, s_gap = speculative[0].rel_gaps()
        r = speculative[0]
        assert e_gap == abs(r.e_l_pred - r.mean_l) / r.e_l_pred
        assert s_gap == abs(r.s_wall_pred - r.s_wall_measured) / r.s_wall_pred
        # the baseline row carries neither cost nor predictions
        assert [(r.cost, r.alpha_hat, r.e_l_pred) for r in sweep if r.variant == "target_only"] == [(None,) * 3]

    def test_calibration_rows_take_the_record_gaps(self):
        close, far = _record(mean_l=2.9, s_wall_measured=1.6), _record()
        baseline = _record(variant="target_only", gamma=0, cost=None, alpha_hat=None, n_histories=None,
                           alpha_empirical=None, mean_n=None, mean_l=None, e_l_pred=None,
                           s_wall_pred=None, ops_factor_pred=None, ops_factor_meas=None)
        table = calibrate([baseline, close, far], flag_threshold=0.1)
        assert table.rows == [close, far]  # only the rows with predictions
        assert [table.flagged(r) for r in table.rows] == [max(r.rel_gaps()) > 0.1 for r in table.rows]
        assert [table.flagged(r) for r in table.rows] == [False, True] and table.any_flagged
        doc = json.loads(table.to_json())
        assert doc["flag_threshold"] == 0.1
        row = doc["rows"][1]
        assert (row["e_l_rel_gap"], row["s_wall_rel_gap"], row["flagged"]) == (*far.rel_gaps(), True)
        assert {k: row[k] for k in ("variant", "gamma", "e_l_pred", "mean_l", "s_wall_measured")} == {
            "variant": "practical", "gamma": 3, "e_l_pred": far.e_l_pred, "mean_l": 2.8, "s_wall_measured": 1.4
        }

    def test_dict_roundtrip(self):
        r = _record()
        doc = json.loads(json.dumps(r.to_dict()))
        assert RunResult.from_dict(doc) == r
        assert RunResult.from_dict(doc).determinism_digest() == r.determinism_digest()
        # timing figures stay out of the digest; every other figure is in it
        assert _record(wall_seconds=9.0, s_wall_measured=0.1).determinism_digest() == r.determinism_digest()
        assert _record(mean_l=2.9).determinism_digest() != r.determinism_digest()
        with pytest.raises(ValueError, match=r"unknown run result key\(s\): 'bogus'$"):
            RunResult.from_dict({**doc, "bogus": 1})
        with pytest.raises(ValueError, match=r"run result lacks required key\(s\): 'mse'$"):
            RunResult.from_dict({k: v for k, v in doc.items() if k != "mse"})
        with pytest.raises(ValueError, match=r"unknown cost key\(s\): 'bogus'$"):
            RunResult.from_dict({**doc, "cost": {**doc["cost"], "bogus": 1}})
        # a line written when every cost carried "source": "measured" loads
        assert RunResult.from_dict({**doc, "cost": {**doc["cost"], "source": "measured"}}) == r
        with pytest.raises(ValueError, match=r"^cost key 'source' is retired"):
            RunResult.from_dict({**doc, "cost": {**doc["cost"], "source": "configured"}})


class TestAcceptanceEstimate:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_alpha_hat_is_the_mean_acceptance_at_the_spec_lambda(self, lam):
        # alpha_hat averages E_q[min(1, lambda p/q)] over the held-out gaps:
        # the closed form of deviation_bounds at lambda != 1, and at
        # lambda = 1 estimate_alpha over the head pairs, to the bit.
        spec = dataclasses.replace(TINY, sigmas=(0.5, 1.0), gammas=(3,), variants=("practical",),
                                   biases=(0.0, 0.3), tolerance_lambda=lam)
        rows = [r for r in run_experiment(spec) if r.variant == "practical"]
        target, drafts, val, _ = harness.fit_system(spec)
        contexts = harness._alpha_contexts(val, target.lookback)
        mu_p = target.predict_means(contexts)
        assert len(rows) == 4
        for r in rows:
            mu_q = dataclasses.replace(drafts[r.scale], mean_bias=r.bias).predict_means(contexts)
            var = r.sigma * r.sigma
            assert r.n_histories == len(contexts)
            if lam == 1.0:
                pairs = [(GaussianHead(p, var), GaussianHead(q, var)) for p, q in zip(mu_p, mu_q)]
                assert r.alpha_hat == estimate_alpha(pairs).alpha_bar_hat
            else:
                want = np.mean([deviation_bounds(delta, lam).alpha_bar for delta in whitened_gap(mu_p, mu_q, var)])
                assert r.alpha_hat == pytest.approx(want, rel=0, abs=1e-12)
                assert r.alpha_hat <= min(1.0, lam)
            assert r.e_l_pred == expected_block_length(r.alpha_hat, r.gamma)
