"""Experiment harness: the cost measurement and the spec document."""

import json
import warnings

import pytest

from speccast.analysis import COST_MEASURED
from speccast.harness import TIMING_PASSES, DataSpec, ExperimentSpec, measure_cost_ratio
from speccast.models import fit_linear_ar, persistence_model
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


class TestMeasureCostRatio:
    def test_linear_pair_is_measured(self):
        series = PatchSeries.from_values(ar1(8192, n_channels=2, phi=0.8, seed=1), patch_len=16)
        target = fit_linear_ar(series, lookback=16)
        draft = fit_linear_ar(series, lookback=16, scale=0.25)
        window = series.channel_patches(0)[:16][None]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cost = measure_cost_ratio(target, draft, window)
        # a timer warning depends on the host's speed; no other warning is raised
        assert all("timer resolution" in str(w.message) for w in caught)
        assert cost.source == COST_MEASURED
        assert cost.n_timed_passes == TIMING_PASSES
        assert cost.c == cost.draft_pass_seconds / cost.target_pass_seconds
        assert cost.c_hat == draft.param_count / target.param_count

    @pytest.mark.filterwarnings("ignore:target pass medians:UserWarning")
    def test_persistence_pair_takes_the_timed_ratio(self):
        # no parameters to count, so c_hat is the timed ratio as well
        target = persistence_model(patch_len=4)
        draft = persistence_model(patch_len=4, mean_bias=0.3)
        window = ar1(16, seed=2).reshape(4, 4)
        cost = measure_cost_ratio(target, draft, window)
        assert cost.source == COST_MEASURED
        assert cost.c == cost.draft_pass_seconds / cost.target_pass_seconds
        assert cost.c_hat == max(cost.c, 1e-9)


class TestSpecDocument:
    def test_parent_spec_loads_and_round_trips(self):
        spec = ExperimentSpec.from_dict(PARENT_SPEC)
        doc = spec.to_dict()
        assert set(doc) == set(PARENT_SPEC) - RETIRED
        assert json.loads(json.dumps(doc)) == {k: PARENT_SPEC[k] for k in doc}
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

    def test_unknown_or_missing_keys_are_named(self):
        doc = ExperimentSpec(DataSpec(synthetic=SyntheticSpec()), 8, 4, 32).to_dict()
        with pytest.raises(ValueError, match=r"unknown spec key\(s\): 'bogus', 'sigma'$"):
            ExperimentSpec.from_dict({**doc, "sigma": 0.5, "bogus": 1})
        with pytest.raises(ValueError, match=r"lacks required key\(s\): 'data'$"):
            ExperimentSpec.from_dict({k: v for k, v in doc.items() if k != "data"})
        with pytest.raises(ValueError, match=r"lacks required key\(s\): 'patch_len', 'lookback'$"):
            ExperimentSpec.from_dict({k: v for k, v in doc.items() if k not in ("patch_len", "lookback")})
