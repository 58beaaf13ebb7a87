"""Decode loop: prefix acceptance, run lengths, determinism, pass accounting."""

import collections
import dataclasses
import json
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from speccast import engine, kernels
from speccast import rng as rngmod
from speccast.engine import (
    SOURCE_BASELINE,
    SOURCE_EXTEND,
    SOURCE_FALLBACK,
    SOURCE_RESIDUAL,
    SOURCES,
    DecodeAborted,
    DecodeConfig,
    Totals,
    decode,
)
from speccast.models import ForecastModel, History, fit_linear_ar, load_model, persistence_model, save_model
from speccast.prob import GaussianHead, gap_for_overlap
from speccast.series import PatchSeries, metrics
from speccast.synth import SyntheticSpec
from helpers import ar1
from test_prob import assert_close_vector, reference_residual_sample
from test_series_models import oracle_ar1


def make_pair(d=1, sigma=1.0, gap=0.8):
    target = persistence_model(patch_len=d, sigma=sigma)
    draft = persistence_model(patch_len=d, sigma=sigma, mean_bias=gap)
    h0 = History.from_patches(np.zeros((1, d)), 1)
    return target, draft, h0


def cfg_for(variant, horizon=40, gamma=3, seed=11, sigma=1.0, **kw):
    return DecodeConfig(
        variant=variant,
        horizon_patches=horizon,
        seed=seed,
        gamma=gamma,
        sigma_target=sigma,
        sigma_draft=sigma,
        **kw,
    )


class TestSelfSpeculation:
    def test_all_accepted_full_blocks(self):
        target, _, h0 = make_pair()
        cfg = cfg_for("practical", horizon=24)
        forecast, trace = decode(target, target, h0, cfg)
        assert np.all(trace.round_lengths() == cfg.gamma + 1)
        for rd in trace.round_dicts():
            assert rd["source"] == SOURCE_EXTEND
            for p in rd["proposals"]:
                assert p["alpha"] == pytest.approx(1.0, abs=1e-12)
                assert p["accepted"]

    def test_practical_equals_lossless_bitwise(self):
        target, _, h0 = make_pair(d=3)
        fp, tp = decode(target, target, h0, cfg_for("practical", horizon=20))
        fl, tl = decode(target, target, h0, cfg_for("lossless", horizon=20))
        assert np.array_equal(fp, fl)
        assert tp.round_lengths().tolist() == tl.round_lengths().tolist()


class TestRoundStructure:
    @pytest.mark.parametrize("variant", ["practical", "lossless"])
    def test_prefix_acceptance_and_length(self, variant):
        target, draft, h0 = make_pair(gap=1.2)
        cfg = cfg_for(variant, horizon=200, gamma=4, seed=3)
        _, trace = decode(target, draft, h0, cfg)
        for rd in trace.round_dicts():
            flags = [p["accepted"] for p in rd["proposals"]]
            n = rd["n"]
            assert flags == [True] * n + [False] * (len(flags) - n)
            assert len(flags) - n in (0, 1)
            assert rd["L"] == n + 1
            assert 1 <= rd["L"] <= cfg.gamma + 1
            if n == cfg.gamma:
                assert rd["source"] == SOURCE_EXTEND
            elif variant == "practical":
                assert rd["source"] == SOURCE_FALLBACK
            else:
                assert rd["source"] == SOURCE_RESIDUAL

    def test_totals_and_pass_accounting(self):
        target, draft, h0 = make_pair()
        cfg = cfg_for("practical", horizon=50, gamma=3)
        forecast, trace = decode(target, draft, h0, cfg)
        rounds = len(trace.rounds)
        assert trace.totals.target_passes == rounds * (cfg.gamma + 1)
        assert trace.totals.draft_passes == rounds * cfg.gamma
        assert trace.totals.target_batch_calls == rounds
        assert trace.totals.patches_emitted == int(trace.round_lengths().sum())
        assert forecast.shape == (50, 1)
        assert trace.truncated_patches == trace.totals.patches_emitted - 50

    @pytest.mark.parametrize("variant", engine.VARIANTS)
    def test_trace_counts_match_its_rounds(self, variant):
        # Totals, truncation and examined counts, rebuilt from the exported
        # rounds, on sessions whose last round overshoots the horizon of 10
        target, draft, h0 = make_pair(gap=0.3)
        speculative = variant in ("practical", "lossless")
        truncated = 0
        for seed in range(8):
            _, trace = decode(target, draft, h0, cfg_for(variant, horizon=10, gamma=3, seed=seed))
            rounds = trace.round_dicts()
            r, emitted = len(rounds), sum(d["L"] for d in rounds)
            assert trace.round_lengths().tolist() == [d["L"] for d in rounds]
            assert trace.examined_counts().tolist() == [len(d["proposals"]) for d in rounds]
            if speculative:
                assert [len(d["proposals"]) for d in rounds] == [min(d["n"] + 1, 3) for d in rounds]
                want = Totals(target_passes=4 * r, draft_passes=3 * r, target_batch_calls=r,
                              patches_emitted=emitted)
            elif variant == "target_only":
                want = Totals(target_passes=r, patches_emitted=emitted)
            else:
                want = Totals(draft_passes=r, patches_emitted=emitted)
            assert trace.totals == want
            assert trace.truncated_patches == emitted - 10
            assert trace.summary_dict()["totals"] == dataclasses.asdict(want)
            truncated += trace.truncated_patches > 0
        assert truncated > 0 if speculative else truncated == 0

    def test_horizon_truncation_preserves_prefix(self):
        target, draft, h0 = make_pair()
        long_cfg = cfg_for("practical", horizon=60, seed=5)
        short_cfg = cfg_for("practical", horizon=23, seed=5)
        f_long, t_long = decode(target, draft, h0, long_cfg)
        f_short, t_short = decode(target, draft, h0, short_cfg)
        assert np.array_equal(f_long[:23], f_short)
        n_short = len(t_short.rounds)
        for a, b in zip(t_long.rounds[: n_short - 1], t_short.rounds[: n_short - 1]):
            assert a.outputs_emitted == b.outputs_emitted
            assert a.n_accepted == b.n_accepted


class TestDeterminism:
    @pytest.mark.parametrize("variant", ["practical", "lossless", "target_only"])
    def test_bit_identical_replay(self, variant):
        target, draft, h0 = make_pair(d=2, gap=0.9)
        cfg = cfg_for(variant, horizon=30, seed=17)
        f1, t1 = decode(target, draft, h0, cfg)
        f2, t2 = decode(target, draft, h0, cfg)
        assert np.array_equal(f1, f2)
        assert json.dumps(t1.round_dicts()) == json.dumps(t2.round_dicts())

    def test_seed_changes_draws(self):
        target, draft, h0 = make_pair()
        f1, _ = decode(target, draft, h0, cfg_for("practical", seed=1))
        f2, _ = decode(target, draft, h0, cfg_for("practical", seed=2))
        assert not np.array_equal(f1, f2)

    def test_common_random_numbers_shared_prefix(self):
        # both variants propose the same patches and see the same uniforms,
        # so rounds agree exactly up to each round's first rejection
        target, draft, h0 = make_pair(gap=1.0)
        _, tp = decode(target, draft, h0, cfg_for("practical", horizon=4, seed=9))
        _, tl = decode(target, draft, h0, cfg_for("lossless", horizon=4, seed=9))
        p0, l0 = tp.round_dicts()[0], tl.round_dicts()[0]
        assert p0["n"] == l0["n"]
        for a, b in zip(p0["proposals"], l0["proposals"]):
            assert (a["x"], a["u"]) == (b["x"], b["u"])


class TestBaselines:
    def test_one_pass_per_patch(self):
        target, _, h0 = make_pair()
        cfg = cfg_for("target_only", horizon=10)
        forecast, trace = decode(target, None, h0, cfg)
        assert trace.totals.target_passes == 10
        assert trace.totals.patches_emitted == 10
        assert forecast.shape == (10, 1)
        assert all(r.final_draw_source == SOURCE_BASELINE for r in trace.rounds)
        assert all(r.outputs_emitted == 1 and r.n_accepted == 0 for r in trace.rounds)

    def test_draft_only_counts_draft_passes(self):
        target, draft, h0 = make_pair()
        cfg = cfg_for("draft_only", horizon=7)
        _, trace = decode(target, draft, h0, cfg)
        assert trace.totals.draft_passes == 7
        assert trace.totals.target_passes == 0

    def test_deterministic(self):
        target, _, h0 = make_pair()
        cfg = cfg_for("target_only", horizon=12, seed=8)
        f1, _ = decode(target, None, h0, cfg)
        f2, _ = decode(target, None, h0, cfg)
        assert np.array_equal(f1, f2)

    def test_tiny_sigma_tracks_truth_on_seasonal(self):
        values = SyntheticSpec(4096, n_channels=1, season_len=16, ar_std=0.0, seed=3).generate()
        series = PatchSeries.from_values(values, patch_len=16)
        model = fit_linear_ar(series, lookback=2, ridge=1e-8)
        patches = series.channel_patches(0)
        h0 = History.from_patches(patches[:64], 2, model.pad_patch())
        cfg = DecodeConfig(
            variant="target_only", horizon_patches=8, seed=0, sigma_target=1e-5
        )
        forecast, _ = decode(model, None, h0, cfg)
        truth = patches[64:72]
        assert metrics(forecast, truth)["mse"] < 1e-8


class TestDegradedDraft:
    def test_huge_gap_mean_length_collapses(self):
        target, draft, h0 = make_pair(gap=25.0)
        cfg = cfg_for("practical", horizon=300, gamma=3, seed=2)
        _, trace = decode(target, draft, h0, cfg)
        assert trace.round_lengths().mean() < 1.05

    def test_huge_gap_single_step_matches_target_law(self):
        # alpha -> 0 limit: every round falls back to the target head, so
        # single-step outputs follow the target density
        from scipy import stats as scistats

        target, draft, h0 = make_pair(gap=25.0)
        outs = np.empty(4000)
        for seed in range(4000):
            cfg = cfg_for("practical", horizon=1, gamma=3, seed=seed)
            forecast, _ = decode(target, draft, h0, cfg)
            outs[seed] = forecast[0, 0]
        res = scistats.kstest(outs, lambda v: scistats.norm.cdf(v, loc=0.0, scale=1.0))
        assert res.pvalue >= 0.01


class TestLosslessResidualCost:
    def test_one_sampler_call_per_residual_round(self, monkeypatch):
        # Every rejected lossless round closes with one sampler call, which
        # reports one draw; no other round calls it.
        target, draft, h0 = make_pair(gap=gap_for_overlap(0.3))
        calls = []

        def spy(*args):
            out = sampler(*args)
            calls.append(out[1])
            return out

        sampler = engine.residual_sample
        monkeypatch.setattr(engine, "residual_sample", spy)
        rejections = residual_rounds = 0
        for seed in range(100):
            _, trace = decode(target, draft, h0, cfg_for("lossless", horizon=6, gamma=2, seed=seed))
            rounds = trace.n_rounds
            rejections += int(np.sum(trace.n_accepted[:rounds] < 2))
            residual_rounds += int(np.sum(trace.sources[:rounds] == SOURCES.index(SOURCE_RESIDUAL)))
        assert rejections == residual_rounds == len(calls) > 100
        assert set(calls) == {1}

    def test_rekeys_only_at_block_starts(self, monkeypatch):
        # A lossless decode of R rounds keys its stream once per block of 8
        # rounds, ceil(R / 8) times, however many of its rounds reject: a
        # rejected round closes from its own pre-drawn target variate.
        target, draft, h0 = make_pair(gap=gap_for_overlap(0.3))
        keys = []

        def spy(self, *key):
            keys.append(key)
            return rekey(self, *key)

        rekey = rngmod.ReusableStream.rekey
        monkeypatch.setattr(rngmod.ReusableStream, "rekey", spy)
        rejections = 0
        for seed, horizon in ((0, 1), (1, 8), (2, 30), (3, 41)):
            keys.clear()
            _, trace = decode(target, draft, h0, cfg_for("lossless", horizon=horizon, gamma=2, seed=seed))
            rounds = trace.n_rounds
            rejections += int(np.sum(trace.n_accepted[:rounds] < 2))
            assert keys == [(seed, block, rngmod.ROUND) for block in range(math.ceil(rounds / 8))]
        assert rejections > 20


class TestConfigValidation:
    def test_shared_variance_enforced(self):
        # the sigmas are resolved first: from the config, else from the models
        target, draft, h0 = make_pair()
        unequal = [dict(sigma_target=1.0, sigma_draft=0.5), dict(sigma_draft=0.5),
                   dict(sigma_target=1.0 + 1e-12)]
        for variant in ("practical", "lossless"):
            for sigmas in unequal:
                cfg = DecodeConfig(variant=variant, horizon_patches=4, seed=0, gamma=2, **sigmas)
                with pytest.raises(ValueError, match="shared-variance") as exc:
                    decode(target, draft, h0, cfg)
                assert "allow" not in str(exc.value)
            unequal_models = (target, draft.with_knobs(sigma=0.5), h0)
            with pytest.raises(ValueError, match=r"got 1\.0 vs 0\.5"):
                decode(*unequal_models, DecodeConfig(variant=variant, horizon_patches=4, seed=0))
        # the baselines have one model and take their own sigma
        for variant, sigmas in (("target_only", (1.0, 0.5)), ("draft_only", (0.5, 1.0))):
            cfg = DecodeConfig(variant=variant, horizon_patches=4, seed=0,
                               sigma_target=sigmas[0], sigma_draft=sigmas[1])
            assert decode(target, draft, h0, cfg)[0].shape == (4, 1)

    def test_dimension_mismatch(self):
        target = persistence_model(patch_len=2, sigma=1.0)
        draft = persistence_model(patch_len=3, sigma=1.0)
        h0 = History.from_patches(np.zeros((1, 2)), 1)
        with pytest.raises(ValueError, match="dimensions differ"):
            decode(target, draft, h0, cfg_for("practical"))

    @pytest.mark.parametrize("lam", [0.5, 0.6, 1.7, 2.0, 1e-6, 1.0 + 1e-12])
    def test_lossless_refuses_tolerance_other_than_one(self, lam):
        # min(1, lambda p/q) acceptance and the (p - q)_+ residual combine to
        # the target law only at lambda = 1; the practical rule takes any
        # lambda > 0
        with pytest.raises(ValueError, match=r"lossless decoding requires tolerance_lambda == 1"):
            cfg_for("lossless", tolerance_lambda=lam)
        target, draft, h0 = make_pair(gap=0.8)
        forecast, trace = decode(target, draft, h0, cfg_for("practical", horizon=12, seed=5, tolerance_lambda=lam))
        ref_forecast, ref_rounds, _, _ = _reference_decode(
            target, draft, h0, cfg_for("practical", horizon=12, seed=5, tolerance_lambda=lam))
        assert forecast.tobytes() == ref_forecast.tobytes()
        assert trace.round_dicts() == ref_rounds
        assert np.isfinite(decode(target, draft, h0, cfg_for("lossless", horizon=12, seed=5))[0]).all()

    def test_with_seed_is_the_config_with_another_seed(self):
        cfg = cfg_for("lossless", horizon=6, gamma=2, seed=1)
        moved = cfg.with_seed(99)
        assert (moved.seed, cfg.seed) == (99, 1)
        assert moved == dataclasses.replace(cfg, seed=99)
        assert hash(moved) == hash(dataclasses.replace(cfg, seed=99))
        target, draft, h0 = make_pair()
        want = decode(target, draft, h0, dataclasses.replace(cfg, seed=99))[0]
        assert decode(target, draft, h0, moved)[0].tobytes() == want.tobytes()

    def test_bad_config_fields(self):
        with pytest.raises(ValueError):
            DecodeConfig(variant="nope", horizon_patches=1, seed=0)
        with pytest.raises(ValueError):
            DecodeConfig(variant="practical", horizon_patches=0, seed=0)
        with pytest.raises(ValueError):
            DecodeConfig(variant="practical", horizon_patches=1, seed=0, gamma=0)

    @pytest.mark.parametrize(
        "field_name,value,message",
        [
            ("horizon_patches", 2.5, "horizon_patches must be an integer, got 2.5"),
            ("gamma", 3.0, "gamma must be an integer, got 3.0"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("tolerance_lambda", math.inf, "tolerance_lambda must be finite and > 0, got inf"),
            ("tolerance_lambda", math.nan, "tolerance_lambda must be finite and > 0, got nan"),
            ("tolerance_lambda", -1.0, "tolerance_lambda must be finite and > 0, got -1.0"),
        ],
    )
    def test_sizes_are_integers_and_lambda_is_finite(self, field_name, value, message):
        fields = {**dict(variant="practical", horizon_patches=4, seed=0, gamma=2), field_name: value}
        with pytest.raises(ValueError, match=re.escape(message)):
            DecodeConfig(**fields)
        # numpy integers are integers
        cfg = DecodeConfig(variant="practical", horizon_patches=np.int64(4), seed=np.uint32(7), gamma=np.int32(2))
        assert (cfg.horizon_patches, cfg.seed, cfg.gamma) == (4, 7, 2)


def _linear_pair(d=4):
    series = PatchSeries.from_values(ar1(4096, phi=0.9, seed=5), patch_len=d)
    target = fit_linear_ar(series, lookback=4, ridge=1e-3)
    draft = fit_linear_ar(series, lookback=4, ridge=1e-3, scale=0.5)
    h0 = History.from_patches(series.channel_patches(0)[:8], 4, target.pad_patch())
    return target, draft, h0


class TestDraftBias:
    """A draft's bias is the model's mean_bias, a norm: one meaning on every path."""

    @pytest.mark.parametrize("bias", [-0.5, -3.0, float("nan")])
    def test_negative_bias_rejected_on_every_path(self, bias, tmp_path):
        target, draft, h0 = _linear_pair()
        # the harness and the CLI bias a draft via with_knobs, once per draft
        with pytest.raises(ValueError, match="mean_bias"):
            draft.with_knobs(mean_bias=bias)
        with pytest.raises(ValueError, match="mean_bias"):
            persistence_model(patch_len=1, mean_bias=bias)
        path = tmp_path / "draft.json"
        save_model(draft, path)
        doc = json.loads(path.read_text())
        doc["mean_bias"] = bias
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="mean_bias"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["linear_ar", "persistence"])
    def test_positive_bias_shifts_every_path_alike(self, kind):
        bias = 0.75
        if kind == "linear_ar":
            target, draft, h0 = _linear_pair()
        else:
            target, draft, h0 = make_pair(d=4, gap=0.0)
        shift = np.zeros(draft.d)
        shift[0] = bias

        # harness estimator: batched means of the biased draft
        stack = h0.window()[None]
        np.testing.assert_allclose(
            draft.with_knobs(mean_bias=bias).predict_means(stack),
            draft.predict_means(stack) + shift, rtol=0, atol=1e-12,
        )
        # draft_only decode: the first patch is the draft mean plus noise
        biased = draft.with_knobs(mean_bias=bias)
        cfg = cfg_for("draft_only", horizon=1, seed=3)
        f0, _ = decode(target, draft, h0, cfg)
        f1, _ = decode(target, biased, h0, cfg)
        np.testing.assert_allclose(f1[0] - f0[0], shift, rtol=0, atol=1e-12)
        # speculative decode: the first proposal moves by the same vector,
        # and its draft log density (noise only) does not move
        for variant in ("practical", "lossless"):
            cfg = cfg_for(variant, horizon=4, seed=3)
            _, t0 = decode(target, draft, h0, cfg)
            _, t1 = decode(target, biased, h0, cfg)
            np.testing.assert_allclose(t1.xs[0, 0] - t0.xs[0, 0], shift, rtol=0, atol=1e-12)
            assert t1.log_q[0, 0] == pytest.approx(t0.log_q[0, 0], abs=1e-12)

    def test_far_biased_draft_is_always_rejected(self):
        target, draft, h0 = make_pair(gap=0.0)
        _, trace = decode(target, draft.with_knobs(mean_bias=20.0), h0, cfg_for("practical", horizon=60, seed=4))
        assert trace.round_lengths().mean() < 1.1


class TestOracleTarget:
    def test_decode_with_oracle_and_fitted_draft(self):
        values = ar1(8192, phi=0.9, seed=6)
        series = PatchSeries.from_values(values, patch_len=4)
        draft = fit_linear_ar(series, lookback=4, ridge=1e-3, scale=0.25)
        target = oracle_ar1(patch_len=4, phi=0.9, sigma=draft.sigma)
        h0 = History.from_patches(series.channel_patches(0)[:4], 4, draft.pad_patch())
        cfg = DecodeConfig(
            variant="practical", horizon_patches=12, seed=1, gamma=3,
            sigma_target=0.8, sigma_draft=0.8,
        )
        forecast, trace = decode(target, draft, h0, cfg)
        assert forecast.shape == (12, 4)
        assert trace.round_lengths().mean() > 2.0  # aligned models accept often


class TestTraceExport:
    def test_jsonl_roundtrip_fields(self, tmp_path):
        target, draft, h0 = make_pair()
        cfg = cfg_for("lossless", horizon=12, seed=21)
        _, trace = decode(target, draft, h0, cfg)
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        summary = lines[-1]["summary"]
        rounds = lines[:-1]
        assert len(rounds) == len(trace.rounds)
        assert summary["totals"]["patches_emitted"] == trace.totals.patches_emitted
        assert {"round", "n", "L", "source", "proposals"} <= set(rounds[0])
        assert summary["wall_times"]["draft_total"] >= 0.0

    def test_content_digest_ignores_wall_times(self, tmp_path):
        from speccast.cli import content_digest

        target, draft, h0 = make_pair()
        cfg = cfg_for("lossless", horizon=12, seed=21)
        _, t1 = decode(target, draft, h0, cfg)
        _, t2 = decode(target, draft, h0, cfg)
        t2.wall_times["draft_total"] += 1.0
        t2.wall_times["target_total"] += 2.0
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        t1.write_jsonl(a)
        t2.write_jsonl(b)
        assert a.read_bytes() != b.read_bytes()
        assert content_digest(a) == content_digest(b)
        # a non-timing field still moves the digest
        t2.totals.patches_emitted += 1
        t2.write_jsonl(b)
        assert content_digest(a) != content_digest(b)


# ---------------------------------------------------------------------------
# Reference loop: the round loop as it was before the session buffer, with a
# ring history that shifts on every round, a per-round export dict built from
# copies, and the unstacked scoring kernel. The engine must match it
# bit-for-bit: forecast bytes, round dicts, totals and truncation.
# ---------------------------------------------------------------------------


class _RingHistory:
    """Most recent ``lookback`` patches; every extend shifts the ring."""

    def __init__(self, h0: History):
        self.lookback = h0.lookback
        self.buf = h0.window()

    def extend(self, patches, final):
        n = patches.shape[0] + 1
        if n >= self.lookback:
            self.buf[:] = np.vstack([patches, final[None]])[-self.lookback :]
        else:
            self.buf[:-n] = self.buf[n:]
            self.buf[-n:-1] = patches
            self.buf[-1] = final

    def append(self, patch):
        self.buf[:-1] = self.buf[1:]
        self.buf[-1] = patch

    def window(self, k):
        return self.buf[self.lookback - k :].copy()


def _reference_accept(xs, uniforms, mu_q, mu_p, log_q, log_p, alphas, params):
    gamma = xs.shape[0]
    dq = xs - mu_q
    dp = xs - mu_p
    log_q[:] = -0.5 * ((dq * dq).sum(axis=1) * params[0] + params[1])
    log_p[:] = -0.5 * ((dp * dp).sum(axis=1) * params[0] + params[1])
    np.exp(np.minimum(0.0, log_p - log_q + params[2]), out=alphas)
    n = 0
    while n < gamma and uniforms[n] < alphas[n]:
        n += 1
    return n


def _reference_check_finite(patch, round_index):
    if not math.isfinite(float(patch.sum())):
        raise RuntimeError(f"non-finite head parameters at round {round_index}; aborting decode")


def _reference_decode(target, draft, h0, cfg):
    """(forecast, round dicts, totals, truncated_patches) from the reference loop."""
    totals = Totals()
    rounds = []
    if cfg.variant in ("target_only", "draft_only"):
        model = target if cfg.variant == "target_only" else draft
        sigma = cfg.sigma_target if cfg.variant == "target_only" else cfg.sigma_draft
        sigma = float(sigma) if sigma is not None else model.sigma
        history = _RingHistory(h0)
        noise = rngmod.stream(cfg.seed, 0, rngmod.DIRECT).standard_normal((cfg.horizon_patches, model.d))
        outputs = np.empty((cfg.horizon_patches, model.d))
        for i in range(cfg.horizon_patches):
            mean = model.mean_one(history.window(model.lookback))
            _reference_check_finite(mean, i)
            outputs[i] = mean + sigma * noise[i]
            history.append(outputs[i])
            rounds.append({"round": i, "n": 0, "L": 1, "source": SOURCE_BASELINE, "proposals": []})
        if cfg.variant == "target_only":
            totals.target_passes = cfg.horizon_patches
        else:
            totals.draft_passes = cfg.horizon_patches
        totals.patches_emitted = cfg.horizon_patches
        return outputs, rounds, totals, 0

    sigma_t = cfg.sigma_target if cfg.sigma_target is not None else target.sigma
    sigma_d = cfg.sigma_draft if cfg.sigma_draft is not None else draft.sigma
    gamma, d = cfg.gamma, target.d
    k_t, k_d = target.lookback, draft.lookback
    k_max = max(k_t, k_d)
    # one head width: the engine refuses a decode whose widths differ
    assert sigma_t == sigma_d
    sigma, var = sigma_t, sigma_t * sigma_t
    params = np.array([
        1.0 / var,
        float(np.sum(np.log(2.0 * np.pi * np.full(d, var)))),
        math.log(cfg.tolerance_lambda),
    ])
    history = _RingHistory(h0)
    outputs = []
    ctx = np.empty((k_max + gamma, d))
    mu_q = np.empty((gamma, d))
    log_q, log_p, alphas = np.empty(gamma), np.empty(gamma), np.empty(gamma)
    emitted = 0
    r = 0
    while emitted < cfg.horizon_patches:
        slot = r % 8
        if slot == 0:
            gen = rngmod.stream(cfg.seed, r // 8, rngmod.ROUND)
            block_u = gen.random((8, gamma))
            block_z = gen.standard_normal((8, gamma, d))
            block_ext = gen.standard_normal((8, d))
        uniforms, noise = block_u[slot], block_z[slot]
        ctx[:k_max] = history.window(k_max)
        for i in range(gamma):
            mu_q[i] = draft.mean_one(ctx[k_max + i - k_d : k_max + i])
            ctx[k_max + i] = mu_q[i] + sigma * noise[i]
        prefixes = np.stack([ctx[k_max - k_t + i : k_max + i] for i in range(gamma + 1)])
        mu_p = target.mean_batch(prefixes)
        xs = ctx[k_max:]
        n = _reference_accept(xs, uniforms, mu_q, mu_p[:gamma], log_q, log_p, alphas, params)
        if not math.isfinite(float(alphas.sum())):
            raise RuntimeError(f"non-finite head parameters at round {r}; aborting decode")
        if n < gamma and cfg.variant == "lossless":
            try:
                # a non-finite mean fails here and stops the decode
                p_head, q_head = GaussianHead(mu_p[n], var), GaussianHead(mu_q[n], var)
            except ValueError as exc:
                raise RuntimeError(f"residual draw failed at round {r} ({exc}); aborting decode") from exc
            # the rejected proposal, reflected into the residual
            final = reference_residual_sample(p_head, q_head, xs[n])
            source = SOURCE_RESIDUAL
        else:
            # the extension or the fallback: the round's own target variate
            final = mu_p[n] + sigma * block_ext[slot]
            source = SOURCE_EXTEND if n == gamma else SOURCE_FALLBACK
        _reference_check_finite(final, r)
        consumed = min(n + 1, gamma)
        outputs.extend(xs[i].copy() for i in range(n))
        outputs.append(final)
        history.extend(xs[:n], final)
        rounds.append({
            "round": r, "n": n, "L": n + 1, "source": source,
            "proposals": [
                {"x": xs[j].tolist(), "log_q": float(log_q[j]), "log_p": float(log_p[j]),
                 "alpha": float(alphas[j]), "accepted": j < n, "u": float(uniforms[j])}
                for j in range(consumed)
            ],
        })
        totals.draft_passes += gamma
        totals.target_passes += gamma + 1
        totals.target_batch_calls += 1
        totals.patches_emitted += n + 1
        emitted += n + 1
        r += 1
    forecast = np.vstack(outputs)
    return forecast[: cfg.horizon_patches], rounds, totals, forecast.shape[0] - cfg.horizon_patches


def _reference_pair(kind, sigma=0.4):
    """(target, draft, h0) of one model kind; h0 holds more than k_max patches."""
    series = PatchSeries.from_values(ar1(4096, phi=0.9, seed=5), patch_len=4)
    if kind == "linear_ar":
        target = fit_linear_ar(series, lookback=4, ridge=1e-3).with_knobs(sigma=sigma)
        draft = fit_linear_ar(series, lookback=4, ridge=1e-3, scale=0.5).with_knobs(sigma=sigma)
    elif kind == "persistence":
        target = persistence_model(patch_len=4, sigma=sigma)
        draft = persistence_model(patch_len=4, sigma=sigma, mean_bias=0.2)
    else:
        target = oracle_ar1(patch_len=4, phi=0.9, sigma=sigma)
        # the draft sees more history than the target (k_d = 2 > k_t = 1)
        draft = fit_linear_ar(series, lookback=4, ridge=1e-3, scale=0.5).with_knobs(sigma=sigma)
    h0 = History.from_patches(series.channel_patches(0)[:9], 6, target.pad_patch())
    return target, draft, h0


_REFERENCE_CONFIGS = [
    dict(horizon_patches=13, gamma=3),
    dict(horizon_patches=1, gamma=2),
    dict(horizon_patches=17, gamma=4, mean_bias=0.3),  # a draft knob, not a decode setting
    dict(horizon_patches=9, gamma=1, tolerance_lambda=0.6),
    dict(horizon_patches=11, gamma=3, tolerance_lambda=1.7),
    dict(horizon_patches=12, gamma=3, sigma_target=0.15, sigma_draft=0.15),
]


def _assert_lossless_matches(forecast, trace, ref_forecast, ref_rounds):
    """A lossless session against the reference loop.

    Up to its first residual draw the session is bit-for-bit the reference:
    the same streams and the same operations. The reference then reflects
    the rejected proposal about the midpoint, the engine assembles the same
    point from p's mean and the proposal's noise, so from that draw on
    forecasts agree to 1e-12 relative (2-norm per patch: an entry near 0
    carries no relative bound), and so do the trace's log densities (alphas
    to 1e-12 absolute). Accept counts and sources stay equal.
    """
    rounds = trace.round_dicts()
    assert [(r["n"], r["L"], r["source"]) for r in rounds] == [(r["n"], r["L"], r["source"]) for r in ref_rounds]
    first = next((i for i, r in enumerate(ref_rounds) if r["source"] == SOURCE_RESIDUAL), len(ref_rounds))
    exact = sum(r["L"] for r in ref_rounds[:first])
    if first < len(ref_rounds):
        exact += ref_rounds[first]["n"]
    exact = min(exact, forecast.shape[0])
    assert forecast[:exact].tobytes() == ref_forecast[:exact].tobytes()
    for got, want in zip(forecast[exact:], ref_forecast[exact:]):
        assert_close_vector(got, want)
    for i, (got, want) in enumerate(zip(rounds, ref_rounds)):
        if i <= first:  # the proposals of the first residual round precede its draw
            assert got == want
            continue
        for a, b in zip(got["proposals"], want["proposals"]):
            assert_close_vector(np.array(a["x"]), np.array(b["x"]))
            assert (a["accepted"], a["u"]) == (b["accepted"], b["u"])
            for key in ("log_q", "log_p", "alpha"):
                assert a[key] == pytest.approx(b[key], rel=1e-12, abs=1e-12)


class TestReferenceLoop:
    @pytest.mark.parametrize("kind", ["linear_ar", "persistence", "oracle"])
    @pytest.mark.parametrize("variant", ["practical", "lossless", "target_only", "draft_only"])
    def test_matches_reference_bit_for_bit(self, kind, variant):
        target, draft, h0 = _reference_pair(kind)
        sources = set()
        for conf in _REFERENCE_CONFIGS:
            conf = {"sigma_target": 0.4, "sigma_draft": 0.4, **conf}
            conf_draft = draft.with_knobs(mean_bias=conf.pop("mean_bias", None))
            for seed in (0, 7, 123):
                if variant == "lossless" and conf.get("tolerance_lambda", 1.0) != 1.0:
                    with pytest.raises(ValueError, match="lossless decoding requires tolerance_lambda == 1"):
                        DecodeConfig(variant=variant, seed=seed, **conf)
                    continue
                cfg = DecodeConfig(variant=variant, seed=seed, **conf)
                model_draft = None if variant == "target_only" else conf_draft
                forecast, trace = decode(target, model_draft, h0, cfg)
                ref_forecast, ref_rounds, ref_totals, ref_truncated = _reference_decode(
                    target, model_draft, h0, cfg
                )
                assert forecast.shape == (cfg.horizon_patches, target.d)
                if variant == "lossless":
                    _assert_lossless_matches(forecast, trace, ref_forecast, ref_rounds)
                else:
                    assert forecast.tobytes() == ref_forecast.tobytes()
                    assert trace.round_dicts() == ref_rounds
                assert dataclasses.asdict(trace.totals) == dataclasses.asdict(ref_totals)
                assert trace.truncated_patches == ref_truncated
                sources.update(r["source"] for r in ref_rounds)
        if variant in ("practical", "lossless"):
            # both full-accept and rejecting rounds were compared
            assert SOURCE_EXTEND in sources and len(sources) > 1

    @pytest.mark.parametrize("variant", ["practical", "lossless", "target_only", "draft_only"])
    def test_non_finite_aborts_at_the_same_round(self, variant):
        # an explosive linear target and draft overflow after a few rounds
        target, draft, h0 = _reference_pair("linear_ar")
        target = dataclasses.replace(target, weights=target.weights * 1e60)
        draft = dataclasses.replace(draft, weights=draft.weights * 1e60)
        cfg = DecodeConfig(variant=variant, horizon_patches=40, seed=3, gamma=3,
                           sigma_target=0.4, sigma_draft=0.4)
        model_draft = None if variant == "target_only" else draft
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="non-finite") as got:
                decode(target, model_draft, h0, cfg)
            with pytest.raises(RuntimeError, match="non-finite") as want:
                _reference_decode(target, model_draft, h0, cfg)
        assert str(got.value) == str(want.value)
        assert "round 0;" not in str(got.value)  # the blow-up takes a few rounds

    def test_non_finite_target_mean_in_a_rejection_round(self, monkeypatch):
        # Only the target explodes: its mean overflows to inf while the
        # draft's proposals stay finite, so the round rejects (alpha = 0)
        # and its residual sees an infinite target mean. The sampler must
        # refuse that at once, and the decode stops with DecodeAborted
        # naming the round. Weights and history are all
        # positive, so every term of the verify product is too and its
        # overflow is +inf in whatever order the product sums them; terms of
        # mixed sign can overflow to inf - inf = nan instead, which stops
        # the decode at the acceptance scan before any residual is drawn.
        target, draft, h0 = _reference_pair("linear_ar")
        target = dataclasses.replace(target, weights=np.abs(target.weights) * 1e100)
        h0 = History.from_patches(np.abs(h0.window()), h0.lookback)
        cfg = DecodeConfig(variant="lossless", horizon_patches=40, seed=3, gamma=3,
                           sigma_target=0.4, sigma_draft=0.4)
        outcomes = []

        def spy(*args, **kwargs):
            try:
                out = sampler(*args, **kwargs)
            except ValueError as exc:
                outcomes.append(str(exc))
                raise
            outcomes.append(out[1])
            return out

        sampler = engine.residual_sample
        monkeypatch.setattr(engine, "residual_sample", spy)
        with np.errstate(all="ignore"):
            with pytest.raises(DecodeAborted, match="non-finite") as got:
                decode(target, draft, h0, cfg)
            with pytest.raises(RuntimeError, match="non-finite") as want:
                _reference_decode(target, draft, h0, cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("residual draw failed at round ")
        assert "round 0 " not in str(got.value)
        # earlier residuals were sampled; the last call refused before drawing
        assert outcomes[-1] == "head mean has non-finite entries"
        assert len(outcomes) > 1 and all(isinstance(o, int) for o in outcomes[:-1])

    def test_lossless_decodes_at_every_sigma_practical_takes(self):
        # The reflection reads no sigma, so lossless takes the narrow heads
        # practical and target_only take, from the config or from the models
        target, draft, h0 = _reference_pair("linear_ar", sigma=1e-7)
        for sigma in (1e-7, None):
            cfg = DecodeConfig(variant="lossless", horizon_patches=9, seed=2, gamma=2,
                               sigma_target=sigma, sigma_draft=sigma)
            forecast, trace = decode(target, draft, h0, cfg)
            ref_forecast, ref_rounds, _, _ = _reference_decode(target, draft, h0, cfg)
            _assert_lossless_matches(forecast, trace, ref_forecast, ref_rounds)
            assert SOURCE_RESIDUAL in {r["source"] for r in ref_rounds}
        for variant in ("practical", "target_only"):
            cfg = DecodeConfig(variant=variant, horizon_patches=9, seed=2, gamma=2,
                               sigma_target=1e-7, sigma_draft=1e-7)
            model_draft = None if variant == "target_only" else draft
            forecast, trace = decode(target, model_draft, h0, cfg)
            ref_forecast, ref_rounds, _, _ = _reference_decode(target, model_draft, h0, cfg)
            assert forecast.tobytes() == ref_forecast.tobytes()
            assert trace.round_dicts() == ref_rounds

    @pytest.mark.parametrize("variant", ["practical", "lossless"])
    @pytest.mark.parametrize("sigma", [1e-170, 1e-155, 1e160])
    def test_sigma_without_a_finite_inverse_variance_is_refused(self, variant, sigma):
        # 1e-170 squares to 0 and 1e-155 to a subnormal whose inverse
        # overflows; 1e160 squares to inf. The acceptance rule needs both
        # finite, so the plan refuses such a sigma before any round.
        target, draft, h0 = make_pair(gap=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^" + re.escape(f"sigma={sigma:g} is out of range")):
                decode(target, draft, h0, cfg_for(variant, horizon=4, sigma=sigma))

    @pytest.mark.parametrize("variant", ["practical", "lossless"])
    def test_sigma_whose_squared_distances_overflow_is_refused(self, variant):
        # At 1e154 a proposal's squared distance to its mean overflows (it
        # aborted at round 0 as if a head were not finite); 1e153 decodes
        target, draft, h0 = make_pair(gap=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                decode(target, draft, h0, cfg_for(variant, horizon=4, gamma=2, sigma=1e154))
            forecast, _ = decode(target, draft, h0, cfg_for(variant, horizon=4, gamma=2, sigma=1e153))
        assert str(got.value) == (
            "sigma=1e+154 is out of range: the squared distance of a proposal "
            "8 sigma from its mean in each of d=1 coordinates overflows"
        )
        assert np.isfinite(forecast).all()

    @pytest.mark.parametrize("kind", ["linear_ar", "persistence", "oracle"])
    def test_exported_alpha_is_the_one_the_scan_compared(self, kind):
        # Every examined proposal is accepted exactly when its uniform is
        # below its exported alpha, and a round's n counts those: the trace
        # derives alpha with the scan's operation order and exponential
        target, draft, h0 = _reference_pair(kind)
        rejections = 0
        for variant in ("practical", "lossless"):
            for seed in range(20):
                cfg = DecodeConfig(variant=variant, horizon_patches=13, seed=seed, gamma=3,
                                   sigma_target=0.4, sigma_draft=0.4)
                _, trace = decode(target, draft, h0, cfg)
                for rd in trace.round_dicts():
                    compared = [p["u"] < p["alpha"] for p in rd["proposals"]]
                    assert [p["accepted"] for p in rd["proposals"]] == compared
                    assert rd["n"] == sum(compared)
                    rejections += rd["n"] < cfg.gamma
        assert rejections >= 10

    @pytest.mark.parametrize("variant", ["practical", "lossless"])
    def test_nan_past_the_first_rejection_aborts_its_round(self, variant, monkeypatch):
        # A NaN target mean at the last position of round 3, whose first
        # proposal is rejected, still stops the decode at round 3: the scan
        # checks all gamma log ratios, not only the examined ones
        target, draft, h0 = make_pair()
        scan = kernels.round_accept
        calls = []

        def poisoned(xs, uniforms, mus, scratch, dists, params):
            calls.append(len(calls))
            if calls[-1] == 3:
                mus[1, -1, 0] = np.nan
                uniforms = [1.0, *uniforms[1:]]  # alpha <= 1: rejected at 0
            return scan(xs, uniforms, mus, scratch, dists, params)

        monkeypatch.setattr(kernels, "round_accept", poisoned)
        with pytest.raises(DecodeAborted, match=r"^non-finite head parameters at round 3; aborting decode$"):
            decode(target, draft, h0, cfg_for(variant, horizon=40))

    @pytest.mark.parametrize("variant", ["practical", "lossless"])
    def test_infinite_log_ratio_rejects_without_aborting(self, variant):
        # A draft 1e200 off the target: each proposal's squared distance to
        # the target mean overflows to inf, so log p is -inf, alpha exactly 0,
        # and every round closes at once; nothing is non-finite in the output
        target, draft, h0 = make_pair(gap=1e200)
        with np.errstate(over="ignore"):
            forecast, trace = decode(target, draft, h0, cfg_for(variant, horizon=10))
        assert np.isfinite(forecast).all()
        assert trace.round_lengths().tolist() == [1] * 10
        assert np.all(trace.log_p[:, 0] == -np.inf) and np.all(trace.alphas[:, 0] == 0.0)

    @pytest.mark.parametrize("variant", ["practical", "lossless", "target_only"])
    def test_lazy_rounds_agree_with_columns(self, variant):
        target, draft, h0 = _reference_pair("linear_ar", sigma=0.2)
        cfg = DecodeConfig(variant=variant, horizon_patches=20, seed=5, gamma=3,
                           sigma_target=0.2, sigma_draft=0.2)
        _, trace = decode(target, None if variant == "target_only" else draft, h0, cfg)
        rounds = trace.rounds
        assert rounds is trace.rounds  # built once, on first access
        assert len(rounds) == trace.n_rounds
        assert trace.round_lengths().tolist() == [r.outputs_emitted for r in rounds]
        assert trace.accepted_counts().tolist() == [r.n_accepted for r in rounds]
        assert sum(r.outputs_emitted for r in rounds) == trace.totals.patches_emitted
        for i, (rec, rd) in enumerate(zip(rounds, trace.round_dicts(), strict=True)):
            assert rec.index == rd["round"] == i
            assert rec.final_draw_source == rd["source"] == SOURCES[trace.sources[i]]
            assert (rec.n_accepted, rec.outputs_emitted) == (rd["n"], rd["L"])
            if variant == "target_only":
                assert rd["proposals"] == []
                continue
            assert len(rd["proposals"]) == min(rec.n_accepted + 1, cfg.gamma)
            for j, p in enumerate(rd["proposals"]):
                assert p["x"] == trace.xs[i, j].tolist()
                assert (p["log_q"], p["log_p"]) == (trace.log_q[i, j], trace.log_p[i, j])
                assert (p["alpha"], p["u"]) == (trace.alphas[i, j], trace.uniforms[i, j])
                assert p["accepted"] == (j < rec.n_accepted)


class TestBaselineContract:
    @pytest.mark.parametrize("kind", ["linear_ar", "persistence"])
    def test_direct_noise_times_sigma_plus_one_mean_per_step(self, kind):
        # target_only and draft_only against the reference loop (the
        # session's DIRECT noise times sigma, plus one mean_one per step) over
        # several horizons, with sigma from the config and from the model;
        # the configurations' sessions alternate, so each one starts from a
        # plan a session already used
        target, draft, h0 = _reference_pair(kind)
        configs = [
            DecodeConfig(variant=variant, horizon_patches=horizon, seed=0, **{field_name: sigma})
            for variant, field_name in (("target_only", "sigma_target"), ("draft_only", "sigma_draft"))
            for horizon in (1, 5, 9, 24)
            for sigma in (None, 0.3)
        ]
        for seed in (0, 3, 41):
            for cfg in configs:
                cfg = cfg.with_seed(seed)
                forecast, trace = decode(target, draft, h0, cfg)
                ref_forecast, ref_rounds, _, _ = _reference_decode(target, draft, h0, cfg)
                assert forecast.tobytes() == ref_forecast.tobytes()
                assert trace.round_dicts() == ref_rounds


class TestSessionPlans:
    def test_threads_decode_as_one_thread_does(self):
        # Plans are per thread. Six threads decode every configuration, each
        # in its own order, while the interpreter switches threads every
        # microsecond; each session's bytes are those of a single thread.
        target, draft, h0 = _reference_pair("linear_ar")
        configs = [
            DecodeConfig(variant=variant, horizon_patches=horizon, seed=0, gamma=3,
                         sigma_target=0.4, sigma_draft=0.4)
            for variant, horizon in (("practical", 13), ("lossless", 11), ("target_only", 9),
                                     ("draft_only", 7), ("lossless", 17), ("practical", 5))
        ]
        seeds = range(12)
        want = {(c, s): decode(target, draft, h0, configs[c].with_seed(s))[0].tobytes()
                for c in range(len(configs)) for s in seeds}
        got, errors = {}, []

        def work(first):
            try:
                for s in seeds:
                    for step in range(len(configs)):
                        c = (first + step) % len(configs)
                        got[c, s] = decode(target, draft, h0, configs[c].with_seed(s))[0].tobytes()
            except Exception as exc:  # re-raised below, in the test's thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(first,)) for first in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        assert got == want

    def test_new_models_decode_as_the_reference_loop(self):
        # A plan holds its models, so no model built later can take one of
        # their ids and meet their plan. Each pass builds a new model, with
        # a width of its own that the config leaves to it, decodes with it
        # (as its own draft, for the speculative variants) and drops it; the
        # next pass's model is then allocated where it was. A stale plan
        # would draw at an earlier width.
        base, _, h0 = _reference_pair("linear_ar")
        for variant in ("practical", "lossless", "target_only"):
            cfg = DecodeConfig(variant=variant, horizon_patches=7, seed=0, gamma=2)
            for i in range(3 * engine._PLANS):
                model = base.with_knobs(sigma=0.2 + 0.01 * i)
                draft = None if variant == "target_only" else model
                forecast, trace = decode(model, draft, h0, cfg.with_seed(i))
                ref_forecast, ref_rounds, _, _ = _reference_decode(model, draft, h0, cfg.with_seed(i))
                assert forecast.tobytes() == ref_forecast.tobytes()
                assert trace.round_dicts() == ref_rounds
                del model, draft

    def test_every_field_but_the_seed_keys_a_plan(self):
        # Configs that differ in any one field but the seed get plans of
        # their own; a new field must be given an alternative here
        target, draft, _ = _reference_pair("linear_ar")
        base = DecodeConfig(variant="target_only", horizon_patches=5, seed=0, gamma=2,
                            sigma_target=0.4, sigma_draft=0.4)
        others = {"variant": "draft_only", "horizon_patches": 6, "gamma": 3, "tolerance_lambda": 0.5,
                  "sigma_target": 0.3, "sigma_draft": 0.3}
        assert set(others) == {f.name for f in dataclasses.fields(DecodeConfig)} - {"seed"}
        plan = engine._plan(target, draft, base)
        assert engine._plan(target, draft, base.with_seed(7)) is plan
        for name, value in others.items():
            assert engine._plan(target, draft, dataclasses.replace(base, **{name: value})) is not plan, name

    def test_refusals_repeat_on_every_call(self):
        # A check that fails leaves no plan behind, and the history is
        # checked per session, so the second and third calls raise too
        target, draft, h0 = _reference_pair("linear_ar")
        short = History.from_patches(np.zeros((1, target.d)), 1)
        tiny = 1e-170
        cases = [
            (DecodeConfig(variant="practical", horizon_patches=5, seed=0, sigma_target=0.4, sigma_draft=0.3),
             h0, "shared-variance"),
            (DecodeConfig(variant="lossless", horizon_patches=5, seed=0, sigma_target=tiny, sigma_draft=tiny),
             h0, "sigma=1e-170 is out of range"),
            (DecodeConfig(variant="practical", horizon_patches=5, seed=0, sigma_target=0.4, sigma_draft=0.4),
             short, "history capacity 1 is below the larger model lookback 4"),
            (DecodeConfig(variant="draft_only", horizon_patches=5, seed=0),
             short, "history capacity 1 is below the model lookback 2"),
        ]
        for cfg, history, message in cases:
            for seed in range(3):
                with pytest.raises(ValueError, match=message):
                    decode(target, draft, history, cfg.with_seed(seed))
        # the configuration that refused only the short history decodes a long one
        assert decode(target, draft, h0, cases[2][0])[0].shape == (5, target.d)

    @pytest.mark.parametrize("variant", ["target_only", "draft_only", "practical", "lossless"])
    def test_history_of_another_patch_width_is_refused(self, variant):
        # a width-1 history would be broadcast into every column of the
        # width-4 models' session buffer; it is refused, on every call
        target, draft, _ = _reference_pair("persistence")
        narrow = History.from_patches(np.ones((6, 1)), 6)
        cfg = DecodeConfig(variant=variant, horizon_patches=5, seed=0)
        for seed in range(2):
            with pytest.raises(ValueError, match="history patch width 1 does not match the model patch width 4"):
                decode(target, draft, narrow, cfg.with_seed(seed))

    def test_patches_after_a_plan_exists_take_effect(self, monkeypatch):
        # A plan keeps no model method or module function, so wrappers
        # installed after a configuration's first session, as tracing
        # installs them, see every call of the next one
        target, draft, h0 = make_pair(gap=gap_for_overlap(0.3))
        cfg = cfg_for("lossless", horizon=12, gamma=3, seed=2)
        baseline = cfg_for("target_only", horizon=12, seed=2)
        decode(target, draft, h0, cfg)
        decode(target, None, h0, baseline)
        calls = collections.Counter()

        def spy(owner, name):
            fn = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        spy(ForecastModel, "mean_one")
        spy(ForecastModel, "mean_batch")
        spy(kernels, "round_accept")
        spy(engine, "residual_sample")
        spy(rngmod.ReusableStream, "rekey")
        spy(History, "fill_window")
        _, trace = decode(target, draft, h0, cfg)
        rounds = trace.n_rounds
        rejections = int(np.sum(trace.n_accepted[:rounds] < 3))
        assert rejections > 0
        assert calls == {"mean_one": 3 * rounds, "mean_batch": rounds, "round_accept": rounds,
                         "residual_sample": rejections, "rekey": -(-rounds // 8), "fill_window": 1}
        calls.clear()
        decode(target, None, h0, baseline)
        assert calls == {"mean_one": 12, "rekey": 1, "fill_window": 1}


class TestNearlyIdenticalHeads:
    def test_forced_rejection_closes_with_a_residual_draw(self, monkeypatch):
        # Heads 1e-9 apart (1 - beta ~ 4e-10) reject about once in 2.5e9
        # proposals, so the scan is made to reject every first proposal. The
        # round still closes with an exact residual draw, not a fallback:
        # the persistence target's mean is the previous patch, the draft
        # sits 1e-9 above it, and the draw is the first proposal reflected
        # about their midpoint.
        gap = 1e-9
        target, draft, h0 = make_pair(gap=gap)
        scan = kernels.round_accept

        def reject_first(*args):
            scan(*args)
            return 0

        monkeypatch.setattr(kernels, "round_accept", reject_first)
        cfg = cfg_for("lossless", horizon=5, seed=4)
        forecast, trace = decode(target, draft, h0, cfg)
        assert trace.accepted_counts().tolist() == [0] * 5
        assert [r.final_draw_source for r in trace.rounds] == [SOURCE_RESIDUAL] * 5
        gen = rngmod.stream(cfg.seed, 0, rngmod.ROUND)
        gen.random((8, cfg.gamma))  # uniforms
        noise = gen.standard_normal((8, cfg.gamma, 1))  # proposal noise (sigma = 1)
        previous = np.zeros(1)
        for r in range(5):
            p_head, q_head = GaussianHead(previous, 1.0), GaussianHead(previous + gap, 1.0)
            want = reference_residual_sample(p_head, q_head, q_head.mean + noise[r, 0])
            assert_close_vector(forecast[r] - previous, want - previous)
            previous = forecast[r]


class TestRoundClose:
    def test_closing_draw_is_a_target_draw_for_every_n(self):
        # A round that accepts n proposals closes with mu_p[n] + ext, where
        # ext is drawn apart from the uniforms and proposal noise that
        # decided n, so (x_n - mu_p[n]) / sigma_t is N(0, 1) given n. The
        # persistence target's mean at position n is the patch before it
        # (h0's zero at n = 0); a horizon of gamma + 1 keeps round 0 whole.
        from scipy import stats as scistats

        gamma, sigma = 3, 1.0
        target, draft, h0 = make_pair(sigma=sigma, gap=gap_for_overlap(0.8) * sigma)
        z = [[] for _ in range(gamma + 1)]
        for seed in range(20_000):
            cfg = cfg_for("practical", horizon=gamma + 1, gamma=gamma, seed=seed, sigma=sigma)
            forecast, trace = decode(target, draft, h0, cfg)
            n = int(trace.n_accepted[0])
            previous = forecast[n - 1, 0] if n else 0.0
            z[n].append((forecast[n, 0] - previous) / sigma)
        for n in range(gamma + 1):
            assert len(z[n]) > 2000, n  # P(n) = 0.2, 0.16, 0.128, 0.512
            assert scistats.kstest(z[n], "norm").pvalue >= 1e-3, n


class TestLosslessSessionLaw:
    def test_whole_sessions_follow_the_target_chain_across_the_rekey(self):
        # On the persistence pair the target chain is a random walk, each
        # patch the previous one plus N(0, sigma^2). A lossless session of
        # horizon 40 at alpha 0.8 and gamma 3 runs about 13 rounds, and at
        # least 10, so every session crosses the re-key at round 8. Over
        # 4000 sessions the increments must be N(0, 1) pooled (KS), and
        # neighbouring increments uncorrelated: at each of the 39 position
        # pairs, sqrt(n) times the mean product is N(0, 1), so the sum of
        # their squares is chi^2 with 39 degrees of freedom.
        from scipy import stats as scistats

        n, horizon = 4000, 40
        target, draft, h0 = make_pair(gap=gap_for_overlap(0.8))
        cfg = cfg_for("lossless", horizon=horizon, gamma=3)
        steps = np.empty((n, horizon))
        rounds = np.empty(n, dtype=np.int64)
        for i in range(n):
            forecast, trace = decode(target, draft, h0, cfg.with_seed(10_000 + i))
            steps[i] = np.diff(forecast[:, 0], prepend=0.0)
            rounds[i] = trace.n_rounds
        assert rounds.min() > 8 and 12 < rounds.mean() < 14
        assert scistats.kstest(steps.ravel(), "norm").pvalue >= 1e-3
        lag1 = math.sqrt(n) * np.mean(steps[:, 1:] * steps[:, :-1], axis=0)
        assert scistats.chi2.sf(float(np.sum(lag1 * lag1)), horizon - 1) >= 1e-3


class TestSigmaOverrides:
    @pytest.mark.parametrize("variant", ["practical", "lossless", "target_only", "draft_only"])
    @pytest.mark.parametrize("field_name", ["sigma_target", "sigma_draft"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejected_unless_finite_positive(self, variant, field_name, value):
        with pytest.raises(ValueError, match=f"{field_name} must be finite and > 0"):
            DecodeConfig(variant=variant, horizon_patches=4, seed=0, **{field_name: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_model_sigma_rejected_unless_finite_positive(self, value):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            persistence_model(patch_len=1, sigma=value)

    def test_cli_exit_code_2(self, tmp_path, capsys):
        from speccast.cli import main

        data = ["--synthetic", "seasonal-ar", "--synth-steps", "3000", "--synth-channels", "1"]
        model = str(tmp_path / "target.json")
        assert main(["fit", *data, "--patch-len", "8", "--lookback", "4", "--out", model]) == 0
        decode_args = ["decode", *data, "--target", model, "--variant", "target_only", "--horizon", "16"]
        assert main([*decode_args, "--out", str(tmp_path / "ok")]) == 0
        for value in ("0", "-1", "nan"):
            assert main([*decode_args, "--sigma", value, "--out", str(tmp_path / "bad")]) == 2
            assert "sigma_target must be finite and > 0" in capsys.readouterr().err
