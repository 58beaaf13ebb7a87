"""Decode loop: prefix acceptance, run lengths, determinism, pass accounting."""

import dataclasses
import json

import numpy as np
import pytest

from speccast.engine import (
    SOURCE_BASELINE,
    SOURCE_EXTEND,
    SOURCE_FALLBACK,
    SOURCE_RESIDUAL,
    DecodeConfig,
    decode,
)
from speccast.models import History, fit_linear_ar, load_model, oracle_ar1, persistence_model, save_model
from speccast.prob import gap_for_overlap, overlap_closed_form, GaussianHead
from speccast.series import PatchSeries, metrics
from speccast.synth import ar1, pure_seasonal


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
        for rec in trace.rounds:
            assert rec.final_draw_source == SOURCE_EXTEND
            for p in rec.proposals:
                assert p.alpha == pytest.approx(1.0, abs=1e-12)
                assert p.accepted

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
        for rec in trace.rounds:
            flags = [p.accepted for p in rec.proposals]
            n = rec.n_accepted
            assert flags == [True] * n + [False] * (len(flags) - n)
            assert len(flags) - n in (0, 1)
            assert rec.outputs_emitted == n + 1
            assert 1 <= rec.outputs_emitted <= cfg.gamma + 1
            if n == cfg.gamma:
                assert rec.final_draw_source == SOURCE_EXTEND
            elif variant == "practical":
                assert rec.final_draw_source == SOURCE_FALLBACK
            else:
                assert rec.final_draw_source in (SOURCE_RESIDUAL, SOURCE_FALLBACK)

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
        p0, l0 = tp.rounds[0], tl.rounds[0]
        assert p0.n_accepted == l0.n_accepted
        for a, b in zip(p0.proposals, l0.proposals):
            assert np.array_equal(a.x, b.x)
            assert a.uniform == b.uniform


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
        values = pure_seasonal(4096, n_channels=1, season_len=16, seed=3)
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
    def test_residual_draws_track_cost_identity(self):
        sigma = 1.0
        beta = 0.3
        gap = gap_for_overlap(beta) * sigma
        target, draft, h0 = make_pair(sigma=sigma, gap=gap)
        draws = []
        for seed in range(400):
            cfg = cfg_for("lossless", horizon=1, gamma=1, seed=seed, sigma=sigma)
            _, trace = decode(target, draft, h0, cfg)
            rec = trace.rounds[0]
            if rec.final_draw_source == SOURCE_RESIDUAL:
                draws.append(rec.residual_target_draws)
        assert len(draws) > 150  # rejection rate ~ 1 - beta = 0.7
        expected = 1.0 / (1.0 - beta)
        assert abs(np.mean(draws) - expected) / expected < 0.10


class TestConfigValidation:
    def test_shared_variance_enforced(self):
        target, draft, h0 = make_pair()
        cfg = DecodeConfig(
            variant="practical", horizon_patches=4, seed=0, gamma=2,
            sigma_target=1.0, sigma_draft=0.5,
        )
        with pytest.raises(ValueError, match="shared-variance"):
            decode(target, draft, h0, cfg)

    def test_unequal_variance_opt_in(self):
        target, draft, h0 = make_pair()
        cfg = DecodeConfig(
            variant="practical", horizon_patches=4, seed=0, gamma=2,
            sigma_target=1.0, sigma_draft=0.5, allow_unequal_variance=True,
        )
        forecast, _ = decode(target, draft, h0, cfg)
        assert forecast.shape == (4, 1)

    def test_dimension_mismatch(self):
        target = persistence_model(patch_len=2, sigma=1.0)
        draft = persistence_model(patch_len=3, sigma=1.0)
        h0 = History.from_patches(np.zeros((1, 2)), 1)
        with pytest.raises(ValueError, match="dimensions differ"):
            decode(target, draft, h0, cfg_for("practical"))

    def test_bad_config_fields(self):
        with pytest.raises(ValueError):
            DecodeConfig(variant="nope", horizon_patches=1, seed=0)
        with pytest.raises(ValueError):
            DecodeConfig(variant="practical", horizon_patches=0, seed=0)
        with pytest.raises(ValueError):
            DecodeConfig(variant="practical", horizon_patches=1, seed=0, gamma=0)

    def test_draft_bias_override(self):
        target, draft, h0 = make_pair(gap=0.0)
        cfg = dataclasses.replace(cfg_for("practical", horizon=60, seed=4), draft_bias=20.0)
        _, trace = decode(target, draft, h0, cfg)
        assert trace.round_lengths().mean() < 1.1


def _linear_pair(d=4):
    series = PatchSeries.from_values(ar1(4096, phi=0.9, seed=5), patch_len=d)
    target = fit_linear_ar(series, lookback=4, ridge=1e-3)
    draft = fit_linear_ar(series, lookback=4, ridge=1e-3, scale=0.5)
    h0 = History.from_patches(series.channel_patches(0)[:8], 4, target.pad_patch())
    return target, draft, h0


class TestDraftBias:
    """draft_bias / mean_bias is a norm: one meaning on every path."""

    @pytest.mark.parametrize("bias", [-0.5, -3.0, float("nan")])
    def test_negative_bias_rejected_on_every_path(self, bias, tmp_path):
        target, draft, h0 = _linear_pair()
        for variant in ("practical", "lossless", "draft_only"):
            with pytest.raises(ValueError, match="draft_bias"):
                cfg_for(variant, draft_bias=bias)
        # the harness's acceptance estimate biases its draft via with_knobs
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
        cfg = cfg_for("draft_only", horizon=1, seed=3)
        f0, _ = decode(target, draft, h0, cfg)
        f1, _ = decode(target, draft, h0, dataclasses.replace(cfg, draft_bias=bias))
        np.testing.assert_allclose(f1[0] - f0[0], shift, rtol=0, atol=1e-12)
        # speculative decode: the first proposal moves by the same vector,
        # and its draft log density (noise only) does not move
        for variant in ("practical", "lossless"):
            cfg = cfg_for(variant, horizon=4, seed=3)
            _, t0 = decode(target, draft, h0, cfg)
            _, t1 = decode(target, draft, h0, dataclasses.replace(cfg, draft_bias=bias))
            p0, p1 = t0.rounds[0].proposals[0], t1.rounds[0].proposals[0]
            np.testing.assert_allclose(p1.x - p0.x, shift, rtol=0, atol=1e-12)
            assert p1.log_q == pytest.approx(p0.log_q, abs=1e-12)


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
