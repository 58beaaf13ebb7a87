"""Series ingestion, patching, the linear/persistence forecasters and the context."""

import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lapack

from speccast import models
from speccast.harness import build_test_windows
from speccast.models import (
    History,
    effective_lookback,
    fit_linear_ar,
    load_model,
    persistence_model,
    save_model,
)
from speccast.series import (
    CsvSchema,
    NormStats,
    PatchSeries,
    chronological_split,
    load_csv,
    metrics,
)
from speccast.synth import SyntheticSpec, check_real

from helpers import ar1, invert, write_csv


def oracle_ar1(patch_len, phi, sigma=1.0):
    """Exact conditional mean of a step-level AR(1) process, as a linear model.

    Given the last observed step x, the next patch's mean is
    x * (phi, phi^2, ..., phi^d): a one-patch window whose weights carry
    phi^1 .. phi^d on the last coordinate, with intercept 0.
    """
    weights = np.zeros((patch_len, patch_len))
    weights[:, -1] = float(phi) ** np.arange(1, patch_len + 1)
    return models.ForecastModel(
        kind=models.KIND_LINEAR, patch_len=patch_len, lookback=1, sigma=sigma,
        weights=weights, intercept=np.zeros(patch_len),
    )


def reference_fit_linear_ar(train, lookback, ridge=1e-3, scale=1.0):
    """The materialized ridge fit: builds the (rows, k*d) feature matrix.

    The oracle for ``fit_linear_ar``, which forms the same normal equations
    from lagged window sums. Returns (weights, intercept, unfloored sigma).
    """
    if not np.isfinite(ridge) or ridge < 0:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    k_eff = effective_lookback(lookback, scale)
    d = train.patch_len
    if train.n_patches < k_eff + 1:
        raise ValueError(
            f"need at least {k_eff + 1} patches per channel to fit, have {train.n_patches}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(train.patches, (k_eff, d), axis=(1, 2))
    features = windows[:, :-1, 0].reshape(-1, k_eff * d)
    targets = train.patches[:, k_eff:].reshape(-1, d)
    x_mean = features.mean(axis=0)
    y_mean = targets.mean(axis=0)
    xc = features - x_mean
    yc = targets - y_mean
    gram = xc.T @ xc
    gram[np.diag_indices_from(gram)] += ridge
    try:
        w = cho_solve(cho_factor(gram), xc.T @ yc).T
    except LinAlgError:
        if ridge == 0:
            raise ValueError(
                "singular normal equations with ridge = 0; refit with ridge > 0"
            ) from None
        raise
    intercept = y_mean - w @ x_mean
    resid = targets - (features @ w.T + intercept)
    return w, intercept, float(np.sqrt(np.mean(resid ** 2)))


def reference_ar1_recursion(innov, phi):
    """The step loop that ``synth`` runs through ``scipy.signal.lfilter``."""
    z = np.empty(innov.shape[0])
    z[0] = innov[0] / np.sqrt(max(1.0 - phi ** 2, 1e-9))
    for t in range(1, innov.shape[0]):
        z[t] = phi * z[t - 1] + innov[t]
    return z


def reference_seasonal_ar(doc):
    """The seasonal + AR(1) generator as it was when a spec set the profile's
    amplitude, its harmonic count and an observation noise: the series of a
    synthetic spec document, by a step loop."""
    amp, n_harmonics, obs_noise = doc["season_amp"], doc["n_harmonics"], doc["obs_noise"]
    n_steps, season_len = doc["n_steps"], doc["season_len"]
    rng = np.random.Generator(np.random.Philox(key=doc["seed"]))
    out = np.empty((doc["n_channels"], n_steps))
    t = np.arange(season_len)
    for ch in range(doc["n_channels"]):
        phase = rng.uniform(0, 2 * np.pi, n_harmonics)
        weights = rng.uniform(0.4, 1.0, n_harmonics)
        weights *= amp / np.sum(weights)
        prof = np.zeros(season_len)
        for h in range(n_harmonics):
            prof += weights[h] * np.sin(2 * np.pi * (h + 1) * t / season_len + phase[h])
        season = np.tile(prof, n_steps // season_len + 1)[:n_steps]
        innov = rng.standard_normal(n_steps) * doc["ar_std"]
        x = season + reference_ar1_recursion(innov, doc["ar_coeff"])
        if obs_noise > 0:
            x = x + rng.standard_normal(n_steps) * obs_noise
        out[ch] = x
    return out


# A synthetic spec document written when the generator had three more knobs,
# each at the one value any caller set.
RETIRED_SYNTH = {"season_amp": 1.0, "n_harmonics": 3, "obs_noise": 0.0}
PARENT_SYNTH = {
    "ar_coeff": 0.9, "ar_std": 0.25, "n_channels": 2, "n_harmonics": 3, "n_steps": 6000,
    "obs_noise": 0.0, "season_amp": 1.0, "season_len": 64, "seed": 2024,
}


def _assert_rel_close(actual, desired, rtol=1e-9):
    # Relative to the largest entry, so that entries near zero are held to
    # the array's scale rather than to their own.
    desired = np.asarray(desired)
    np.testing.assert_allclose(actual, desired, rtol=rtol, atol=rtol * np.abs(desired).max())


class TestLoadCsv:
    def test_small_two_channel(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,4\n2,5\n3,6\n")
        values = load_csv(path, CsvSchema(channel_cols=("a", "b")))
        assert values.shape == (2, 3)
        np.testing.assert_array_equal(values, [[1, 2, 3], [4, 5, 6]])

    def test_ett_format_all_non_date(self, tmp_path):
        names = ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]
        path = tmp_path / "etth1.csv"
        lines = ["date," + ",".join(names)]
        for i in range(50):
            lines.append(f"2016-07-01 {i:02d}:00:00," + ",".join(str(i + j) for j in range(7)))
        path.write_text("\n".join(lines) + "\n")
        values = load_csv(path, CsvSchema(timestamp_col="date"))
        assert values.shape == (7, 50)

    def test_nan_cell_names_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n1\nNaN\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n1\noops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a\n1\n")
        with pytest.raises(ValueError, match="column not found"):
            load_csv(path, CsvSchema(channel_cols=("zz",)))

    def test_roundtrip_with_writer(self, tmp_path):
        values = np.arange(12.0).reshape(2, 6)
        path = tmp_path / "x.csv"
        write_csv(path, values)
        back = load_csv(path, CsvSchema(timestamp_col="t"))
        np.testing.assert_allclose(back, values)


class TestStandardization:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 5.0, size=(3, 500))
        stats = NormStats.from_values(values)
        back = invert(stats, stats.apply(values))
        np.testing.assert_allclose(back, values, atol=1e-9)

    def test_constant_channel(self):
        values = np.full((1, 100), 4.2)
        stats = NormStats.from_values(values)
        back = invert(stats, stats.apply(values))
        np.testing.assert_allclose(back, values, atol=1e-9)

    def test_patch_count(self):
        series = PatchSeries.from_values(np.arange(103.0)[None, :], patch_len=10)
        assert series.n_patches == 10
        assert series.patches.shape == (1, 10, 10)


class TestChronologicalSplit:
    def test_partition_order(self):
        values = np.arange(100.0)[None, :]
        tr, va, te = chronological_split(values, (0.6, 0.2, 0.2))
        assert tr.shape[1] == 60 and va.shape[1] == 20 and te.shape[1] == 20
        assert tr[0, -1] < va[0, 0] < te[0, 0]

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            chronological_split(np.zeros((1, 10)), (0.5, 0.2, 0.2))


class TestFitLinearAr:
    def test_exact_seasonal_fit(self):
        values = SyntheticSpec(4096, n_channels=1, season_len=16, ar_std=0.0, seed=3).generate()
        series = PatchSeries.from_values(values, patch_len=16)
        model = fit_linear_ar(series, lookback=2, ridge=1e-8)
        # held out: predict each next patch of the tail
        patches = series.channel_patches(0)
        window = patches[-3:-1]
        pred = model.predict_means(window[None])[0]
        np.testing.assert_allclose(pred, patches[-1], atol=1e-8)
        err = pred - patches[-1]
        assert float(np.mean(err ** 2)) <= 1e-10
        assert model.sigma <= 1e-5 or model.sigma == pytest.approx(1e-9, abs=1e-8)

    def test_large_ridge_predicts_mean_patch(self):
        values = SyntheticSpec(2048, n_channels=1, season_len=16, ar_std=0.0, seed=9).generate()
        series = PatchSeries.from_values(values, patch_len=16)
        model = fit_linear_ar(series, lookback=2, ridge=1e12)
        assert np.max(np.abs(model.weights)) < 1e-6
        window = series.channel_patches(0)[:2]
        pred = model.predict_means(window[None])[0]
        np.testing.assert_allclose(pred, series.patches.reshape(-1, 16).mean(axis=0), atol=1e-4)

    def test_scale_truncates_lookback(self):
        assert effective_lookback(8, 0.25) == 2
        values = ar1(6000, phi=0.8, seed=1)
        series = PatchSeries.from_values(values, patch_len=4)
        model = fit_linear_ar(series, lookback=8, ridge=1e-3, scale=0.25)
        d = 4
        assert model.lookback == 2
        assert model.param_count == d * (2 * d) + d

    def test_singular_without_ridge_advises(self):
        # exactly repeating series makes the normal equations singular
        values = np.tile(np.arange(8.0), 64)[None, :]
        series = PatchSeries.from_values(values, patch_len=8)
        with pytest.raises(ValueError, match="ridge"):
            fit_linear_ar(series, lookback=4, ridge=0.0)

    def test_needs_enough_patches(self):
        values = np.arange(32.0)[None, :]
        series = PatchSeries.from_values(values, patch_len=8)
        with pytest.raises(ValueError, match="at least"):
            fit_linear_ar(series, lookback=4, ridge=1e-3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_patches_are_named(self, bad):
        # Refused before any Gram work, with no RuntimeWarning on the way
        values = ar1(800, n_channels=2, phi=0.8, seed=5)
        stats = NormStats.from_values(values)
        values[1, 7 * 4 + 2] = bad
        values[1, 30 * 4] = bad
        series = PatchSeries.from_values(values, patch_len=4, norm_stats=stats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                fit_linear_ar(series, lookback=4, ridge=1e-3)
        assert str(got.value) == (
            "training patches must be finite; NaN or inf in channel 1 patch 7, channel 1 patch 30"
        )

    def test_patches_whose_sums_overflow_are_refused(self):
        # finite, but their squares overflow
        values = ar1(800, phi=0.8, seed=5) * 1e160
        series = PatchSeries.from_values(values, patch_len=4, norm_stats=NormStats(mean=[0.0], std=[1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow the sums of the normal equations"):
                fit_linear_ar(series, lookback=4, ridge=1e-3)

    def test_capacity_monotone_on_ar_data(self):
        # full lookback beats the truncated draft on held-out AR data whose
        # memory (lag 32) exceeds the truncated window, in the median over
        # seeds; with memory shorter than both windows the comparison would
        # be estimation noise
        def lagged_ar(n, lag, phi, seed):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(n)
            for t in range(lag, n):
                x[t] += phi * x[t - lag]
            return x[None, :]

        full_mse, quarter_mse = [], []
        for seed in range(20):
            values = lagged_ar(4096 + 512, lag=32, phi=0.9, seed=seed)
            train = PatchSeries.from_values(values[:, :4096], patch_len=8)
            stats = train.norm_stats
            test = PatchSeries.from_values(values[:, 4096:], patch_len=8, norm_stats=stats)
            patches = test.channel_patches(0)
            for scale, bucket in ((1.0, full_mse), (0.25, quarter_mse)):
                model = fit_linear_ar(train, lookback=8, ridge=1e-4, scale=scale)
                k = model.lookback
                windows = np.stack([patches[i - k : i] for i in range(k, patches.shape[0])])
                preds = model.predict_means(windows)
                truth = patches[k:]
                bucket.append(float(np.mean((preds - truth) ** 2)))
        assert np.median(full_mse) <= np.median(quarter_mse)


def _assert_fit_matches_reference(n_channels, lookback, scale, patch_len):
    values = ar1(501 * patch_len, n_channels=n_channels, phi=0.8, seed=n_channels)
    series = PatchSeries.from_values(values, patch_len=patch_len)
    for ridge in (1e-8, 1e-3, 1e3, 1e12):
        model = fit_linear_ar(series, lookback, ridge, scale)
        w, b, sigma = reference_fit_linear_ar(series, lookback, ridge, scale)
        _assert_rel_close(model.weights, w)
        _assert_rel_close(model.intercept, b)
        assert model.sigma == pytest.approx(sigma, rel=1e-9)


class TestWindowSumFit:
    @pytest.mark.parametrize("patch_len", [1, 3, 7])
    @pytest.mark.parametrize("lookback,scale", [(1, 1.0), (2, 1.0), (8, 1.0), (8, 0.25)])
    @pytest.mark.parametrize("n_channels", [1, 3])
    def test_matches_materialized_fit(self, n_channels, lookback, scale, patch_len):
        _assert_fit_matches_reference(n_channels, lookback, scale, patch_len)

    # The packed matrix splits its columns at h = ceil(k * d / 2): here h
    # falls inside a patch block, at 6 of n = 12 and at 8 of n = 15.
    @pytest.mark.parametrize("lookback,patch_len", [(3, 4), (5, 3)])
    @pytest.mark.parametrize("n_channels", [1, 3])
    def test_matches_materialized_fit_when_the_packed_split_cuts_a_patch(
        self, n_channels, lookback, patch_len
    ):
        _assert_fit_matches_reference(n_channels, lookback, 1.0, patch_len)

    @pytest.mark.parametrize("lookback,patch_len", [(1, 1), (3, 4), (5, 3), (8, 7)])
    def test_packed_normal_equations_are_the_reference_gram_in_rfp(
        self, lookback, patch_len, monkeypatch
    ):
        # n = 1, 12, 15 and 56. Every float array the assembly leaves
        # unfilled starts as NaN, so an entry it fails to write shows.
        empty = np.empty

        def nan_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", nan_empty)
        series = PatchSeries.from_values(
            ar1(97 * patch_len, n_channels=2, phi=0.8, seed=lookback), patch_len=patch_len
        )
        patches, k, ridge = series.patches, lookback, 0.5
        mu = patches.reshape(-1, patch_len).mean(axis=0)
        packed, rhs, x_mean, y_mean = models._packed_normal_equations(patches, mu, k, ridge)
        monkeypatch.undo()

        windows = np.lib.stride_tricks.sliding_window_view(patches, (k + 1, patch_len), axis=(1, 2))
        windows = windows[:, :, 0].reshape(-1, (k + 1) * patch_len)
        xc = windows[:, :-patch_len] - windows[:, :-patch_len].mean(axis=0)
        yc = windows[:, -patch_len:] - windows[:, -patch_len:].mean(axis=0)
        gram = xc.T @ xc
        gram[np.diag_indices_from(gram)] += ridge
        expected, info = lapack.dtrttf(np.asfortranarray(gram), transr="N", uplo="L")
        assert info == 0 and packed.shape == expected.shape
        _assert_rel_close(packed, expected, rtol=1e-12)
        assert rhs.flags.f_contiguous
        _assert_rel_close(rhs, xc.T @ yc, rtol=1e-12)
        _assert_rel_close(x_mean, windows[:, :-patch_len].mean(axis=0), rtol=1e-12)
        _assert_rel_close(y_mean, windows[:, -patch_len:].mean(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("patch_len", [1, 7])
    @pytest.mark.parametrize("lookback,scale", [(1, 1.0), (8, 1.0), (8, 0.25)])
    @pytest.mark.parametrize("n_channels", [1, 3])
    @pytest.mark.parametrize("row_block", [None, 3])
    def test_row_blocks_join_exactly(self, n_channels, lookback, scale, patch_len, row_block, monkeypatch):
        # Three full row blocks and a remainder of training rows per
        # channel, so lag products and residual terms cross block edges;
        # a row block of 3, shorter than the lookback, crosses several.
        if row_block is not None:
            monkeypatch.setattr(models, "_FIT_ROW_BLOCK", row_block)
        k = effective_lookback(lookback, scale)
        n_patches = 3 * models._FIT_ROW_BLOCK + 137 + k
        values = ar1(n_patches * patch_len, n_channels=n_channels, phi=0.8, seed=n_channels)
        series = PatchSeries.from_values(values, patch_len=patch_len)
        for ridge in (1e-8, 1e3):
            model = fit_linear_ar(series, lookback, ridge, scale)
            w, b, sigma = reference_fit_linear_ar(series, lookback, ridge, scale)
            _assert_rel_close(model.weights, w)
            _assert_rel_close(model.intercept, b)
            assert model.sigma == pytest.approx(sigma, rel=1e-9)

    def test_weights_and_intercept_are_frozen(self):
        series = PatchSeries.from_values(ar1(2048, n_channels=2, phi=0.7, seed=6), patch_len=4)
        model = fit_linear_ar(series, lookback=4, ridge=1e-3)
        # weights is the transpose of the C-ordered operand of the products
        assert model.weights.T.flags.c_contiguous
        for array in (model.weights, model.intercept, model.mean_patch):
            assert models._is_frozen(array)
        assert model.weights.shape == (4, 16) and model.intercept.shape == (4,)

    @pytest.mark.parametrize("n_patches", [163, 2366])
    def test_identical_patches_give_a_zero_gram(self, n_patches):
        # The pooled mean of these identical patches is off by a few ulps;
        # the centred residue still cancels exactly, and sigma is floored.
        rng = np.random.default_rng(n_patches)
        series = PatchSeries.from_values(np.tile(rng.standard_normal(3), n_patches)[None, :], patch_len=3)
        patch = series.patches[0, 0]
        with pytest.raises(ValueError, match="singular normal equations with ridge = 0"):
            fit_linear_ar(series, lookback=2, ridge=0.0)
        model = fit_linear_ar(series, lookback=2, ridge=1e-3)
        assert not model.weights.any()
        assert model.intercept.tobytes() == patch.tobytes()
        assert model.sigma == 1e-6

    def test_peak_memory_stays_near_the_gram(self):
        # 2 channels of 1500 patches of 16 at lookback 64: the feature matrix
        # alone is 23.5 MB, a dense (1024, 1024) Gram matrix 8.4 MB. The fit
        # holds one packed triangle of it, about half, and frees its work
        # arrays before making it.
        series = PatchSeries.from_values(ar1(24_000, n_channels=2, phi=0.8, seed=3), patch_len=16)
        k = 64
        budget = 0.8 * (k * series.patch_len) ** 2 * 8
        peaks = []
        for fit in (fit_linear_ar, reference_fit_linear_ar):
            tracemalloc.start()
            try:
                fit(series, k, 1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= budget < peaks[1]


def _error_of(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


class TestFitErrorsUnchanged:
    @pytest.mark.parametrize(
        "values,patch_len,lookback,ridge",
        [
            (ar1(512, seed=1), 4, 4, -1.0),
            (ar1(512, seed=1), 4, 4, float("nan")),
            (ar1(512, seed=1), 4, 4, float("inf")),
            (np.arange(32.0)[None, :], 8, 4, 1e-3),           # too few patches
            (np.tile(np.arange(8.0), 64)[None, :], 8, 4, 0.0),  # singular, ridge 0
            (np.full((2, 256), 3.5), 8, 2, 0.0),              # constant series
        ],
        ids=["negative-ridge", "nan-ridge", "inf-ridge", "too-few", "singular", "constant"],
    )
    def test_same_error_as_reference(self, values, patch_len, lookback, ridge):
        series = PatchSeries.from_values(values, patch_len=patch_len)
        got = _error_of(fit_linear_ar, series, lookback, ridge)
        assert got is not None and got[0] is ValueError
        assert got == _error_of(reference_fit_linear_ar, series, lookback, ridge)

    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    def test_factorization_failure(self, ridge, monkeypatch):
        # The packed factorization reports a failed pivot through its info.
        # ridge > 0 raises the LinAlgError that cho_factor raises for the
        # same pivot; ridge = 0 turns it into advice.
        def failing_dpftrf(n, a, **kwargs):
            return a, 2

        monkeypatch.setattr(models, "dpftrf", failing_dpftrf)
        series = PatchSeries.from_values(ar1(512, seed=2), patch_len=4)
        got = _error_of(fit_linear_ar, series, 4, ridge)
        if ridge == 0:
            assert got == (ValueError, "singular normal equations with ridge = 0; refit with ridge > 0")
        else:
            # the second leading minor of this matrix is -3
            assert got == _error_of(cho_factor, np.array([[1.0, 2.0], [2.0, 1.0]]))
            assert got[0] is LinAlgError


class TestSynth:
    @pytest.mark.parametrize("phi", [0.5, 0.9, 0.99, -0.7])
    def test_ar1_matches_step_loop(self, phi):
        got = ar1(5000, n_channels=2, phi=phi, noise_std=0.3, seed=8)
        rng = np.random.Generator(np.random.Philox(key=8))
        want = np.stack([reference_ar1_recursion(rng.standard_normal(5000) * 0.3, phi) for _ in range(2)])
        assert got.tobytes() == want.tobytes()

    def test_seasonal_ar_matches_step_loop(self):
        spec = SyntheticSpec(n_steps=20_000)
        assert spec.generate().tobytes() == reference_seasonal_ar({**spec.to_dict(), **RETIRED_SYNTH}).tobytes()

    def test_parent_synthetic_spec_loads_and_generates_its_series(self):
        # the retired knobs at the values every caller set load, and give
        # the series the generator that read them made
        spec = SyntheticSpec.from_dict(PARENT_SYNTH)
        assert spec.to_dict() == {k: v for k, v in PARENT_SYNTH.items() if k not in RETIRED_SYNTH}
        assert spec.generate().tobytes() == reference_seasonal_ar(PARENT_SYNTH).tobytes()
        assert SyntheticSpec.from_dict({**PARENT_SYNTH, "n_harmonics": 3.0}) == spec

    @pytest.mark.parametrize(
        "key,value",
        [("season_amp", 2.0), ("season_amp", "1.0"), ("n_harmonics", 1), ("obs_noise", 0.1), ("obs_noise", None)],
    )
    def test_retired_synthetic_key_at_another_value_is_refused(self, key, value):
        message = f"synthetic spec key {key!r} is retired and must be {RETIRED_SYNTH[key]!r} or absent, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntheticSpec.from_dict({**PARENT_SYNTH, key: value})

    def test_check_real_takes_real_numbers_and_names_the_key(self):
        # numpy scalars are numbers; strings, None and arrays are not
        assert check_real("k", np.float32(0.5)) == 0.5 and type(check_real("k", np.int64(2))) is float
        assert check_real("k", 0, "finite and >= 0") == 0.0 and check_real("k", -3, "finite") == -3.0
        cases = [
            ("1", "finite and > 0", "k must be finite and > 0, got '1'"),
            (None, "finite", "k must be finite, got None"),
            (np.array(1.0), "finite", "k must be finite, got array(1.)"),
            (0.0, "finite and > 0", "k must be finite and > 0, got 0.0"),
            (-1e-300, "finite and >= 0", "k must be finite and >= 0, got -1e-300"),
            (math.inf, "finite", "k must be finite, got inf"),
        ]
        for value, rule, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check_real("k", value, rule)

    def test_seed_outside_the_philox_key_range_is_refused_by_the_spec(self):
        # The seed is the Philox key, which must lie in [0, 2**128): the spec
        # refuses any other value where it is built, not at generate()
        for seed in (-1, 2 ** 128):
            message = f"seed must be in [0, 2**128), the range of a Philox key, got {seed}"
            with pytest.raises(ValueError, match=re.escape(message)):
                SyntheticSpec(n_steps=100, seed=seed)
        for seed in (0, 2 ** 128 - 1):
            assert SyntheticSpec(n_steps=100, n_channels=1, season_len=16, seed=seed).generate().shape == (1, 100)


    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("ar_coeff", math.nan, "ar_coeff must be finite, got nan"),
            ("ar_coeff", -math.inf, "ar_coeff must be finite, got -inf"),
            ("ar_coeff", "0.9", "ar_coeff must be finite, got '0.9'"),
            ("ar_std", math.inf, "ar_std must be finite and >= 0, got inf"),
            ("ar_std", -0.01, "ar_std must be finite and >= 0, got -0.01"),
            ("ar_std", None, "ar_std must be finite and >= 0, got None"),
        ],
    )
    def test_degenerate_generator_parameters_are_refused_by_the_spec(self, field, value, message):
        # each would divide by zero, fail inside numpy, or give a non-finite
        # (or silently noise-free) series that only a later fit refuses
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntheticSpec(n_steps=100, **{field: value})


def _both_means(model, window):
    """The next-patch mean of one window, from mean_one and predict_means."""
    one = model.mean_one(window)
    # one window's product may take another BLAS path than a stack's
    np.testing.assert_allclose(model.predict_means(window[None])[0], one, rtol=1e-12, atol=1e-12)
    return one


class TestPredict:
    def test_persistence_returns_last_patch(self):
        model = persistence_model(patch_len=3, sigma=0.5)
        h = History.from_patches(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 1)
        np.testing.assert_array_equal(_both_means(model, h.window()), [4.0, 5.0, 6.0])

    def test_linear_exact_seasonal_mean(self):
        values = SyntheticSpec(4096, n_channels=1, season_len=16, ar_std=0.0, seed=3).generate()
        series = PatchSeries.from_values(values, patch_len=16)
        model = fit_linear_ar(series, lookback=2, ridge=1e-8)
        patches = series.channel_patches(0)
        h = History.from_patches(patches[:-1], 2)
        np.testing.assert_allclose(_both_means(model, h.window()), patches[-1], atol=1e-8)
        # a longer window is cut to the most recent lookback patches
        np.testing.assert_allclose(model.predict_means(patches[None, :-1])[0], patches[-1], atol=1e-8)

    def test_mean_bias_shifts_first_coordinate(self):
        model = persistence_model(patch_len=3, sigma=1.0, mean_bias=1.5)
        h = History.from_patches(np.zeros((1, 3)), 1)
        mean = _both_means(model, h.window())
        np.testing.assert_allclose(mean, [1.5, 0.0, 0.0])
        assert np.linalg.norm(mean) == pytest.approx(1.5)

    @pytest.mark.parametrize("bias", [-1.0, math.inf, math.nan, "0.5"])
    def test_mean_bias_is_a_finite_norm(self, bias):
        # as a spec's biases: an infinite shift would only show up as a
        # non-finite mean in the decode
        shown = repr(bias) if isinstance(bias, str) else bias
        with pytest.raises(ValueError, match=f"^{re.escape(f'mean_bias must be finite and >= 0, got {shown}')}$"):
            persistence_model(patch_len=3, mean_bias=bias)

    def test_oracle_ar1_conditional_mean(self):
        model = oracle_ar1(patch_len=3, phi=0.5)
        h = History.from_patches(np.array([[0.0, 0.0, 2.0]]), 1)
        np.testing.assert_array_equal(_both_means(model, h.window()), [1.0, 0.5, 0.25])
        # bit for bit x * phi^(1..d) for any last step x
        rng = np.random.default_rng(8)
        for d, phi in ((1, 0.9), (4, -0.7), (32, 0.99)):
            model = oracle_ar1(patch_len=d, phi=phi)
            for window in rng.normal(size=(20, 1, d)):
                want = window[-1, -1] * phi ** np.arange(1, d + 1)
                assert model.mean_one(window).tobytes() == want.tobytes()
                assert model.predict_means(window[None])[0].tobytes() == want.tobytes()

    def test_deterministic(self):
        values = ar1(2048, phi=0.7, seed=2)
        series = PatchSeries.from_values(values, patch_len=4)
        model = fit_linear_ar(series, lookback=4, ridge=1e-3)
        h = History.from_patches(series.channel_patches(0)[:4], 4)
        a = _both_means(model, h.window())
        b = _both_means(model, h.window())
        assert a.tobytes() == b.tobytes()


class TestMeanWeights:
    @staticmethod
    def _random_model(rng, patch_len, lookback):
        weights = rng.normal(size=(patch_len, lookback * patch_len))
        weights.flags.writeable = False
        return models.ForecastModel(
            kind=models.KIND_LINEAR, patch_len=patch_len, lookback=lookback, sigma=1.0,
            weights=weights, intercept=rng.normal(size=patch_len),
        )

    @pytest.mark.parametrize("patch_len", [1, 3])
    @pytest.mark.parametrize("lookback", [1, 8, 96])
    def test_means_match_the_weights_product(self, patch_len, lookback):
        # mean_batch once multiplied by the F-ordered view weights.T and
        # mean_one by weights itself; the C-ordered copy moves only last bits
        rng = np.random.default_rng(100 * patch_len + lookback)
        model = self._random_model(rng, patch_len, lookback)
        buf = rng.normal(size=(lookback + 5, patch_len))
        # overlapping windows as the engine passes them, then longer ones
        overlapping = np.lib.stride_tricks.sliding_window_view(buf, lookback, axis=0).transpose(0, 2, 1)
        longer = rng.normal(size=(4, lookback + 2, patch_len))
        for windows in (overlapping, longer):
            recent = windows[:, -lookback:]
            flat = np.stack([w.reshape(-1) for w in recent])
            want = flat @ model.weights.T + model.intercept
            scale = np.max(np.abs(want), axis=1)
            got = model.mean_batch(windows)
            assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)
            one = np.stack([model.mean_one(w) for w in recent])
            assert np.all(np.max(np.abs(one - want), axis=1) <= 1e-12 * scale)

    @pytest.mark.parametrize("kind", [models.KIND_LINEAR, models.KIND_PERSISTENCE])
    @pytest.mark.parametrize("bias", [0.0, 0.7])
    def test_means_written_in_place_are_bit_for_bit(self, kind, bias):
        # mean_one(window, out=row) and mean_batch(windows, out=rows), as the
        # decode engine calls them, return the no-out means' bits in the given
        # rows and write nothing else
        rng = np.random.default_rng(31)
        patch_len, lookback = 3, 8
        if kind == models.KIND_LINEAR:
            model = self._random_model(rng, patch_len, lookback)
        else:
            model = persistence_model(patch_len=patch_len, sigma=1.0)
        model = dataclasses.replace(model, mean_bias=bias)
        buf = rng.normal(size=(lookback + 4, patch_len))
        overlapping = np.lib.stride_tricks.sliding_window_view(buf, lookback, axis=0).transpose(0, 2, 1)
        sentinel = 12345.0
        for window in overlapping:
            out = np.full((3, patch_len), sentinel)
            got = model.mean_one(window, out=out[1])
            assert np.shares_memory(got, out[1])
            assert out[1].tobytes() == model.mean_one(window).tobytes()
            assert np.all(out[[0, 2]] == sentinel)
        out = np.full((len(overlapping) + 2, patch_len), sentinel)
        got = model.mean_batch(overlapping, out=out[1:-1])
        assert np.shares_memory(got, out)
        assert out[1:-1].tobytes() == model.mean_batch(overlapping).tobytes()
        assert np.all(out[[0, -1]] == sentinel)

    @pytest.mark.parametrize("lookback", [96, 24])
    def test_dot_products_are_the_matmul_products_bit_for_bit(self, lookback):
        # The products go through ndarray.dot; at the benchmark's shapes
        # (target lookback 96, draft 24, patch 32) every mean, with and
        # without out, has the bits of matmul on the same weight copy
        rng = np.random.default_rng(lookback)
        patch_len = 32
        model = self._random_model(rng, patch_len, lookback)
        stacked = model.weights.T
        buf = rng.normal(size=(lookback + 3, patch_len))
        windows = np.lib.stride_tricks.sliding_window_view(buf, lookback, axis=0).transpose(0, 2, 1)
        flat = np.stack([w.reshape(-1) for w in windows])
        want = np.matmul(flat, stacked) + model.intercept
        out = np.empty_like(want)
        assert model.mean_batch(windows).tobytes() == want.tobytes()
        assert model.mean_batch(windows, out=out) is out and out.tobytes() == want.tobytes()
        for window, row in zip(windows, flat):
            want = np.matmul(row, stacked) + model.intercept
            out = np.empty(patch_len)
            assert model.mean_one(window).tobytes() == want.tobytes()
            assert model.mean_one(window, out=out) is out and out.tobytes() == want.tobytes()

    def test_strided_out_is_refused(self):
        # ndarray.dot writes only into a C-contiguous float64 out
        rng = np.random.default_rng(6)
        model = self._random_model(rng, 3, 8)
        windows = rng.normal(size=(2, 8, 3))
        with pytest.raises(ValueError):
            model.mean_one(windows[0], out=np.empty((3, 2))[:, 0])
        with pytest.raises(ValueError):
            model.mean_batch(windows, out=np.empty((2, 6))[:, ::2])

    def test_weights_are_the_frozen_aligned_operand(self):
        rng = np.random.default_rng(5)
        model = self._random_model(rng, 3, 8)
        operand = model._operand
        assert operand.shape == (24, 3) and operand.flags.c_contiguous
        assert operand.ctypes.data % models._CACHE_LINE == 0
        assert models._is_frozen(operand) and models._is_frozen(model.weights)
        assert model.weights.shape == (3, 24) and np.shares_memory(model.weights, operand)
        assert model.weights.T.tobytes() == operand.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            model.weights[0, 0] = 1.0

    def test_caller_arrays_cannot_change_the_model(self):
        weights, intercept = np.ones((2, 4)), np.zeros(2)
        model = models.ForecastModel(
            kind=models.KIND_LINEAR, patch_len=2, lookback=2, sigma=1.0, weights=weights, intercept=intercept,
        )
        window = np.ones((2, 2))
        assert model.mean_one(window).tolist() == [4.0, 4.0]
        weights[:] = 0.0
        intercept[:] = 5.0
        assert model.mean_one(window).tolist() == [4.0, 4.0]
        assert model.mean_batch(window[None]).tolist() == [[4.0, 4.0]]
        assert model.weights.tolist() == np.ones((2, 4)).tolist() and model.intercept.tolist() == [0.0, 0.0]
        # a writable mean patch is copied too
        pad = np.full(2, 3.0)
        model = dataclasses.replace(model, mean_patch=pad)
        pad[:] = 0.0
        assert model.pad_patch().tolist() == [3.0, 3.0]

    def test_replaced_copies_share_the_operand(self):
        rng = np.random.default_rng(7)
        model = self._random_model(rng, 3, 8)
        for copy in (
            dataclasses.replace(model, sigma=0.5),
            dataclasses.replace(model, mean_bias=0.2),
            dataclasses.replace(dataclasses.replace(model, sigma=2.0), mean_bias=1.0),
        ):
            assert copy.weights is model.weights and copy.intercept is model.intercept
            assert np.shares_memory(copy._operand, model._operand)
        # new weights get their own operand
        scaled = dataclasses.replace(model, weights=model.weights * 2.0)
        assert not np.shares_memory(scaled._operand, model._operand)
        assert scaled.weights.T.tobytes() == (model.weights.T * 2.0).tobytes()

    def test_first_means_allocate_no_weights_copy(self):
        # at the benchmark's target shapes (lookback 96, patch 32) the
        # weights are 786 KB; the first products must not copy them
        series = PatchSeries.from_values(ar1(200 * 32, n_channels=1, phi=0.8, seed=1), patch_len=32)
        model = fit_linear_ar(series, lookback=96, ridge=1e3)
        windows = np.stack([series.patches[0, i : i + 96] for i in range(2)])
        tracemalloc.start()
        try:
            model.mean_one(windows[0])
            one_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            model.mean_batch(windows)
            batch_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert one_peak < 4096 and batch_peak < 4096, (one_peak, batch_peak)

    def test_saved_and_loaded_model_gives_the_same_means(self, tmp_path):
        series = PatchSeries.from_values(ar1(4096, n_channels=2, phi=0.7, seed=3), patch_len=4)
        model = fit_linear_ar(series, lookback=6, ridge=1e-3)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.weights.tobytes() == model.weights.tobytes()
        assert all(models._is_frozen(a) for a in (back.weights, back.intercept, back.mean_patch))
        windows = np.stack([series.patches[1, i : i + 6] for i in range(5)])
        assert back.mean_batch(windows).tobytes() == model.mean_batch(windows).tobytes()
        for window in windows:
            assert back.mean_one(window).tobytes() == model.mean_one(window).tobytes()


class TestHistory:
    def test_keeps_the_most_recent_patches(self):
        patches = np.stack([np.full(2, float(i)) for i in range(1, 5)])
        h = History.from_patches(patches, 3)
        assert h.lookback == 3
        np.testing.assert_array_equal(h.window(), patches[1:])
        out = np.empty((2, 2))
        h.fill_window(out)
        np.testing.assert_array_equal(out, patches[2:])

    def test_left_padding(self):
        pad = np.array([7.0, 7.0])
        h = History.from_patches(np.array([[1.0, 1.0]]), 3, pad)
        window = h.window()
        np.testing.assert_array_equal(window[0], pad)
        np.testing.assert_array_equal(window[1], pad)
        np.testing.assert_array_equal(window[2], [1.0, 1.0])
        # no pad patch pads with zeros, and an empty history is all pad
        np.testing.assert_array_equal(History.from_patches(np.ones((1, 2)), 2).window(), [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(History.from_patches(np.empty((0, 2)), 2, pad).window(), [pad, pad])
        with pytest.raises(ValueError, match="lookback must be >= 1"):
            History.from_patches(np.ones((1, 2)), 0)

    def test_pad_of_another_width_is_refused(self):
        # a width-1 patch would be broadcast across a width-4 pad
        with pytest.raises(ValueError, match=r"patch width 1 does not match the pad patch shape \(4,\)"):
            History.from_patches(np.ones((2, 1)), 3, np.zeros(4))
        with pytest.raises(ValueError, match=r"patch width 4 does not match the pad patch shape \(2,\)"):
            History.from_patches(np.ones((2, 4)), 3, np.zeros(2))
        assert History.from_patches(np.ones((2, 4)), 3, np.zeros(4)).d == 4

    def test_context_is_read_only(self):
        patches = np.arange(6.0).reshape(3, 2)
        h = History.from_patches(patches, 3)
        want = patches.copy()
        patches[0, 0] = 99.0  # the caller's array is copied
        window = h.window()
        window[:] = -1.0  # and so is every window handed out
        np.testing.assert_array_equal(h.window(), want)
        out = np.empty((3, 2))
        h.fill_window(out)
        np.testing.assert_array_equal(out, want)

    def test_shapes_other_than_a_matrix_and_a_vector_are_refused(self):
        with pytest.raises(ValueError, match=r"patches must be 2-D \(n, d\), got shape \(1, 4, 2\)"):
            History.from_patches(np.ones((1, 4, 2)), 3)
        for shape in ((1, 4), (2, 4), ()):
            with pytest.raises(ValueError, match=rf"pad patch must be 1-D \(d,\), got shape {re.escape(str(shape))}"):
                History.from_patches(np.ones((2, 4)), 3, np.zeros(shape))

    def test_a_frozen_source_is_viewed(self):
        series = PatchSeries.from_values(ar1(400, seed=3), patch_len=4)
        source = series.channel_patches(0)[5:40]
        for patches in (series.patches[0], source, source[-1]):
            lookback = min(8, len(np.atleast_2d(patches)))
            h = History.from_patches(patches, lookback, np.zeros(4))
            assert np.shares_memory(h._context, series.values)
            assert not h._context.flags.writeable
            np.testing.assert_array_equal(h.window(), np.atleast_2d(patches)[-lookback:])
        # every test window's context is cut from the frozen test series
        window = build_test_windows(series, 8, 2, 10)[3]
        assert np.shares_memory(History.from_patches(window.context, 8)._context, series.values)

    def test_a_source_that_could_change_is_copied(self):
        values = np.arange(24.0).reshape(6, 4)
        writable = values.copy()
        read_only_view = writable[1:]
        read_only_view.flags.writeable = False
        buffer = bytearray(values.tobytes())
        buffered = np.frombuffer(buffer).reshape(6, 4)
        buffered.flags.writeable = False
        narrow = values.astype(np.float32)
        narrow.flags.writeable = False
        frozen = values.copy()
        frozen.flags.writeable = False
        pad = np.full(4, -1.0)
        cases = {
            "writable": (writable, values[-3:]),
            "read-only view of a writable base": (read_only_view, values[-3:]),
            "read-only view of a bytearray": (buffered, values[-3:]),
            "float32": (narrow, values[-3:]),
            "short": (frozen[:2], np.concatenate([[pad], values[:2]])),
        }
        histories = {name: History.from_patches(patches, 3, pad) for name, (patches, _) in cases.items()}
        writable[:] = 99.0  # also written through the read-only view
        buffer[:] = bytes(len(buffer))  # and through the buffered array
        for name, (patches, want) in cases.items():
            context = histories[name]._context
            assert not np.shares_memory(context, patches), name
            assert not context.flags.writeable, name
            np.testing.assert_array_equal(context, want, err_msg=name)

    def test_views_allocate_no_copies(self):
        # 100 contexts of lookback 96 and width 32 as copies take
        # 100 * 96 * 32 * 8 bytes, 2.46 MB; as views, only their objects.
        lookback, d = 96, 32
        series = PatchSeries.from_values(ar1((lookback + 100) * d, seed=1), patch_len=d)
        frozen = [series.channel_patches(0)[i : i + lookback] for i in range(100)]
        writable = [patches.copy() for patches in frozen]
        traced = []
        for sources in (frozen, writable):
            tracemalloc.start()
            histories = [History.from_patches(patches, lookback) for patches in sources]
            traced.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            del histories
        assert traced[0] < 100_000
        assert traced[1] > 100 * lookback * d * 8

    def test_defines_its_methods_on_the_class(self):
        # Method wrappers (the benchmark's tracer) patch History.__dict__, so
        # every method it has under these names must be its own.
        for name in ("copy", "fill_window", "extend", "append", "window"):
            if hasattr(History, name):
                assert name in History.__dict__, name


class TestMetrics:
    def test_perfect_forecast(self):
        x = np.ones((3, 4))
        assert metrics(x, x) == {"mse": 0.0, "mae": 0.0}

    def test_constant_offset(self):
        truth = np.zeros((2, 5))
        m = metrics(truth + 1.0, truth)
        assert m["mse"] == pytest.approx(1.0)
        assert m["mae"] == pytest.approx(1.0)

    def test_against_independent_accumulation(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(4, 6))
        m = metrics(a, b)
        sq = ab = 0.0
        count = 0
        for i in range(4):
            for j in range(6):
                sq += (a[i, j] - b[i, j]) ** 2
                ab += abs(a[i, j] - b[i, j])
                count += 1
        assert m["mse"] == pytest.approx(sq / count, rel=1e-12)
        assert m["mae"] == pytest.approx(ab / count, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            metrics(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        values = ar1(2048, phi=0.7, seed=4)
        series = PatchSeries.from_values(values, patch_len=4)
        model = fit_linear_ar(series, lookback=4, ridge=1e-3)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == model.kind
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.intercept, model.intercept)
        assert back.sigma == model.sigma
        assert back.param_count == model.param_count

    def test_refit_byte_identical(self, tmp_path):
        def fit_and_dump(path):
            values = ar1(2048, phi=0.7, seed=4)
            series = PatchSeries.from_values(values, patch_len=4)
            model = fit_linear_ar(series, lookback=4, ridge=1e-3)
            save_model(model, path)
            return path.read_bytes()

        a = fit_and_dump(tmp_path / "a.json")
        b = fit_and_dump(tmp_path / "b.json")
        assert a == b

    def test_loads_files_with_the_retired_oracle_key(self, tmp_path):
        # files written while a third model kind existed carry
        # "oracle_phi": null; they load as before, and that kind is refused
        model = persistence_model(patch_len=2, sigma=0.5)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert "oracle_phi" not in doc
        path.write_text(json.dumps({**doc, "oracle_phi": None}))
        back = load_model(path)
        assert (back.kind, back.patch_len, back.sigma) == ("persistence", 2, 0.5)
        path.write_text(json.dumps({**doc, "kind": "synthetic_oracle", "oracle_phi": 0.9}))
        with pytest.raises(ValueError, match="unknown model kind 'synthetic_oracle'"):
            load_model(path)

    def test_loads_files_with_the_retired_seed_key(self, tmp_path):
        # the fit has no randomness, so its seed is gone; files written
        # while it was recorded carry "seed" and load as before
        series = PatchSeries.from_values(ar1(2048, phi=0.7, seed=4), patch_len=4)
        model = fit_linear_ar(series, lookback=4, ridge=1e-3)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert "seed" not in doc
        for seed in (None, 0, 7):
            path.write_text(json.dumps({**doc, "seed": seed}))
            back = load_model(path)
            np.testing.assert_array_equal(back.weights, model.weights)
            assert (back.kind, back.sigma, back.lookback) == (model.kind, model.sigma, model.lookback)

    def test_intercept_of_another_width_is_refused(self, tmp_path):
        series = PatchSeries.from_values(ar1(2048, phi=0.7, seed=4), patch_len=4)
        path = tmp_path / "m.json"
        save_model(fit_linear_ar(series, lookback=4, ridge=1e-3), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "intercept": doc["intercept"][:3]}))
        with pytest.raises(ValueError, match=re.escape("intercept shape (3,) != (4,)")):
            load_model(path)

    @pytest.mark.parametrize("name", ["weights", "intercept", "mean_patch"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_are_refused(self, name, bad, tmp_path):
        series = PatchSeries.from_values(ar1(2048, phi=0.7, seed=4), patch_len=4)
        path = tmp_path / "m.json"
        save_model(fit_linear_ar(series, lookback=4, ridge=1e-3), path)
        doc = json.loads(path.read_text())
        doc[name][1] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            load_model(path)

    def test_self_describing_json(self, tmp_path):
        model = persistence_model(patch_len=2, sigma=1.0)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "persistence"
        assert "format_version" in doc
