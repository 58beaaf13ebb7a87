"""CLI and harness smoke: scan -> calibrate -> manifest, replay, exit codes."""

import dataclasses
import json
import math
import re

import pytest

from speccast import harness, validate
from speccast.cli import content_digest, main
from speccast.harness import DataSpec, RunResult
from speccast.models import load_model, save_model
from speccast.validate import SuiteResult

# A tiny synthetic sweep: one channel, 8-step patches, 3 test windows of
# 4 patches, both speculative variants plus the target-only baseline.
SCAN = [
    "scan", "--synthetic", "seasonal-ar", "--synth-steps", "6000", "--synth-channels", "1",
    "--synth-season", "64", "--patch-len", "8", "--lookback", "4", "--horizon", "32",
    "--sigmas", "0.5", "--gammas", "2", "--variants", "practical,lossless", "--max-windows", "3",
]


@pytest.fixture(autouse=True)
def _no_default_out_dir(monkeypatch):
    monkeypatch.delenv("SPECCAST_OUT_DIR", raising=False)


def _records(results_path):
    with open(results_path) as fh:
        return [RunResult.from_dict(json.loads(line)) for line in fh if line.strip()]


def _digests(results_path):
    return [r.determinism_digest() for r in _records(results_path)]


@pytest.fixture
def no_fitting(monkeypatch):
    """Fail at once if a scan gets as far as fitting."""
    def refuse(spec):
        raise AssertionError("scan reached run_experiment")
    monkeypatch.setattr(harness, "run_experiment", refuse)


def test_scan_calibrate_manifest_and_replay(tmp_path, capsys):
    first, flagged = tmp_path / "first", tmp_path / "flagged.json"
    assert main([*SCAN, "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["command"] == "scan"
    assert manifest["outputs"] == {"results.jsonl": content_digest(first / "results.jsonl")}
    digests = _digests(first / "results.jsonl")
    with open(first / "results.jsonl") as fh:
        variants = [json.loads(line)["variant"] for line in fh]
    assert variants == ["target_only", "practical", "lossless"]

    # Replaying the manifest's resolved spec reproduces every digest.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(manifest["resolved"]))
    replay = tmp_path / "replay"
    assert main(["scan", "--spec", str(spec), "--out", str(replay)]) == 0
    assert json.loads((replay / "manifest.json").read_text())["outputs"] == manifest["outputs"]
    assert _digests(replay / "results.jsonl") == digests

    results = str(first / "results.jsonl")
    assert main(["calibrate", "--results", results, "--out", str(flagged), "--flag-threshold", "0"]) == 0
    rows = json.loads(flagged.read_text())["rows"]
    assert [r["variant"] for r in rows] == ["practical", "lossless"]
    assert all(r["flagged"] for r in rows)  # a zero threshold flags any gap
    # calibration failure: exit 1 only under --strict
    assert main(["calibrate", "--results", results, "--strict", "--flag-threshold", "0"]) == 1
    assert main(["calibrate", "--results", results, "--strict", "--flag-threshold", "1e9"]) == 0
    assert "calibration flags raised" in capsys.readouterr().err

    # a line with a key the record does not have, such as one written
    # before the record held each figure once, is refused by name
    line = json.loads((first / "results.jsonl").read_text().splitlines()[1])
    old = tmp_path / "old.jsonl"
    old.write_text(json.dumps({**line, "report": None}) + "\n")
    capsys.readouterr()
    assert main(["calibrate", "--results", str(old)]) == 2
    assert capsys.readouterr().err == "error: unknown run result key(s): 'report'\n"

    # a cost written when it still carried its one source, "measured",
    # loads; any other source is refused by name
    old.write_text(json.dumps({**line, "cost": {**line["cost"], "source": "measured"}}) + "\n")
    assert main(["calibrate", "--results", str(old)]) == 0
    assert _digests(old) == digests[1:2]
    old.write_text(json.dumps({**line, "cost": {**line["cost"], "source": "configured"}}) + "\n")
    capsys.readouterr()
    assert main(["calibrate", "--results", str(old)]) == 2
    assert capsys.readouterr().err == (
        "error: cost key 'source' is retired and must be 'measured' or absent, got 'configured'\n"
    )


def test_draft_only_is_decoded_once_per_point(tmp_path):
    out = tmp_path / "out"
    argv = [*SCAN, "--gammas", "2,3", "--variants", "practical,draft_only", "--biases", "0,0.3"]
    assert main([*argv, "--out", str(out)]) == 0
    records = _records(out / "results.jsonl")
    assert [(r.variant, r.gamma, r.bias) for r in records] == [
        ("target_only", 0, 0.0),
        ("practical", 2, 0.0), ("practical", 2, 0.3), ("practical", 3, 0.0), ("practical", 3, 0.3),
        ("draft_only", 0, 0.0), ("draft_only", 0, 0.3),
    ]
    assert len(set(_digests(out / "results.jsonl"))) == len(records)
    # the biased draft is the one both the estimate and the decode see
    biased = [r for r in records if r.variant == "practical" and r.bias == 0.3]
    unbiased = [r for r in records if r.variant == "practical" and r.bias == 0.0]
    assert all(b.alpha_hat < u.alpha_hat for b, u in zip(biased, unbiased))


def test_validate_exit_codes(tmp_path, monkeypatch, capsys):
    report = tmp_path / "report.json"
    assert main(["validate", "--suite", "gamma-rule", "--out", str(report)]) == 0
    suites = json.loads(report.read_text())["suites"]
    assert [(s["name"], s["passed"]) for s in suites] == [("gamma-rule", True)]
    # each suite's line carries its wall seconds; the report does not
    assert re.fullmatch(r"\[PASS\] gamma-rule \(\d+\.\d s\)\n", capsys.readouterr().out)
    assert "seconds" not in report.read_text()

    failing = SuiteResult(name="gamma-rule", failures=["injected failure"])
    monkeypatch.setitem(validate._SUITES, "gamma-rule", lambda seed=0: failing)
    assert main(["validate", "--suite", "gamma-rule"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--suite", "no-such-suite"],
        ["predict", "--alpha", "1.5", "--gamma", "3"],
        ["predict", "--alpha", "0.9", "--gamma", "3", "--c", "inf"],
        ["predict", "--alpha", "0.9", "--gamma", "3", "--c-hat", "inf"],
        ["fit", "--patch-len", "8", "--lookback", "4", "--out", "model.json"],  # no data source
        ["fit", "--synthetic", "seasonal-ar", "--synth-steps", "4000", "--patch-len", "8",
         "--lookback", "0", "--out", "model.json"],
        ["calibrate", "--results", "missing/results.jsonl"],
    ],
)
def test_usage_and_data_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_predict_ok_and_argparse_usage_error(capsys):
    assert main(["predict", "--alpha", "0.8", "--gamma", "3", "--c", "0.2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["gamma"] == 3
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


DATA = ["--synthetic", "seasonal-ar", "--synth-steps", "4000", "--synth-channels", "1",
        "--synth-season", "64"]


def _fit(path, *extra):
    assert main(["fit", *DATA, "--patch-len", "8", "--lookback", "4", "--out", str(path), *extra]) == 0
    return path


def test_fit_has_no_seed(tmp_path, capsys):
    # the ridge fit draws nothing: no --seed flag, and no seed in the
    # report, the manifest or the model file
    model = _fit(tmp_path / "fit" / "target.json")
    assert json.loads(capsys.readouterr().out)["sigma"] == load_model(model).sigma
    resolved = json.loads((tmp_path / "fit" / "manifest.json").read_text())["resolved"]
    assert "seed" not in resolved and "seed" not in json.loads(model.read_text())
    with pytest.raises(SystemExit) as exc:
        main(["fit", *DATA, "--patch-len", "8", "--lookback", "4", "--seed", "7", "--out", str(model)])
    assert exc.value.code == 2


def test_manifests_record_the_data_spec(tmp_path):
    model = _fit(tmp_path / "fit" / "target.json", "--synth-ar-std", "0.9", "--synth-ar-coeff", "0.5")
    data = json.loads((tmp_path / "fit" / "manifest.json").read_text())["resolved"]["data"]
    spec = DataSpec.from_dict(data)
    assert (spec.synthetic.ar_std, spec.synthetic.ar_coeff, spec.synthetic.n_steps) == (0.9, 0.5, 4000)
    assert main(["decode", *DATA, "--synth-ar-std", "0.9", "--synth-ar-coeff", "0.5", "--target", str(model),
                 "--variant", "target_only", "--horizon", "16", "--out", str(tmp_path / "dec")]) == 0
    assert json.loads((tmp_path / "dec" / "manifest.json").read_text())["resolved"]["data"] == data


def test_sigma_without_a_finite_inverse_variance_exits_2(tmp_path, capsys):
    target, draft = _fit(tmp_path / "target.json"), _fit(tmp_path / "draft.json", "--scale", "0.5")
    argv = ["decode", *DATA, "--target", str(target), "--draft", str(draft), "--horizon", "16",
            "--out", str(tmp_path / "out")]
    capsys.readouterr()
    for variant in ("practical", "lossless"):
        for sigma in ("1e-170", "1e-155"):
            assert main([*argv, "--sigma", sigma, "--variant", variant]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: sigma={sigma} is out of range") and err.count("\n") == 1
    # narrow heads with finite inverse variance decode, lossless as practical
    assert main([*argv, "--sigma", "1e-7", "--variant", "lossless"]) == 0


def test_lossless_tolerance_other_than_one_exits_2(tmp_path, capsys):
    target, draft = _fit(tmp_path / "target.json"), _fit(tmp_path / "draft.json", "--scale", "0.5")
    argv = ["decode", *DATA, "--target", str(target), "--draft", str(draft), "--horizon", "16",
            "--sigma", "0.5", "--out", str(tmp_path / "out")]
    capsys.readouterr()
    for lam in ("0.5", "2"):
        assert main([*argv, "--variant", "lossless", "--tolerance-lambda", lam]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lossless decoding requires tolerance_lambda == 1") and err.count("\n") == 1
        assert main([*argv, "--variant", "practical", "--tolerance-lambda", lam]) == 0
    # scan refuses before it fits anything
    scan = [*SCAN, "--tolerance-lambda", "1.7", "--out", str(tmp_path / "s")]
    capsys.readouterr()
    assert main(scan) == 2
    assert capsys.readouterr().err == "error: variant 'lossless' requires tolerance_lambda == 1, got 1.7\n"
    assert not (tmp_path / "s").exists()


def test_decode_decodes_every_channel(tmp_path):
    # Two channels, as the synthetic data has by default: every variant
    # decodes each of them, with a seed derived per channel.
    two = [*DATA[:-3], "2", *DATA[-2:]]
    fit = ["fit", *two, "--patch-len", "8", "--lookback", "4"]
    target, draft = tmp_path / "target.json", tmp_path / "draft.json"
    assert main([*fit, "--out", str(target)]) == 0
    assert main([*fit, "--scale", "0.5", "--out", str(draft)]) == 0
    for variant in ("target_only", "practical", "lossless"):
        out = tmp_path / variant
        assert main(["decode", *two, "--target", str(target), "--draft", str(draft), "--variant", variant,
                     "--horizon", "12", "--sigma", "0.5", "--seed", "5", "--out", str(out)]) == 0
        lines = (out / "forecast.csv").read_text().splitlines()[1:]
        by_channel = {ch: [row.split(",")[2] for row in lines if row.split(",")[1] == ch] for ch in ("0", "1")}
        assert len(lines) == 24 and all(len(v) == 12 for v in by_channel.values())
        assert by_channel["0"] != by_channel["1"]
        assert sorted(p.name for p in out.glob("trace_ch*.jsonl")) == ["trace_ch0.jsonl", "trace_ch1.jsonl"]


def test_decode_usage_errors_exit_2(tmp_path, capsys):
    target = _fit(tmp_path / "target.json")
    argv = ["decode", *DATA, "--target", str(target), "--horizon", "16", "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main([*argv, "--variant", "practical"]) == 2
    assert capsys.readouterr().err == "error: --variant practical requires --draft\n"
    # --bias is the draft model's mean_bias, set once on the loaded draft
    assert main([*argv, "--variant", "target_only", "--bias", "0.3"]) == 2
    assert capsys.readouterr().err == "error: --bias requires --draft\n"
    assert main([*argv, "--draft", str(target), "--variant", "draft_only", "--bias", "-1"]) == 2
    assert capsys.readouterr().err == "error: mean_bias must be >= 0, got -1.0\n"
    short = ["--synth-steps", "16"]  # two 8-step patches against a lookback of 4
    assert main([*argv, *short, "--variant", "target_only"]) == 2
    assert "channel 0: 2 patches of history, need 4" in capsys.readouterr().err
    # one head width for both models: --sigma; there are no per-model flags
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--variant", "target_only", "--sigma-target", "0.5"])
    assert exc.value.code == 2


def test_scan_spec_errors_exit_2(tmp_path, capsys, no_fitting):
    spec = tmp_path / "spec.json"
    base = {"data": {"synthetic": {"n_steps": 6000}}, "patch_len": 8, "lookback": 4, "horizon_steps": 32}
    cases = [
        ({**base, "bogus": 1}, "unknown spec key(s): 'bogus'"),
        ({k: v for k, v in base.items() if k != "data"}, "spec lacks required key(s): 'data'"),
        ({**base, "timing_passes": 50}, "spec key 'timing_passes' is retired"),
        # the nested documents are checked too, before any data is made
        ({**base, "data": {"synthetic": {"n_steps": 6000, "bogus": 1}}},
         "unknown synthetic spec key(s): 'bogus'"),
        ({**base, "data": {"synthetic": {"n_steps": 6000}, "csv_pth": "x.csv"}},
         "unknown data spec key(s): 'csv_pth'"),
        ({**base, "variants": ["practical", "lossless"], "tolerance_lambda": 0.6},
         "variant 'lossless' requires tolerance_lambda == 1, got 0.6"),
        ({**base, "gammas": [3, 0]}, "gammas must be >= 1, got 0"),
        ({**base, "patch_len": 0}, "patch_len must be >= 1, got 0"),
        ({**base, "lookback": 0}, "lookback must be >= 1, got 0"),
        ({**base, "horizon_steps": 0}, "horizon_steps must be >= patch_len 8, got 0"),
        ({**base, "sigmas": [0.5, 0.0]}, "sigmas must be finite and > 0, got 0.0"),
        ({**base, "biases": [-1.0]}, "biases must be finite and >= 0, got -1.0"),
        ({**base, "scales": [1.5]}, "scales must be in (0, 1], got 1.5"),
        ({**base, "max_test_windows": 0}, "max_test_windows must be >= 1, got 0"),
        ({**base, "data": {"synthetic": {"n_steps": 0}}}, "n_steps must be >= 1, got 0"),
        ({**base, "data": {"synthetic": {"n_steps": 6000, "n_channels": 0}}}, "n_channels must be >= 1, got 0"),
        ({**base, "data": {"synthetic": {"n_steps": 6000, "season_len": 0}}}, "season_len must be >= 1, got 0"),
        # degenerate generator parameters, refused before any data is made
        ({**base, "data": {"synthetic": {"n_steps": 6000, "n_harmonics": 0}}}, "n_harmonics must be >= 1, got 0"),
        ({**base, "data": {"synthetic": {"n_steps": 6000, "season_amp": math.nan}}},
         "season_amp must be a finite number, got nan"),
        ({**base, "data": {"synthetic": {"n_steps": 6000, "ar_std": math.inf}}},
         "ar_std must be a finite number, got inf"),
        ({**base, "data": {"synthetic": {"n_steps": 6000, "obs_noise": -0.5}}}, "obs_noise must be >= 0, got -0.5"),
        # sizes, counts and seeds are integers; lambda is finite and > 0
        ({**base, "gammas": [2.5]}, "gammas must be an integer, got 2.5"),
        ({**base, "max_test_windows": 4.5}, "max_test_windows must be an integer, got 4.5"),
        ({**base, "seeds": [0, 1.5]}, "seeds must be an integer, got 1.5"),
        ({**base, "patch_len": 8.0}, "patch_len must be an integer, got 8.0"),
        ({**base, "data": {"synthetic": {"n_steps": 20000.5}}}, "n_steps must be an integer, got 20000.5"),
        ({**base, "data": {"synthetic": {"n_steps": 6000, "seed": 1.5}}}, "seed must be an integer, got 1.5"),
        ({**base, "tolerance_lambda": -1.0}, "tolerance_lambda must be finite and > 0, got -1.0"),
        ({**base, "tolerance_lambda": 0.0}, "tolerance_lambda must be finite and > 0, got 0.0"),
    ]
    capsys.readouterr()
    for doc, message in cases:
        spec.write_text(json.dumps(doc))
        assert main(["scan", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1  # no traceback


def test_scan_flag_errors_exit_2_before_fitting(tmp_path, capsys, no_fitting):
    # SCAN without its data flags; the synthetic flags it keeps are harmless
    no_data = [a for a in SCAN if a not in ("--synthetic", "seasonal-ar")]
    out = tmp_path / "out"
    cases = [
        (no_data, "pass exactly one of --csv or --synthetic"),
        ([*SCAN, "--csv", str(tmp_path / "x.csv")], "pass exactly one of --csv or --synthetic"),
        ([*SCAN, "--gammas", "0"], "gammas must be >= 1, got 0"),
        ([*SCAN, "--horizon", "0"], "horizon_steps must be >= patch_len 8, got 0"),
        ([*SCAN, "--patch-len", "0"], "patch_len must be >= 1, got 0"),
        ([*SCAN, "--max-windows", "0"], "max_test_windows must be >= 1, got 0"),
        ([*SCAN, "--lookback", "0"], "lookback must be >= 1, got 0"),
        ([*SCAN, "--sigmas", "0"], "sigmas must be finite and > 0, got 0.0"),
        ([*SCAN, "--sigmas", "nan"], "sigmas must be finite and > 0, got nan"),
        ([*SCAN, "--sigmas", "-0.5"], "sigmas must be finite and > 0, got -0.5"),
        ([*SCAN, "--biases", "-1"], "biases must be finite and >= 0, got -1.0"),
        ([*SCAN, "--scales", "1.5"], "scales must be in (0, 1], got 1.5"),
        ([*SCAN, "--synth-steps", "0"], "n_steps must be >= 1, got 0"),
        ([*SCAN, "--synth-channels", "0"], "n_channels must be >= 1, got 0"),
        ([*SCAN, "--synth-season", "0"], "season_len must be >= 1, got 0"),
        ([*SCAN, "--synth-seed", "-1"], "seed must be in [0, 2**128), the range of a Philox key, got -1"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()
    # the only synthetic series is seasonal-ar; another name is a usage error
    with pytest.raises(SystemExit) as exc:
        main([*no_data, "--synthetic", "pure-seasonal", "--out", str(out)])
    assert exc.value.code == 2


def test_decode_of_a_malformed_model_exits_2(tmp_path, capsys):
    # refused where the model is loaded, not in the decode
    model_path = _fit(tmp_path / "model.json")
    doc = json.loads(model_path.read_text())
    argv = ["decode", *DATA, "--target", str(model_path), "--variant", "target_only",
            "--horizon", "16", "--out", str(tmp_path / "out")]
    capsys.readouterr()
    cases = [
        ({"intercept": doc["intercept"][:3]}, "intercept shape (3,) != (8,)"),
        ({"weights": [float("nan")] + doc["weights"][1:]}, "weights must be finite"),
    ]
    for change, message in cases:
        model_path.write_text(json.dumps({**doc, **change}))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_decode_abort_exits_3(tmp_path, capsys):
    model_path = _fit(tmp_path / "model.json")
    model = load_model(model_path)
    save_model(dataclasses.replace(model, weights=model.weights * 1e100), model_path)
    capsys.readouterr()
    argv = ["decode", *DATA, "--target", str(model_path), "--variant", "target_only",
            "--horizon", "64", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite head parameters at round ")
    assert err.count("\n") == 1  # one line, no traceback
