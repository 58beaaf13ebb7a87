"""CLI and harness smoke: scan -> calibrate -> manifest, replay, exit codes."""

import dataclasses
import json

import pytest

from speccast import validate
from speccast.cli import content_digest, main
from speccast.harness import CalibrationTable, RunResult
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


def _digests(results_path):
    with open(results_path) as fh:
        return [RunResult.from_dict(json.loads(line)).determinism_digest() for line in fh if line.strip()]


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
    table = CalibrationTable.from_json(flagged.read_text())
    assert [r.variant for r in table.rows] == ["practical", "lossless"]
    assert table.any_flagged  # a zero threshold flags any gap
    # calibration failure: exit 1 only under --strict
    assert main(["calibrate", "--results", results, "--strict", "--flag-threshold", "0"]) == 1
    assert main(["calibrate", "--results", results, "--strict", "--flag-threshold", "1e9"]) == 0
    assert "calibration flags raised" in capsys.readouterr().err


def test_validate_exit_codes(tmp_path, monkeypatch):
    report = tmp_path / "report.json"
    assert main(["validate", "--suite", "gamma-rule", "--out", str(report)]) == 0
    suites = json.loads(report.read_text())["suites"]
    assert [(s["name"], s["passed"]) for s in suites] == [("gamma-rule", True)]

    failing = SuiteResult(name="gamma-rule", passed=False, failures=["injected failure"])
    monkeypatch.setitem(validate._SUITES, "gamma-rule", lambda seed=0: failing)
    assert main(["validate", "--suite", "gamma-rule"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--suite", "no-such-suite"],
        ["predict", "--alpha", "1.5", "--gamma", "3"],
        ["fit", "--patch-len", "8", "--lookback", "4", "--out", "model.json"],  # no data source
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


def test_lossless_below_variance_floor_exits_2(tmp_path, capsys):
    target, draft = _fit(tmp_path / "target.json"), _fit(tmp_path / "draft.json", "--scale", "0.5")
    argv = ["decode", *DATA, "--target", str(target), "--draft", str(draft), "--horizon", "16",
            "--sigma", "1e-7", "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main([*argv, "--variant", "lossless"]) == 2
    assert "variance floor" in capsys.readouterr().err
    assert main([*argv, "--variant", "practical"]) == 0


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


def test_decode_usage_errors_exit_2(tmp_path, capsys):
    target = _fit(tmp_path / "target.json")
    argv = ["decode", *DATA, "--target", str(target), "--horizon", "16", "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main([*argv, "--variant", "practical"]) == 2
    assert capsys.readouterr().err == "error: --variant practical requires --draft\n"
    short = ["--synth-steps", "16"]  # two 8-step patches against a lookback of 4
    assert main([*argv, *short, "--variant", "target_only"]) == 2
    assert "channel 0: 2 patches of history, need 4" in capsys.readouterr().err
    # one head width for both models: --sigma; there are no per-model flags
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--variant", "target_only", "--sigma-target", "0.5"])
    assert exc.value.code == 2


def test_scan_spec_errors_exit_2(tmp_path, capsys):
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
    ]
    capsys.readouterr()
    for doc, message in cases:
        spec.write_text(json.dumps(doc))
        assert main(["scan", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1  # no traceback


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
