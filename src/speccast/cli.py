"""Command-line entry point.

Subcommands: fit, decode, predict, scan, calibrate, validate. Every run with
an output directory writes a manifest (resolved configuration, seeds, and
content hashes of the artifacts) sufficient to replay it; wall-time fields
are excluded from the hashes.

Exit codes: 0 ok, 1 validation or calibration failure, 2 usage or data error,
3 decode aborted (a non-finite head mean or draw; see ``engine.DecodeAborted``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    expected_block_length,
    lossless_worthwhile,
    ops_factor,
    select_gamma,
    speedup_wall,
)
from .engine import VARIANT_TARGET_ONLY, VARIANTS, DecodeAborted, DecodeConfig, decode
from .harness import (
    DataSpec,
    ExperimentSpec,
    RunResult,
    calibrate,
    render_results,
    render_tradeoff,
    strip_timing,
    tradeoff_table,
)
from .models import History, fit_linear_ar, load_model, save_model
from .series import PatchSeries
from .synth import SyntheticSpec
from .validate import SUITE_NAMES, run_suites

def content_digest(path: Path) -> str:
    """SHA-256 of an artifact with timing fields canonicalized away."""
    path = Path(path)
    if path.suffix in (".json", ".jsonl"):
        h = hashlib.sha256()
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                doc = strip_timing(json.loads(line))
                h.update(json.dumps(doc, sort_keys=True).encode())
                h.update(b"\n")
        return h.hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, command: str, resolved: dict, outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "resolved": resolved,
        "outputs": {p.name: content_digest(p) for p in outputs},
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", help="input series CSV (header row, time-ordered)")
    parser.add_argument("--channels", help="comma-separated channel column names (default: all non-timestamp)")
    parser.add_argument("--timestamp-col", help="name of the timestamp column to skip")
    parser.add_argument(
        "--synthetic",
        choices=["seasonal-ar"],
        help="use a generated seasonal + AR(1) series instead of a CSV "
        "(--synth-ar-std 0 makes it exactly periodic)",
    )
    parser.add_argument("--synth-steps", type=int, default=120_000)
    parser.add_argument("--synth-channels", type=int, default=2)
    parser.add_argument("--synth-season", type=int, default=256)
    parser.add_argument("--synth-seed", type=int, default=2024)
    parser.add_argument("--synth-ar-coeff", type=float, default=0.9)
    parser.add_argument("--synth-ar-std", type=float, default=0.25)


def _data_spec(args) -> DataSpec:
    """The data the --csv or --synthetic flags describe."""
    if (args.csv is None) == (args.synthetic is None):
        raise ValueError("pass exactly one of --csv or --synthetic")
    if args.csv is not None:
        return DataSpec(
            csv_path=args.csv,
            channel_cols=tuple(args.channels.split(",")) if args.channels else None,
            timestamp_col=args.timestamp_col,
        )
    return DataSpec(
        synthetic=SyntheticSpec(
            n_steps=args.synth_steps,
            n_channels=args.synth_channels,
            season_len=args.synth_season,
            ar_coeff=args.synth_ar_coeff,
            ar_std=args.synth_ar_std,
            seed=args.synth_seed,
        )
    )


def cmd_fit(args) -> int:
    data = _data_spec(args)
    series = PatchSeries.from_values(data.load(), args.patch_len)
    model = fit_linear_ar(series, args.lookback, args.ridge, scale=args.scale)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    report = {
        "sigma": model.sigma,
        "param_count": model.param_count,
        "lookback_patches": model.lookback,
        "patch_len": model.patch_len,
        "n_patches_per_channel": series.n_patches,
    }
    print(json.dumps(report, sort_keys=True))
    out_dir = out.parent
    write_manifest(
        out_dir,
        "fit",
        {
            "data": data.to_dict(),
            "patch_len": args.patch_len,
            "lookback": args.lookback,
            "ridge": args.ridge,
            "scale": args.scale,
            "out": str(out),
        },
        [out],
    )
    return 0


def cmd_decode(args) -> int:
    target = load_model(args.target)
    draft = load_model(args.draft) if args.draft else None
    if args.variant != VARIANT_TARGET_ONLY and draft is None:
        raise ValueError(f"--variant {args.variant} requires --draft")
    if args.bias is not None:
        if draft is None:
            raise ValueError("--bias requires --draft")
        draft = dataclasses.replace(draft, mean_bias=args.bias)
    data = _data_spec(args)
    values = data.load()
    if target.norm_stats is None:
        raise ValueError("target model carries no normalization stats; refit it")

    horizon_steps = args.horizon
    patch = target.patch_len
    horizon_patches = -(-horizon_steps // patch)  # ceil; output truncated to steps
    cfg = DecodeConfig(
        variant=args.variant,
        horizon_patches=horizon_patches,
        seed=args.seed,
        gamma=args.gamma,
        tolerance_lambda=args.tolerance_lambda,
        sigma_target=args.sigma,
        sigma_draft=args.sigma,
    )

    std_values = target.norm_stats.apply(values)
    k_ctx = max(target.lookback, draft.lookback if draft else 1)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    forecast_path = out_dir / "forecast.csv"
    trace_paths: list[Path] = []

    from . import rng as rngmod

    with open(forecast_path, "w") as fh:
        fh.write("timestep,channel,value,value_raw\n")
        for ch in range(std_values.shape[0]):
            n_patches = std_values.shape[1] // patch
            if n_patches < k_ctx:
                raise ValueError(
                    f"channel {ch}: {n_patches} patches of history, need {k_ctx}"
                )
            ctx = std_values[ch, : n_patches * patch].reshape(n_patches, patch)[-k_ctx:]
            h0 = History.from_patches(ctx, k_ctx, target.pad_patch())
            ch_cfg = cfg if std_values.shape[0] == 1 else cfg.with_seed(rngmod.derive_seed(args.seed, ch))
            forecast, trace = decode(target, draft, h0, ch_cfg)
            flat = forecast.reshape(-1)[:horizon_steps]
            raw = target.norm_stats.invert_channel(flat, ch)
            for t, (v, r) in enumerate(zip(flat, raw), start=1):
                fh.write(f"{t},{ch},{v!r},{r!r}\n")
            trace_path = out_dir / f"trace_ch{ch}.jsonl"
            trace.write_jsonl(trace_path)
            trace_paths.append(trace_path)

    write_manifest(
        out_dir,
        "decode",
        {
            "data": data.to_dict(),
            "target": args.target,
            "draft": args.draft,
            "variant": args.variant,
            "gamma": args.gamma,
            "horizon": args.horizon,
            "sigma": args.sigma,
            "bias": args.bias,
            "tolerance_lambda": args.tolerance_lambda,
            "seed": args.seed,
        },
        [forecast_path, *trace_paths],
    )
    print(f"wrote {forecast_path} and {len(trace_paths)} trace file(s)")
    return 0


def cmd_predict(args) -> int:
    alpha, gamma = args.alpha, args.gamma
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("--alpha must lie in [0, 1]")
    if gamma < 1:
        raise ValueError("--gamma must be >= 1")
    e_l = expected_block_length(alpha, gamma)
    rows = {
        "alpha_bar": alpha,
        "gamma": gamma,
        "e_l": e_l,
        "lossless_worthwhile": lossless_worthwhile(alpha, gamma),
    }
    if args.c is not None:
        rows["s_wall"] = speedup_wall(alpha, gamma, args.c)
        choice = select_gamma(alpha, args.c, args.gamma_max)
        rows["gamma_rule"] = choice.gamma_rule
        rows["gamma_scan"] = choice.gamma_scan
    if args.c_hat is not None:
        rows["ops_factor"] = ops_factor(alpha, gamma, args.c_hat)
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        print(f"alpha_bar            {alpha:.4f}")
        print(f"gamma                {gamma}")
        print(f"E[L]                 {e_l:.4f}")
        if "s_wall" in rows:
            print(f"S_wall               {rows['s_wall']:.4f}")
            print(f"gamma_rule           {rows['gamma_rule']}")
            print(f"gamma_scan           {rows['gamma_scan']}")
        if "ops_factor" in rows:
            print(f"OpsFactor            {rows['ops_factor']:.4f}")
        print(f"lossless_worthwhile  {rows['lossless_worthwhile']}")
    return 0


def _spec_from_args(args) -> ExperimentSpec:
    if args.spec:
        with open(args.spec) as fh:
            return ExperimentSpec.from_dict(json.load(fh))
    return ExperimentSpec(
        data=_data_spec(args),
        patch_len=args.patch_len,
        lookback=args.lookback,
        horizon_steps=args.horizon,
        sigmas=tuple(float(s) for s in args.sigmas.split(",")),
        gammas=tuple(int(g) for g in args.gammas.split(",")),
        variants=tuple(args.variants.split(",")),
        scales=tuple(float(s) for s in args.scales.split(",")),
        biases=tuple(float(b) for b in args.biases.split(",")),
        seeds=tuple(int(s) for s in args.seeds.split(",")),
        ridge=args.ridge,
        tolerance_lambda=args.tolerance_lambda,
        max_test_windows=args.max_windows,
    )


def cmd_scan(args) -> int:
    from .harness import run_experiment

    spec = _spec_from_args(args)
    results = run_experiment(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.jsonl"
    with open(results_path, "w") as fh:
        for r in results:
            fh.write(json.dumps(r.to_dict(), sort_keys=True))
            fh.write("\n")
    print(render_results(results))
    table = calibrate(results)
    if table.rows:
        print()
        print(table.render_text())
    write_manifest(out_dir, "scan", spec.to_dict(), [results_path])
    print(f"\nwrote {results_path}")
    if args.strict and table.any_flagged:
        print("calibration flags raised (--strict)", file=sys.stderr)
        return 1
    return 0


def cmd_calibrate(args) -> int:
    results = []
    with open(args.results) as fh:
        for line in fh:
            line = line.strip()
            if line:
                results.append(RunResult.from_dict(json.loads(line)))
    table = calibrate(results, flag_threshold=args.flag_threshold)
    print(table.render_text())
    rows = tradeoff_table(results) if any(r.variant == VARIANT_TARGET_ONLY for r in results) else []
    if rows:
        print()
        print(render_tradeoff(rows))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(table.to_json())
            fh.write("\n")
    if args.strict and table.any_flagged:
        print("calibration flags raised (--strict)", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    names = args.suite.split(",") if args.suite else ["all"]
    results = []
    for r, seconds in run_suites(names, seed=args.seed):
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name} ({seconds:.1f} s)", flush=True)
        for f in r.failures:
            print(f"    {f}")
        results.append(r)
    report = [r.to_dict() for r in results]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"suites": report}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speccast",
        description="Speculative decoding for autoregressive time-series patch models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser(
        "fit",
        help="ridge-fit a patch forecaster and save it as JSON; its head sigma is the fit's "
        "residual RMS, and decode --sigma or a spec's sigmas set another",
    )
    _add_data_args(p_fit)
    p_fit.add_argument("--patch-len", type=int, required=True)
    p_fit.add_argument("--lookback", type=int, required=True, help="lookback window in patches")
    p_fit.add_argument("--ridge", type=float, default=1e-3)
    p_fit.add_argument("--scale", type=float, default=1.0, help="capacity multiplier in (0, 1]")
    p_fit.add_argument("--out", required=True, help="output model JSON path")
    p_fit.set_defaults(func=cmd_fit)

    p_dec = sub.add_parser("decode", help="forecast with a draft/target pair (or a baseline)")
    _add_data_args(p_dec)
    p_dec.add_argument("--target", required=True)
    p_dec.add_argument("--draft")
    p_dec.add_argument("--variant", choices=VARIANTS, default="practical")
    p_dec.add_argument("--gamma", type=int, default=3)
    p_dec.add_argument("--horizon", type=int, required=True, help="forecast horizon in timesteps")
    p_dec.add_argument(
        "--sigma",
        type=float,
        help="head sigma of both target and draft: the heads share one variance, so "
        "without --sigma a speculative decode is refused unless the fitted sigmas are equal",
    )
    p_dec.add_argument("--bias", type=float, help="draft mean-bias norm (>= 0)")
    p_dec.add_argument("--tolerance-lambda", type=float, default=1.0)
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--out", required=True, help="output directory")
    p_dec.set_defaults(func=cmd_decode)

    p_pred = sub.add_parser("predict", help="closed-form block length / speedup / compute predictors")
    p_pred.add_argument("--alpha", type=float, required=True)
    p_pred.add_argument("--gamma", type=int, required=True)
    p_pred.add_argument("--c", type=float, help="draft/target wall-clock ratio")
    p_pred.add_argument("--c-hat", type=float, help="draft/target FLOPs ratio")
    p_pred.add_argument("--gamma-max", type=int, default=64)
    p_pred.add_argument("--json", action="store_true")
    p_pred.set_defaults(func=cmd_predict)

    p_scan = sub.add_parser("scan", help="run a sigma/gamma/variant sweep experiment")
    _add_data_args(p_scan)
    p_scan.add_argument("--spec", help="experiment spec JSON (overrides the flags)")
    p_scan.add_argument("--patch-len", type=int, default=32)
    p_scan.add_argument("--lookback", type=int, default=96)
    p_scan.add_argument("--horizon", type=int, default=1280)
    p_scan.add_argument("--sigmas", default="0.25,0.5,1.0,2.0")
    p_scan.add_argument("--gammas", default="3")
    p_scan.add_argument("--variants", default="practical")
    p_scan.add_argument("--scales", default="0.25")
    p_scan.add_argument("--biases", default="0.0")
    p_scan.add_argument("--seeds", default="0")
    p_scan.add_argument("--ridge", type=float, default=1e-3)
    p_scan.add_argument("--tolerance-lambda", type=float, default=1.0)
    p_scan.add_argument("--max-windows", type=int, default=8)
    p_scan.add_argument("--strict", action="store_true")
    p_scan.add_argument("--out", required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_cal = sub.add_parser("calibrate", help="predicted-vs-measured calibration table")
    p_cal.add_argument("--results", required=True, help="results.jsonl from scan")
    p_cal.add_argument("--flag-threshold", type=float, default=0.25)
    p_cal.add_argument("--strict", action="store_true")
    p_cal.add_argument("--out")
    p_cal.set_defaults(func=cmd_calibrate)

    p_val = sub.add_parser("validate", help="statistical validation suites")
    p_val.add_argument(
        "--suite",
        help=f"comma-separated suites, or 'all' for every default suite ({', '.join(SUITE_NAMES)}); "
        "end-to-end, whose speedup gate reads the wall clock, runs only when named",
    )
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--out", help="machine-readable report JSON")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DecodeAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
