"""Session loop, output checks and metrics of the decode benchmark.

One closed-loop client decodes sessions back to back. Each session index
runs all three variants on the same input and seed, in an order that
alternates between indices, so machine drift hits every variant alike.
Latency is the session's wall time divided by its horizon (microseconds per
returned patch). The traced mode alternates blocks with and without the
layer wrappers, so the untraced blocks give the tracing overhead.

A shared host's speed can swing by 2x within seconds, and a whole run can
sit in a slow stretch. Every 50 ms the loop therefore times a fixed probe
that does not touch speccast (small numpy operations driven from Python,
like the decode loop). Each latency is scaled to a host on which the probe
takes REF_PROBE_US, by the probe's speed in the latency's one-second window
raised to PROBE_EXPONENT: on a 2-vCPU shared VM, the slope of log latency
over log probe time was 0.64-0.81 across 3-second stretches of one run and
0.5-0.63 across quiet and busy runs, so the decode slows less than the
probe does. Set-up
repeats shorter than a window are scaled the same way by probes taken around
them. The unscaled figures are reported next to the scaled ones.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import platform
import resource
import statistics
import time
import warnings
from array import array
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy import stats as scistats

import speccast
from speccast import kernels
from speccast.analysis import expected_block_length, speedup_wall
from speccast.engine import decode
from speccast.harness import measure_cost_ratio

from . import tracing
from .workloads import GAMMA, MC_ALPHA, VARIANTS, Scale, Workload, setup

CHECK_SEED = 20251118  # fixed seed of the KS check batch
WINDOW_S = 1.0  # latencies are scaled by the host probe of their window
PROBE_EVERY_S = 0.05
REF_PROBE_US = 100.0  # probe time that defines the reference host speed
PROBE_EXPONENT = 0.6
SETUP_PROBES = 3  # probes before and after each set-up repeat
MSE_RATIO_LIMIT = 1.25  # the end-to-end suite's accuracy bound
PHASES = ("untraced", "traced")


@dataclass
class VariantStats:
    """Per-variant outcomes of one phase; counters come from the engine trace."""

    latency_us: array = field(default_factory=lambda: array("d"))
    window: array = field(default_factory=lambda: array("q"))  # per latency sample
    failures: Counter = field(default_factory=Counter)
    sessions: int = 0
    rounds: int = 0
    accepted: int = 0
    examined: int = 0
    rejection_rounds: int = 0
    emitted: int = 0
    returned: int = 0
    truncated: int = 0
    target_passes: int = 0
    draft_passes: int = 0
    draft_wall_s: float = 0.0
    target_wall_s: float = 0.0
    sq_err: float = 0.0
    first_lengths: array = field(default_factory=lambda: array("q"))

    def add(self, forecast, trace, speculative: bool) -> None:
        self.rounds += len(trace.rounds)
        for rec in trace.rounds:
            self.accepted += rec.n_accepted
            if speculative:
                self.examined += min(rec.n_accepted + 1, trace.gamma)
                self.rejection_rounds += rec.n_accepted < trace.gamma
        self.emitted += trace.totals.patches_emitted
        self.returned += forecast.shape[0]
        self.truncated += trace.truncated_patches
        self.target_passes += trace.totals.target_passes
        self.draft_passes += trace.totals.draft_passes
        self.draft_wall_s += trace.wall_times.get("draft_total", 0.0)
        self.target_wall_s += trace.wall_times.get("target_total", 0.0)
        self.first_lengths.append(trace.rounds[0].outputs_emitted)


class Run:
    """One benchmark run: set-up, measured sessions, checks, metrics."""

    def __init__(self, workload: str, seed: int, scale: Scale) -> None:
        self.name = workload
        self.seed = seed
        self.scale = scale
        self.stats = {ph: {v: VariantStats() for v in VARIANTS} for ph in PHASES}
        self.first: dict[str, tuple[int, bytes]] = {}
        self.shape_ok = True
        self.recorder: tracing.SpanRecorder | None = None
        self.setup_times: list[float] = []
        self.setup_scaled: list[float] = []
        self.setup_parts: dict[str, list[float]] = {}
        self.wl: Workload | None = None
        self._t_start = 0.0
        self.probe_us = array("d")
        self.probe_window = array("q")

    # -- set-up --------------------------------------------------------------

    def build(self) -> None:
        """Set the workload up repeatedly; setup_s is the median repeat.

        A repeat shorter than a probe window is scaled to the reference host
        speed by the probes taken just before and after it. A longer repeat
        outlasts the host's speed swings, which those few probes would not
        represent, and is kept as measured.
        """
        t_start = time.perf_counter()
        while (
            len(self.setup_times) < self.scale.min_setups
            or time.perf_counter() - t_start < self.scale.min_setup_seconds
        ):
            self.wl = None  # free the previous repeat first, so peak RSS is one set-up's
            probes = [host_probe() for _ in range(SETUP_PROBES)]
            t0 = time.perf_counter()
            wl = setup(self.name, self.seed, self.scale)
            elapsed = time.perf_counter() - t0
            probes += [host_probe() for _ in range(SETUP_PROBES)]
            self.wl = wl
            self.setup_times.append(elapsed)
            speed = statistics.median(probes) if elapsed < WINDOW_S else REF_PROBE_US
            self.setup_scaled.append(elapsed * _host_factor(speed))
            for key, value in wl.parts.items():
                self.setup_parts.setdefault(key, []).append(value)
        gc.collect()

    # -- sessions ------------------------------------------------------------

    def _session(self, index: int, variant: str, phase: str) -> float | None:
        """Decode one session; returns its squared error, None on failure."""
        wl = self.wl
        draft, h0, reference, cfg = wl.session(index, variant)
        st = self.stats[phase][variant]
        st.sessions += 1
        st.window.append(self._window())
        rec = self.recorder if phase == "traced" else None
        span = rec.begin(f"session.{variant}") if rec is not None else -1
        t0 = time.perf_counter_ns()
        try:
            forecast, trace = decode(wl.target, draft, h0, cfg)
        except Exception as exc:  # counted per variant; the run goes on
            st.failures[type(exc).__name__] += 1
            st.latency_us.append(math.inf)
            return None
        finally:
            elapsed = time.perf_counter_ns() - t0
            if rec is not None:
                rec.finish(span)
        st.latency_us.append(elapsed / 1e3 / wl.horizon)
        if forecast.shape != reference.shape or not np.isfinite(forecast).all():
            self.shape_ok = False
        if variant not in self.first:
            self.first[variant] = (index, forecast.tobytes())
        st.add(forecast, trace, variant != "target_only")
        return float(np.square(forecast - reference).sum())

    def _window(self) -> int:
        return int((time.perf_counter() - self._t_start) / WINDOW_S)

    def measure(self, seconds: float, traced: bool) -> None:
        """Closed loop until ``seconds`` pass (or the scale's triple cap)."""
        scale = self.scale
        if traced:
            self.recorder = tracing.SpanRecorder()
        cap = scale.max_triples if scale.max_triples is not None else math.inf
        self._t_start = time.perf_counter()
        deadline = self._t_start + seconds
        next_probe = 0.0
        index = 0
        block = 0
        while index < cap and time.perf_counter() < deadline:
            phase = PHASES[block % 2] if traced else "untraced"
            hooks = tracing.installed(self.recorder, self.wl.target) if phase == "traced" else nullcontext()
            with hooks:
                for _ in range(scale.block_triples):
                    order = VARIANTS if index % 2 == 0 else VARIANTS[::-1]
                    errors = {v: self._session(index, v, phase) for v in order}
                    if None not in errors.values():
                        for v, err in errors.items():
                            self.stats[phase][v].sq_err += err
                    index += 1
                    if time.perf_counter() >= next_probe:
                        self.probe_window.append(self._window())
                        self.probe_us.append(host_probe())
                        next_probe = time.perf_counter() + PROBE_EVERY_S
                    if index >= cap or time.perf_counter() >= deadline:
                        break
            block += 1

    def scaled_latency(self, st: VariantStats) -> np.ndarray:
        """Latencies scaled to the reference host speed (see module doc)."""
        probes = np.frombuffer(self.probe_us, dtype=np.float64)
        windows = np.frombuffer(self.probe_window, dtype=np.int64)
        overall = float(np.median(probes)) if probes.size else REF_PROBE_US
        speed = {int(k): float(np.median(probes[windows == k])) for k in np.unique(windows)}
        w = np.frombuffer(st.window, dtype=np.int64)
        per_window = np.array([_host_factor(speed.get(int(k), overall)) for k in range(int(w.max(initial=0)) + 1)])
        return np.frombuffer(st.latency_us, dtype=np.float64) * per_window[w]

    # -- checks --------------------------------------------------------------

    def checks(self, untraced: dict) -> tuple[dict, dict]:
        """(pass/fail per check, values the checks looked at)."""
        passed = {"forecast_finite_shape": self.shape_ok}
        values: dict = {}
        passed["replay_bit_identical"] = _check(values, "replay", self._replay)
        if self.name == "forecast-aligned":
            ratio = untraced["practical_mse_ratio"]
            values["practical_mse_ratio"] = ratio
            passed["practical_mse_ratio_le_1.25"] = ratio <= MSE_RATIO_LIMIT
        if self.name == "mc-sessions":
            e_l = expected_block_length(MC_ALPHA, GAMMA)
            values["expected_L"] = e_l
            for variant in ("practical", "lossless"):
                lengths = self._merged_lengths(variant)
                mean = float(lengths.mean())
                se = float(lengths.std(ddof=1) / math.sqrt(lengths.size)) if lengths.size > 1 else math.inf
                values[f"{variant}_mean_L"] = mean
                values[f"{variant}_mean_L_se"] = se
                passed[f"{variant}_mean_L_within_4se"] = abs(mean - e_l) <= 4 * se
            passed["ks_lossless_vs_target_only_p_ge_1e-3"] = _check(values, "ks", lambda: self._ks_pvalue(values) >= 1e-3)
        return passed, values

    def _replay(self) -> bool:
        """The first session of each variant, decoded again, is bit-identical."""
        wl = self.wl
        same = bool(self.first)
        for variant, (index, digest) in self.first.items():
            draft, h0, _, cfg = wl.session(index, variant)
            forecast, _ = decode(wl.target, draft, h0, cfg)
            same &= forecast.tobytes() == digest
        return same

    def _merged_lengths(self, variant: str) -> np.ndarray:
        parts = [np.frombuffer(self.stats[ph][variant].first_lengths, dtype=np.int64) for ph in PHASES]
        return np.concatenate(parts).astype(float)

    def _ks_pvalue(self, values: dict) -> float:
        """Lossless first patches vs target_only first patches, fixed seed."""
        wl = self.wl
        n = self.scale.check_sessions
        firsts = {}
        for variant in ("target_only", "lossless"):
            draft, h0, _, cfg = wl.session(0, variant)
            out = np.empty(n)
            for i in range(n):
                forecast, _ = decode(wl.target, draft, h0, dataclasses.replace(cfg, seed=CHECK_SEED + i))
                out[i] = forecast[0, 0]
            firsts[variant] = out
        p_value = float(scistats.ks_2samp(firsts["lossless"], firsts["target_only"]).pvalue)
        values["ks_pvalue_lossless_vs_target_only"] = p_value
        return p_value

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        stats = self.stats["untraced"]
        out = {
            "setup_s": (statistics.median(self.setup_scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for v in VARIANTS:
            p50, p90 = _percentiles(self.scaled_latency(stats[v]))
            out[f"{v}_p50_us_per_patch"] = (p50, "us")
            out[f"{v}_p90_us_per_patch"] = (p90, "us")
        base = stats["target_only"].sq_err
        for v in ("practical", "lossless"):
            out[f"{v}_mse_ratio"] = (stats[v].sq_err / base if base > 0 else math.nan, "ratio")
        return out

    def per_layer(self, cost, untraced: dict) -> dict[str, tuple[float, str]]:
        wl = self.wl
        traced = self.stats["traced"]
        merged = {v: _merge(self.stats["untraced"][v], traced[v]) for v in VARIANTS}
        spans = SpanTable(self.recorder or tracing.SpanRecorder())
        spec = ("practical", "lossless")
        out: dict[str, tuple[float, str]] = {}

        step_us = spans.median("target.mean_one")
        verify_us = spans.median("target.mean_batch")
        out["models.target_step_us"] = (step_us, "us")
        out["models.target_verify_us"] = (verify_us, "us")
        out["models.verify_ratio_v"] = (_ratio(verify_us, step_us), "ratio")
        draft_us = spans.total("kernels.draft_propose_linear", spec) + spans.total("draft.mean_one", spec)
        draft_passes = sum(traced[v].draft_passes for v in spec)
        out["models.cost_ratio_c"] = (_ratio(_ratio(draft_us, draft_passes), step_us), "ratio")
        for v in VARIANTS:
            out[f"models.target_passes_per_patch.{v}"] = (_ratio(merged[v].target_passes, merged[v].returned), "count")
        for v in spec:
            out[f"models.draft_passes_per_patch.{v}"] = (_ratio(merged[v].draft_passes, merged[v].returned), "count")
        for v in VARIANTS:
            history_us = sum(spans.total(f"history.{m}", (v,)) for m in ("copy", "fill_window", "extend", "append", "window"))
            out[f"models.history_us_per_round.{v}"] = (_ratio(history_us, traced[v].rounds), "us")
        for key in ("models.fit_s", "synth.generate_s", "series.patchify_s"):
            samples = self.setup_parts.get(key)
            out[key] = (statistics.median(samples) if samples else 0.0, "s")

        out["kernels.draft_propose_us"] = (spans.median("kernels.draft_propose_linear"), "us")
        out["kernels.round_accept_us"] = (spans.median("kernels.round_accept"), "us")

        residual_calls = spans.count("prob.residual_sample", ("lossless",))
        out["prob.residual_sample_us"] = (spans.median("prob.residual_sample"), "us")
        out["prob.residual_calls_per_round"] = (_ratio(residual_calls, traced["lossless"].rounds), "count")
        out["prob.residual_draws_per_call"] = (spans.mean_value("prob.residual_sample"), "count")
        out["prob.head_build_us"] = (spans.median("prob.GaussianHead"), "us")

        out["rng.rekey_us"] = (spans.median("rng.rekey"), "us")
        for v in VARIANTS:
            rounds = traced[v].rounds
            out[f"rng.rekeys_per_round.{v}"] = (_ratio(spans.count("rng.rekey", (v,)), rounds), "count")
            out[f"rng.draw_us_per_round.{v}"] = (_ratio(spans.total("rng.draw", (v,)), rounds), "us")
            out[f"engine.self_us_per_round.{v}"] = (_ratio(spans.self_total(v), rounds), "us")
        for v in spec:
            m = merged[v]
            out[f"engine.rounds_per_patch.{v}"] = (_ratio(m.rounds, m.returned), "count")
            out[f"engine.mean_L.{v}"] = (_ratio(m.emitted, m.rounds), "count")
            out[f"engine.accept_rate.{v}"] = (_ratio(m.accepted, m.examined), "ratio")
            out[f"engine.rejection_round_frac.{v}"] = (_ratio(m.rejection_rounds, m.rounds), "ratio")
            out[f"engine.wasted_patch_frac.{v}"] = (_ratio(m.truncated, m.emitted), "ratio")

        e_l_pred = expected_block_length(wl.alpha_hat, GAMMA)
        out["harness.c_measured"] = (cost.c, "ratio")
        out["harness.alpha_hat"] = (wl.alpha_hat, "ratio")
        out["analysis.e_l_pred"] = (e_l_pred, "count")
        out["analysis.s_pred"] = (speedup_wall(wl.alpha_hat, GAMMA, cost.c), "ratio")
        out["analysis.s_meas"] = (
            _ratio(untraced["target_only_p50_us_per_patch"], untraced["practical_p50_us_per_patch"]),
            "ratio",
        )

        for v in VARIANTS:
            traced_p50, _ = _percentiles(self.scaled_latency(traced[v]))
            out[f"trace.overhead_frac.{v}"] = (_ratio(traced_p50, untraced[f"{v}_p50_us_per_patch"]) - 1.0, "ratio")
        engine_draft_us = sum(traced[v].draft_wall_s for v in spec) * 1e6
        engine_target_us = sum(traced[v].target_wall_s for v in spec) * 1e6
        out["trace.draft_span_over_engine"] = (_ratio(draft_us, engine_draft_us), "ratio")
        out["trace.target_span_over_engine"] = (
            _ratio(spans.total("target.mean_batch", spec) + spans.total("target.mean_one", spec), engine_target_us),
            "ratio",
        )
        return out

    def environment(self, load_start) -> dict:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return {
            "workload": self.name,
            "seed": self.seed,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "speccast": speccast.__version__,
            "kernels_backend": getattr(kernels, "BACKEND", None),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": list(os.getloadavg()),
            "setup_repeats": len(self.setup_times),
            "unscaled_setup_s": statistics.median(self.setup_times),
            "host_probe_us": {
                "median": float(np.median(self.probe_us)) if self.probe_us else None,
                "count": len(self.probe_us),
                "reference": REF_PROBE_US,
            },
            "unscaled_latency_us": {
                ph: {
                    v: dict(zip(("p50", "p90"), _percentiles(np.frombuffer(self.stats[ph][v].latency_us))))
                    for v in VARIANTS
                }
                for ph in PHASES
            },
            "sessions": {ph: {v: self.stats[ph][v].sessions for v in VARIANTS} for ph in PHASES},
            "failures": {
                v: {
                    "failed_frac": _ratio(
                        sum(self.stats[ph][v].failures.total() for ph in PHASES),
                        sum(self.stats[ph][v].sessions for ph in PHASES),
                    ),
                    "by_type": dict(sum((self.stats[ph][v].failures for ph in PHASES), Counter())),
                }
                for v in VARIANTS
            },
        }

    def totals(self) -> tuple[int, int]:
        attempted = sum(st.sessions for ph in PHASES for st in self.stats[ph].values())
        failed = sum(st.failures.total() for ph in PHASES for st in self.stats[ph].values())
        return attempted, failed


class SpanTable:
    """Recorded spans as arrays, each attributed to its session's variant."""

    def __init__(self, rec: tracing.SpanRecorder) -> None:
        cols = rec.columns()
        names = rec.names
        self._ids = {n: i for i, n in enumerate(names)}
        self.name_id = cols["name_id"]
        self.dur_us = (cols["end_ns"] - cols["start_ns"]) / 1e3
        self.parent = cols["parent"]
        self.value = cols["value"]
        root = np.arange(self.parent.size)
        while True:  # pointer jumping up to each span's session span
            up = self.parent[root]
            moved = up >= 0
            if not moved.any():
                break
            root = np.where(moved, up, root)
        session_variant = np.full(len(names), -1)
        for v_idx, v in enumerate(VARIANTS):
            if f"session.{v}" in self._ids:
                session_variant[self._ids[f"session.{v}"]] = v_idx
        self.variant = session_variant[self.name_id[root]]

    def _mask(self, name: str, variants=None) -> np.ndarray:
        nid = self._ids.get(name, -1)
        mask = self.name_id == nid
        if variants is not None:
            mask &= np.isin(self.variant, [VARIANTS.index(v) for v in variants])
        return mask

    def median(self, name: str) -> float:
        d = self.dur_us[self._mask(name) & (self.variant >= 0)]
        return float(np.median(d)) if d.size else 0.0

    def total(self, name: str, variants) -> float:
        return float(self.dur_us[self._mask(name, variants)].sum())

    def count(self, name: str, variants) -> int:
        return int(self._mask(name, variants).sum())

    def mean_value(self, name: str) -> float:
        v = self.value[self._mask(name) & (self.variant >= 0)]
        return float(v.mean()) if v.size else 0.0

    def self_total(self, variant: str) -> float:
        """Session time not covered by the session's direct child spans."""
        sessions = self._mask(f"session.{variant}")
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur_us[child], minlength=self.parent.size)
        return float((self.dur_us[sessions] - covered[sessions]).sum())


def _check(values: dict, name: str, fn) -> bool:
    """Run one output check; a check whose decode raises fails."""
    try:
        return bool(fn())
    except Exception as exc:
        values[f"{name}_error"] = f"{type(exc).__name__}: {exc}"
        return False


def _merge(a: VariantStats, b: VariantStats) -> VariantStats:
    out = VariantStats()
    for name in ("sessions", "rounds", "accepted", "examined", "rejection_rounds", "emitted",
                 "returned", "truncated", "target_passes", "draft_passes"):
        setattr(out, name, getattr(a, name) + getattr(b, name))
    return out


def host_probe() -> float:
    """Microseconds per 40 steps of a fixed loop of small numpy operations.

    The first quarter of the loop is not timed, so that the caches the
    decode loop left behind are refilled first.
    """
    a = np.ones(32)
    acc = 0.0
    for i in range(200):
        if i == 50:
            t0 = time.perf_counter_ns()
        a = a * 1.0001 + 0.5
        acc += float(a.sum())
    return (time.perf_counter_ns() - t0) / 1e3 / 150 * 40


def _host_factor(probe_us: float) -> float:
    """Multiplier that takes a time measured at this probe speed to the reference."""
    return (REF_PROBE_US / probe_us) ** PROBE_EXPONENT


def _percentiles(latency: np.ndarray) -> tuple[float, float]:
    if not latency.size:
        return math.nan, math.nan
    # Failed sessions are +inf; inverted_cdf keeps them from producing nan.
    p50, p90 = np.percentile(latency, [50, 90], method="inverted_cdf")
    return float(p50), float(p90)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    """Run one workload; returns the result document (metrics, checks, env)."""
    load_start = list(os.getloadavg())
    bench = Run(workload, seed, scale)
    bench.build()
    window = bench.wl.inputs[0][0].window()[None]
    with warnings.catch_warnings():
        # Persistence passes are too fast for the timer; the warning says so.
        warnings.simplefilter("ignore", UserWarning)
        cost = measure_cost_ratio(bench.wl.target, bench.wl.draft, window)
    bench.measure(seconds, traced=trace)
    e2e = bench.end_to_end()
    untraced = {k: v for k, (v, _) in e2e.items()}
    passed, check_values = bench.checks(untraced)
    metrics = bench.per_layer(cost, untraced) if trace else e2e
    attempted, failed = bench.totals()
    return {
        "correct": all(passed.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": passed,
        "check_values": check_values,
        "environment": bench.environment(load_start),
        "spans": bench.recorder,
    }
