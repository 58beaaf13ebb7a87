"""Spans recorded around the calls the decode engine makes into each layer.

The wrappers live here, in the benchmark, and are installed by patching the
attributes the engine calls through; no file of the package changes. Spans
are kept in compact in-memory columns and written out once, at the end.
An attribute that no longer exists is skipped, so a layer the engine stops
calling reads as zero calls.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from speccast import engine, kernels, models
from speccast import rng as rngmod

_now = time.perf_counter_ns


class SpanRecorder:
    """Columns of (name, start, end, parent, value); parent -1 marks a root."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.value = array("d")
        self._stack = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.value.append(0.0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def finish(self, idx: int, value: float = 0.0) -> None:
        self.end[idx] = _now()
        self._stack.pop()
        if value:
            self.value[idx] = value

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


def _span(rec: SpanRecorder, name: str, fn):
    def wrapped(*args, **kwargs):
        idx = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(idx)

    return wrapped


class _TimedGenerator:
    """Generator proxy that records a span around each block draw."""

    __slots__ = ("_gen", "_rec")

    def __init__(self, gen, rec: SpanRecorder) -> None:
        self._gen = gen
        self._rec = rec

    def random(self, *args, **kwargs):
        idx = self._rec.begin("rng.draw")
        try:
            return self._gen.random(*args, **kwargs)
        finally:
            self._rec.finish(idx)

    def standard_normal(self, *args, **kwargs):
        idx = self._rec.begin("rng.draw")
        try:
            return self._gen.standard_normal(*args, **kwargs)
        finally:
            self._rec.finish(idx)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _wrappers(rec: SpanRecorder, target) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every layer boundary."""

    def model_method(method: str):
        def make(fn):
            def wrapped(self, windows, *args, **kwargs):
                role = "target" if self is target else "draft"
                idx = rec.begin(f"{role}.{method}")
                try:
                    return fn(self, windows, *args, **kwargs)
                finally:
                    rec.finish(idx, windows.shape[0] if method == "mean_batch" else 1)

            return wrapped

        return make

    def residual(fn):
        def wrapped(*args, **kwargs):
            idx = rec.begin("prob.residual_sample")
            draws = 0
            try:
                out = fn(*args, **kwargs)
                draws = out[1]
                return out
            finally:
                rec.finish(idx, draws)

        return wrapped

    def rekey(fn):
        def wrapped(self, *args, **kwargs):
            idx = rec.begin("rng.rekey")
            try:
                gen = fn(self, *args, **kwargs)
            finally:
                rec.finish(idx)
            return _TimedGenerator(gen, rec)

        return wrapped

    plan = [
        (kernels, "round_accept", lambda fn: _span(rec, "kernels.round_accept", fn)),
        (kernels, "draft_propose_linear", lambda fn: _span(rec, "kernels.draft_propose_linear", fn)),
        (models.ForecastModel, "mean_batch", model_method("mean_batch")),
        (models.ForecastModel, "mean_one", model_method("mean_one")),
        (engine, "residual_sample", residual),
        (engine, "GaussianHead", lambda fn: _span(rec, "prob.GaussianHead", fn)),
        (rngmod.ReusableStream, "rekey", rekey),
    ]
    for method in ("copy", "fill_window", "extend", "append", "window"):
        plan.append((models.History, method, lambda fn, m=method: _span(rec, f"history.{m}", fn)))
    return [(owner, attr, make(getattr(owner, attr))) for owner, attr, make in plan if hasattr(owner, attr)]


@contextmanager
def installed(rec: SpanRecorder, target):
    """Patch the layer boundaries to record into ``rec``; restore on exit."""
    patches = _wrappers(rec, target)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapped in patches:
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
