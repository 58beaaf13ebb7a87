"""Synthetic series generators and the bundled benchmark dataset.

The bundled dataset is a seasonal-plus-AR(1) mix: the seasonal component is
exactly learnable by a linear patch model whose lookback covers the period,
so a truncated-lookback draft stays closely aligned with the full target.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass

import numpy as np


def check_keys(d: dict, cls, what: str) -> None:
    """ValueError naming every key of document ``d`` that is not a field of
    dataclass ``cls``, or else every required field that ``d`` lacks."""
    fields = dataclasses.fields(cls)
    unknown = sorted(set(d) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in d]
    if missing:
        raise ValueError(f"{what} lacks required key(s): {', '.join(map(repr, missing))}")


def check_integer(key: str, value) -> int:
    """``value`` by ``operator.index``; ValueError naming ``key`` if not an integer (as 2.5 or 3.0)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def drop_retired(d: dict, retired: dict, what: str) -> dict:
    """``d`` without the ``retired`` keys, which map to the one value each ever
    held (a list reads as a tuple); ValueError names one that holds another."""
    d = dict(d)
    for key, old in retired.items():
        value = d.pop(key, old)
        if (tuple(value) if isinstance(value, list) else value) != old:
            raise ValueError(f"{what} key {key!r} is retired and must be {old!r} or absent, got {value!r}")
    return d


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the seasonal + AR(1) generator.

    The defaults give a strongly predictable series: both a full-lookback
    target and a truncated-lookback draft can fit it well, so their mean
    predictions stay aligned and the acceptance sweep actually saturates.
    """

    n_steps: int = 360_000
    n_channels: int = 2
    season_len: int = 256
    season_amp: float = 1.0
    ar_coeff: float = 0.9
    ar_std: float = 0.01
    obs_noise: float = 0.0
    seed: int = 2024
    n_harmonics: int = 3

    def __post_init__(self) -> None:
        for key in ("n_steps", "n_channels", "season_len"):
            value = check_integer(key, getattr(self, key))
            if not value >= 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        for key in ("seed", "n_harmonics"):
            check_integer(key, getattr(self, key))

    def generate(self) -> np.ndarray:
        return seasonal_ar(**self.to_dict())  # the fields are seasonal_ar's parameters

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        """The spec a ``to_dict`` document describes; ValueError names an unknown key."""
        check_keys(d, cls, "synthetic spec")
        return cls(**d)


def seasonal_profile(season_len: int, amp: float, n_harmonics: int, rng: np.random.Generator) -> np.ndarray:
    phase = rng.uniform(0, 2 * np.pi, n_harmonics)
    weights = rng.uniform(0.4, 1.0, n_harmonics)
    weights *= amp / np.sum(weights)
    t = np.arange(season_len)
    prof = np.zeros(season_len)
    for h in range(n_harmonics):
        prof += weights[h] * np.sin(2 * np.pi * (h + 1) * t / season_len + phase[h])
    return prof


def _ar1_recursion(innov: np.ndarray, phi: float) -> np.ndarray:
    """z[0] = innov[0] / sqrt(1 - phi^2), z[t] = phi * z[t-1] + innov[t].

    ``lfilter`` does one multiply and one add per step, in the order the
    recursion states, so the result is bit-identical to a Python step loop.
    scipy.signal is imported on first use, so that processes which generate
    no data do not load it.
    """
    from scipy.signal import lfilter

    z = np.empty(innov.shape[0])
    z[0] = innov[0] / np.sqrt(max(1.0 - phi ** 2, 1e-9))
    z[1:] = lfilter([1.0], [1.0, -phi], innov[1:], zi=[phi * z[0]])[0]
    return z


def seasonal_ar(
    n_steps: int,
    n_channels: int = 2,
    season_len: int = 256,
    season_amp: float = 1.0,
    ar_coeff: float = 0.9,
    ar_std: float = 0.25,
    obs_noise: float = 0.0,
    seed: int = 0,
    n_harmonics: int = 3,
) -> np.ndarray:
    """Seasonal + AR(1) series, one independent profile per channel."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty((n_channels, n_steps))
    for ch in range(n_channels):
        prof = seasonal_profile(season_len, season_amp, n_harmonics, rng)
        season = np.tile(prof, n_steps // season_len + 1)[:n_steps]
        innov = rng.standard_normal(n_steps) * ar_std
        x = season + _ar1_recursion(innov, ar_coeff)
        if obs_noise > 0:
            x = x + rng.standard_normal(n_steps) * obs_noise
        out[ch] = x
    return out
