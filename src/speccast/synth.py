"""Synthetic series generators and the bundled benchmark dataset.

The bundled dataset is a seasonal-plus-AR(1) mix: the seasonal component is
exactly learnable by a linear patch model whose lookback covers the period,
so a truncated-lookback draft stays closely aligned with the full target.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
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


def check_real(key: str, value, rule: str = "finite and > 0") -> float:
    """``value`` as a float; ValueError naming ``key`` unless it is a real
    number (numpy scalars included) that is finite and, by ``rule``, > 0 or
    >= 0 ("finite and > 0", "finite and >= 0" or "finite")."""
    # a float first: the ABC check of numbers.Real alone takes about 0.4 us
    if (type(value) is float or isinstance(value, numbers.Real)) and math.isfinite(value):
        if rule == "finite" or value > 0 or (value == 0 and rule == "finite and >= 0"):
            return float(value)
    shown = value if isinstance(value, numbers.Real) else repr(value)
    raise ValueError(f"{key} must be {rule}, got {shown}")


def drop_retired(d: dict, retired: dict, what: str) -> dict:
    """``d`` without the ``retired`` keys, which map to the one value each ever
    held (a list reads as a tuple); ValueError names one that holds another."""
    d = dict(d)
    for key, old in retired.items():
        value = d.pop(key, old)
        if (tuple(value) if isinstance(value, list) else value) != old:
            raise ValueError(f"{what} key {key!r} is retired and must be {old!r} or absent, got {value!r}")
    return d


N_HARMONICS = 3  # sine harmonics of each channel's seasonal profile

# Generator keys of earlier versions, each with the one value it ever held;
# a saved spec that carries one at that value still loads.
_RETIRED_SYNTH_KEYS = {"season_amp": 1.0, "n_harmonics": N_HARMONICS, "obs_noise": 0.0}


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the seasonal + AR(1) generator.

    The defaults give a strongly predictable series: both a full-lookback
    target and a truncated-lookback draft can fit it well, so their mean
    predictions stay aligned and the acceptance sweep actually saturates.
    Each channel is a unit-amplitude profile of ``N_HARMONICS`` sine
    harmonics plus an AR(1) process, with no observation noise. A spec
    refuses, with a ValueError naming the field, a size below 1, a float
    field that is not a finite number and a negative ``ar_std``, before it
    generates anything.
    """

    n_steps: int = 360_000
    n_channels: int = 2
    season_len: int = 256
    ar_coeff: float = 0.9
    ar_std: float = 0.01
    seed: int = 2024

    def __post_init__(self) -> None:
        for key in ("n_steps", "n_channels", "season_len"):
            value = check_integer(key, getattr(self, key))
            if not value >= 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        check_real("ar_coeff", self.ar_coeff, "finite")
        check_real("ar_std", self.ar_std, "finite and >= 0")  # ar_std 0 makes the series exactly periodic
        if not 0 <= check_integer("seed", self.seed) < 2 ** 128:
            raise ValueError(f"seed must be in [0, 2**128), the range of a Philox key, got {self.seed}")

    def generate(self) -> np.ndarray:
        """The (n_channels, n_steps) series, one independent profile per channel."""
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        out = np.empty((self.n_channels, self.n_steps))
        for ch in range(self.n_channels):
            prof = seasonal_profile(self.season_len, rng)
            season = np.tile(prof, self.n_steps // self.season_len + 1)[: self.n_steps]
            innov = rng.standard_normal(self.n_steps) * self.ar_std
            out[ch] = season + _ar1_recursion(innov, self.ar_coeff)
        return out

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        """The spec a ``to_dict`` document describes; ValueError names a bad key."""
        d = drop_retired(d, _RETIRED_SYNTH_KEYS, "synthetic spec")
        check_keys(d, cls, "synthetic spec")
        return cls(**d)


def seasonal_profile(season_len: int, rng: np.random.Generator) -> np.ndarray:
    """One period of N_HARMONICS sines whose weights sum to 1, with random phases."""
    phase = rng.uniform(0, 2 * np.pi, N_HARMONICS)
    weights = rng.uniform(0.4, 1.0, N_HARMONICS)
    weights *= 1.0 / np.sum(weights)
    t = np.arange(season_len)
    prof = np.zeros(season_len)
    for h in range(N_HARMONICS):
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
