"""Synthetic series generators and the bundled benchmark dataset.

The bundled dataset is a seasonal-plus-AR(1) mix: the seasonal component is
exactly learnable by a linear patch model whose lookback covers the period,
so a truncated-lookback draft stays closely aligned with the full target.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass

import numpy as np


def check_keys(d: dict, cls, what: str) -> None:
    """ValueError naming every key of document ``d`` that is not a field of dataclass ``cls``."""
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


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

    def generate(self) -> np.ndarray:
        return seasonal_ar(
            n_steps=self.n_steps,
            n_channels=self.n_channels,
            season_len=self.season_len,
            season_amp=self.season_amp,
            ar_coeff=self.ar_coeff,
            ar_std=self.ar_std,
            obs_noise=self.obs_noise,
            seed=self.seed,
            n_harmonics=self.n_harmonics,
        )

    def to_dict(self) -> dict:
        return {
            "n_steps": self.n_steps,
            "n_channels": self.n_channels,
            "season_len": self.season_len,
            "season_amp": self.season_amp,
            "ar_coeff": self.ar_coeff,
            "ar_std": self.ar_std,
            "obs_noise": self.obs_noise,
            "seed": self.seed,
            "n_harmonics": self.n_harmonics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        """The spec a ``to_dict`` document describes; ValueError names an unknown key."""
        check_keys(d, cls, "synthetic spec")
        return cls(**d)


DEFAULT_SPEC = SyntheticSpec()


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


def pure_seasonal(n_steps: int, n_channels: int = 1, season_len: int = 64, seed: int = 0) -> np.ndarray:
    """Exactly periodic series: x_t = x_{t-season_len} with no noise."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty((n_channels, n_steps))
    for ch in range(n_channels):
        prof = seasonal_profile(season_len, 1.0, 3, rng)
        out[ch] = np.tile(prof, n_steps // season_len + 1)[:n_steps]
    return out


def ar1(n_steps: int, n_channels: int = 1, phi: float = 0.8, noise_std: float = 1.0, seed: int = 0) -> np.ndarray:
    """Plain AR(1) series per channel."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty((n_channels, n_steps))
    for ch in range(n_channels):
        innov = rng.standard_normal(n_steps) * noise_std
        out[ch] = _ar1_recursion(innov, phi)
    return out


def write_csv(path, values: np.ndarray, channel_names: list[str] | None = None, timestamps: bool = True) -> None:
    """Write a (C, L) matrix as a headered CSV, one row per timestep."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n_channels, n_steps = values.shape
    names = channel_names or [f"ch{i}" for i in range(n_channels)]
    if len(names) != n_channels:
        raise ValueError("channel_names length mismatch")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow((["t"] if timestamps else []) + names)
        for t in range(n_steps):
            row = ([str(t)] if timestamps else []) + [repr(float(v)) for v in values[:, t]]
            writer.writerow(row)
