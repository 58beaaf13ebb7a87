"""Test-only builders: synthetic AR(1) data, a CSV writer, and the
standardization inverse."""

import csv

import numpy as np

from speccast.synth import _ar1_recursion


def ar1(n_steps: int, n_channels: int = 1, phi: float = 0.8, noise_std: float = 1.0, seed: int = 0) -> np.ndarray:
    """Plain AR(1) series per channel, shape (n_channels, n_steps)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = np.empty((n_channels, n_steps))
    for ch in range(n_channels):
        innov = rng.standard_normal(n_steps) * noise_std
        out[ch] = _ar1_recursion(innov, phi)
    return out


def write_csv(path, values: np.ndarray) -> None:
    """Write a (C, L) matrix as a CSV with a ``t`` column and ``ch<i>`` headers."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"ch{i}" for i in range(values.shape[0])])
        for t in range(values.shape[1]):
            writer.writerow([str(t)] + [repr(float(v)) for v in values[:, t]])


def invert(stats, values: np.ndarray) -> np.ndarray:
    """Undo ``stats.apply`` on a (C, L) matrix, one channel at a time."""
    return np.stack([stats.invert_channel(v, ch) for ch, v in enumerate(values)])
