"""Series ingestion, standardization, and patch tokenization.

A series is a (channels, timesteps) float array. Channels are standardized
independently and tokenized into fixed-length patches channel by channel;
each patch is one generation unit for the decode engine.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class CsvSchema:
    """Column selection for CSV ingestion.

    channel_cols: names of the numeric channels, in output order. None means
    every column except the timestamp column.
    """

    channel_cols: tuple[str, ...] | None = None
    timestamp_col: str | None = None


def load_csv(path, schema: CsvSchema = CsvSchema()) -> np.ndarray:
    """Load a (channels, timesteps) matrix from a headered CSV.

    Rows must be in time order. Missing, non-numeric, or non-finite cells and
    ragged rows are rejected with the offending row number; no imputation.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if schema.channel_cols is not None:
            names = list(schema.channel_cols)
        else:
            names = [h for h in header if h != schema.timestamp_col]
        if not names:
            raise ValueError(f"{path}: no channel columns selected")
        try:
            idx = [header.index(name) for name in names]
        except ValueError as exc:
            raise ValueError(f"{path}: column not found in header: {exc}") from None

        columns: list[list[float]] = [[] for _ in names]
        n_fields = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_fields:
                raise ValueError(f"{path}: row {lineno}: expected {n_fields} fields, got {len(row)}")
            for j, col in zip(idx, columns):
                cell = row[j].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno}, column {header[j]!r}: non-numeric cell {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {lineno}, column {header[j]!r}: missing or non-finite value"
                    )
                col.append(value)
    if not columns[0]:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(columns, dtype=np.float64)


@dataclass(frozen=True)
class NormStats:
    """Per-channel standardization statistics (usually from the train split)."""

    mean: np.ndarray  # (C,)
    std: np.ndarray   # (C,), floored at STD_FLOOR

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        std = np.maximum(np.atleast_1d(np.asarray(self.std, dtype=np.float64)), STD_FLOOR)
        mean.flags.writeable = False
        std.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "NormStats":
        values = np.asarray(values, dtype=np.float64)
        return cls(mean=values.mean(axis=1), std=values.std(axis=1))

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean[:, None]) / self.std[:, None]

    def invert_channel(self, values: np.ndarray, channel: int) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.std[channel] + self.mean[channel]

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(mean=np.asarray(d["mean"]), std=np.asarray(d["std"]))


@dataclass(frozen=True)
class PatchSeries:
    """A standardized series tokenized into patches, channel-independently.

    patches has shape (C, n_patches, P) with n_patches = floor(L / P); the
    trailing remainder of each channel is dropped.
    """

    values: np.ndarray        # (C, L), standardized
    patch_len: int
    norm_stats: NormStats
    patches: np.ndarray       # (C, n_patches, P)

    @classmethod
    def from_values(
        cls,
        raw_values: np.ndarray,
        patch_len: int,
        norm_stats: NormStats | None = None,
    ) -> "PatchSeries":
        raw_values = np.atleast_2d(np.asarray(raw_values, dtype=np.float64))
        if patch_len < 1:
            raise ValueError("patch_len must be >= 1")
        if raw_values.shape[1] < patch_len:
            raise ValueError(
                f"series length {raw_values.shape[1]} shorter than patch_len {patch_len}"
            )
        stats = norm_stats if norm_stats is not None else NormStats.from_values(raw_values)
        std_values = stats.apply(raw_values)
        n_channels, length = std_values.shape
        n_patches = length // patch_len
        patches = std_values[:, : n_patches * patch_len].reshape(n_channels, n_patches, patch_len)
        std_values.flags.writeable = False
        patches.flags.writeable = False
        return cls(values=std_values, patch_len=patch_len, norm_stats=stats, patches=patches)

    @property
    def n_channels(self) -> int:
        return self.patches.shape[0]

    @property
    def n_patches(self) -> int:
        return self.patches.shape[1]

    def channel_patches(self, channel: int) -> np.ndarray:
        return self.patches[channel]


def chronological_split(
    values: np.ndarray, fractions: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split (C, L) values into train/val/test along time."""
    if len(fractions) != 3 or any(f < 0 for f in fractions) or not math.isclose(sum(fractions), 1.0):
        raise ValueError(f"split fractions must be three non-negatives summing to 1, got {fractions}")
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    length = values.shape[1]
    n_train = int(fractions[0] * length)
    n_val = int(fractions[1] * length)
    return values[:, :n_train], values[:, n_train : n_train + n_val], values[:, n_train + n_val :]


def metrics(forecast: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """Element-mean squared and absolute error over all dims and horizon."""
    forecast = np.asarray(forecast, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if forecast.shape != truth.shape:
        raise ValueError(f"shape mismatch: forecast {forecast.shape} vs truth {truth.shape}")
    err = forecast - truth
    return {"mse": float(np.mean(err ** 2)), "mae": float(np.mean(np.abs(err)))}
