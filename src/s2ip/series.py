"""Loading, validating, splitting, and windowing multivariate time series.

Each variable of a multivariate series is treated as an independent
univariate sequence; windowing therefore emits (channel, input, target)
triples rather than cross-channel blocks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from typing import NamedTuple

import numpy as np


class SeriesError(ValueError):
    """Invalid series content (empty, non-monotonic, missing values, ...)."""


class ParseError(SeriesError):
    """Malformed CSV content; message carries the offending row number."""


@dataclass(frozen=True)
class SeriesFrame:
    """A multivariate series: strictly increasing timestamps and a (T, N)
    float64 value matrix. Immutable after construction."""

    timestamps: tuple
    values: np.ndarray
    channel_names: tuple[str, ...]

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise SeriesError(f"values must be 2-D (T, N), got shape {values.shape}")
        if values.shape[1] < 1:
            raise SeriesError("a series needs at least one channel")
        if len(self.timestamps) != values.shape[0]:
            raise SeriesError(f"{len(self.timestamps)} timestamps for "
                              f"{values.shape[0]} rows")
        if len(self.channel_names) != values.shape[1]:
            raise SeriesError(f"{len(self.channel_names)} channel names for "
                              f"{values.shape[1]} channels")
        for i in range(1, len(self.timestamps)):
            if not self.timestamps[i] > self.timestamps[i - 1]:
                raise SeriesError(f"timestamps not strictly increasing at row {i + 1}")
        if not np.all(np.isfinite(values)):
            raise SeriesError("values contain NaN or infinity")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def slice_rows(self, start: int, stop: int) -> "SeriesFrame":
        return SeriesFrame(self.timestamps[start:stop],
                           self.values[start:stop].copy(),
                           self.channel_names)

    def channel(self, index: int) -> np.ndarray:
        return self.values[:, index]


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions, summing to 1."""

    train_fraction: float = 0.7
    val_fraction: float = 0.1
    test_fraction: float = 0.2

    def __post_init__(self):
        for name in ("train_fraction", "val_fraction", "test_fraction"):
            if getattr(self, name) < 0:
                raise SeriesError(f"{name} must be nonnegative")
        total = self.train_fraction + self.val_fraction + self.test_fraction
        if abs(total - 1.0) > 1e-9:
            raise SeriesError(f"split fractions sum to {total}, expected 1")


@dataclass(frozen=True)
class WindowSpec:
    """Lookback/horizon/stride for sliding-window extraction."""

    lookback: int
    horizon: int
    stride: int = 1

    def __post_init__(self):
        if self.lookback < 1:
            raise SeriesError("lookback must be a positive integer")
        if self.horizon < 1:
            raise SeriesError("horizon must be a positive integer")
        if self.stride < 1:
            raise SeriesError("stride must be a positive integer")


class Window(NamedTuple):
    channel: int
    input: np.ndarray
    target: np.ndarray


def _parse_timestamp(text: str, row: int):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"row {row}: cannot parse timestamp {text!r}") from None


def load_csv(path, *, forward_fill: bool = False) -> SeriesFrame:
    """Load a SeriesFrame from CSV.

    The header row names the columns: column 1 is a timestamp (integer or
    ISO-8601), the remaining columns are real-valued channels. Missing cells
    are rejected unless ``forward_fill`` is set, in which case they are
    filled from the previous row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    rows = [row for row in rows if row]
    if not rows:
        raise SeriesError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2:
        raise ParseError("row 1: header must name a timestamp and at least one channel")
    channel_names = tuple(header[1:])
    n = len(channel_names)
    if len(rows) < 2:
        raise SeriesError(f"{path}: no data rows")

    timestamps = []
    values = np.empty((len(rows) - 1, n), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        row_no = i + 2  # 1-based, counting the header
        if len(row) != n + 1:
            raise ParseError(f"row {row_no}: expected {n + 1} columns, got {len(row)}")
        timestamps.append(_parse_timestamp(row[0], row_no))
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell == "" or cell.lower() == "nan":
                if forward_fill and i > 0:
                    values[i, j] = values[i - 1, j]
                    continue
                raise ParseError(f"row {row_no}: missing value in column "
                                 f"{channel_names[j]!r}")
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ParseError(f"row {row_no}: cannot parse value {cell!r} in "
                                 f"column {channel_names[j]!r}") from None
            if not math.isfinite(values[i, j]):
                raise ParseError(f"row {row_no}: non-finite value in column "
                                 f"{channel_names[j]!r}")
    return SeriesFrame(tuple(timestamps), values, channel_names)


def chronological_split(frame: SeriesFrame, spec: SplitSpec
                        ) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """Split into contiguous train/val/test frames.

    Val and test get floor(fraction * T) rows; the remainder goes to train so
    the test segment stays deterministic.
    """
    t = frame.length
    n_val = int(math.floor(spec.val_fraction * t))
    n_test = int(math.floor(spec.test_fraction * t))
    n_train = t - n_val - n_test
    train = frame.slice_rows(0, n_train)
    val = frame.slice_rows(n_train, n_train + n_val)
    test = frame.slice_rows(n_train + n_val, t)
    return train, val, test


def few_shot_truncate(train: SeriesFrame, fraction: float) -> SeriesFrame:
    """Keep only the first floor(fraction * T) rows of the training split."""
    if not 0.0 < fraction <= 1.0:
        raise SeriesError(f"few-shot fraction must lie in (0, 1], got {fraction}")
    keep = int(math.floor(fraction * train.length))
    if keep == 0:
        raise SeriesError(f"few-shot fraction {fraction} of {train.length} rows "
                          "leaves an empty training split")
    return train.slice_rows(0, keep)


def window_count(length: int, spec: WindowSpec) -> int:
    """Closed-form number of windows per channel."""
    span = spec.lookback + spec.horizon
    if length < span:
        return 0
    return (length - span) // spec.stride + 1


def windows(frame: SeriesFrame, spec: WindowSpec) -> list[Window]:
    """Per-channel sliding windows at offsets 0, stride, 2*stride, ...

    Each window pairs ``lookback`` input steps with the ``horizon`` steps
    that immediately follow. An empty list is returned when the frame is too
    short.
    """
    out: list[Window] = []
    count = window_count(frame.length, spec)
    for ch in range(frame.n_channels):
        col = frame.channel(ch)
        for k in range(count):
            start = k * spec.stride
            mid = start + spec.lookback
            out.append(Window(ch,
                              col[start:mid].copy(),
                              col[mid:mid + spec.horizon].copy()))
    return out


@dataclass
class Standardizer:
    """Global per-channel z-scoring with statistics taken from the training
    split only; applied before any per-window normalization."""

    mean: np.ndarray = field(default_factory=lambda: np.zeros(0))
    std: np.ndarray = field(default_factory=lambda: np.ones(0))

    @classmethod
    def fit(cls, train: SeriesFrame) -> "Standardizer":
        mean = train.values.mean(axis=0)
        std = train.values.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, frame: SeriesFrame) -> SeriesFrame:
        scaled = (frame.values - self.mean) / self.std
        return SeriesFrame(frame.timestamps, scaled, frame.channel_names)

    def inverse(self, values: np.ndarray, channel: int) -> np.ndarray:
        return values * self.std[channel] + self.mean[channel]
