"""Forecast accuracy metrics.

MSE/MAE for the long-horizon protocol; SMAPE/MAPE/MASE plus the OWA
composite (against a seasonally adjusted naive reference) for the
short-horizon protocol. Conventions for the degenerate cases: SMAPE terms
with a zero denominator contribute 0, and MASE is reported as absent when
the in-sample seasonal-naive error vanishes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

SEASONALITY_TEST_FACTOR = 0.9  # multiplies 1.645 / sqrt(n)


class MetricError(ValueError):
    pass


@dataclass
class MetricReport:
    mse: float
    mae: float
    horizon: int
    seasonality: int = 1
    smape: float | None = None
    mape: float | None = None
    mase: float | None = None
    owa: float | None = None
    n_windows: int = 0

    def as_row(self) -> dict:
        return {
            "mse": self.mse, "mae": self.mae,
            "smape": self.smape, "mape": self.mape,
            "mase": self.mase, "owa": self.owa,
            "horizon": self.horizon, "seasonality": self.seasonality,
            "n_windows": self.n_windows,
        }


def _pair(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1 or y.size < 1:
        raise MetricError(f"need equal-length 1-D vectors, got {y.shape} "
                          f"and {yhat.shape}")
    return y, yhat


def mse_mae(y, yhat) -> tuple[float, float]:
    """Mean squared / absolute error over the horizon."""
    y, yhat = _pair(y, yhat)
    diff = y - yhat
    return float(np.mean(diff * diff)), float(np.mean(np.abs(diff)))


def row_mse_mae(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    """Each row's :func:`mse_mae` of two equal ``(N, H)`` arrays, bit for
    bit, as two ``(N,)`` arrays, from one reduction over the stacked
    squared and absolute errors."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 2 or y.size < 1:
        raise MetricError(f"need equal (N, H) arrays, got {y.shape} and "
                          f"{yhat.shape}")
    errors = np.empty((2, *y.shape))
    np.subtract(y, yhat, out=errors[1])
    np.multiply(errors[1], errors[1], out=errors[0])
    np.abs(errors[1], out=errors[1])
    # each row sums pairwise along its contiguous horizon, as np.mean of
    # one row does
    sums = np.add.reduce(errors, axis=2)
    sums /= y.shape[1]
    return sums[0], sums[1]


def smape(y, yhat) -> float:
    """200/H * sum |y - yhat| / (|y| + |yhat|), zero-denominator terms
    contributing 0."""
    y, yhat = _pair(y, yhat)
    denom = np.abs(y) + np.abs(yhat)
    terms = np.where(denom == 0.0, 0.0, np.abs(y - yhat) / np.where(denom == 0, 1, denom))
    return float(200.0 * terms.mean())


def mape(y, yhat) -> float:
    """100/H * sum |y - yhat| / |y|, zero-denominator terms contributing 0."""
    y, yhat = _pair(y, yhat)
    denom = np.abs(y)
    terms = np.where(denom == 0.0, 0.0, np.abs(y - yhat) / np.where(denom == 0, 1, denom))
    return float(100.0 * terms.mean())


def mase(y, yhat, insample, seasonality: int) -> float | None:
    """Mean absolute error scaled by the in-sample seasonal-naive error.

    The denominator is mean |x_t - x_{t-s}| over the history, which stays
    defined for any horizon; a constant history makes the metric undefined
    (returned as None).
    """
    y, yhat = _pair(y, yhat)
    insample = np.asarray(insample, dtype=np.float64)
    s = int(seasonality)
    if s < 1:
        raise MetricError("seasonality must be >= 1")
    if insample.size <= s:
        raise MetricError(f"in-sample history of length {insample.size} is too "
                          f"short for seasonality {s}")
    denom = float(np.mean(np.abs(insample[s:] - insample[:-s])))
    if denom == 0.0:
        return None
    return float(np.mean(np.abs(y - yhat)) / denom)


def _autocorrelation(x: np.ndarray, lag: int) -> float:
    d = x - x.mean()
    denom = float(np.sum(d * d))
    if denom == 0.0:
        return 0.0
    return float(np.sum(d[lag:] * d[:-lag]) / denom)


def seasonality_test(insample: np.ndarray, s: int,
                     factor: float = SEASONALITY_TEST_FACTOR) -> bool:
    """Is the lag-s autocorrelation above factor * 1.645 / sqrt(n)?"""
    n = insample.size
    if s < 2 or n <= s:
        return False
    threshold = factor * 1.645 / np.sqrt(n)
    return _autocorrelation(insample, s) > threshold


def _seasonal_indices(insample: np.ndarray, s: int) -> np.ndarray | None:
    """Multiplicative seasonal indices (mean 1) from centered-MA detrending;
    None when the data cannot support them."""
    n = insample.size
    if n < 2 * s or np.any(insample <= 0.0):
        return None
    if s % 2 == 0:
        # 2xMA for even periods
        first = np.convolve(insample, np.full(s, 1.0 / s), mode="valid")
        cma = np.convolve(first, np.full(2, 0.5), mode="valid")
        offset = s // 2
    else:
        cma = np.convolve(insample, np.full(s, 1.0 / s), mode="valid")
        offset = s // 2
    if np.any(cma <= 0.0):
        return None
    ratios = insample[offset:offset + cma.size] / cma
    phases = (np.arange(cma.size) + offset) % s
    indices = np.empty(s)
    for p in range(s):
        mask = phases == p
        if not mask.any():
            return None
        indices[p] = ratios[mask].mean()
    indices /= indices.mean()
    return indices


def naive2_forecast(insample, s: int, horizon: int) -> np.ndarray:
    """Seasonally adjusted last-value forecast.

    When the seasonality test passes (and multiplicative adjustment is
    well-defined), the series is deseasonalized by classical multiplicative
    indices, the last deseasonalized level is repeated, and the indices are
    reapplied; otherwise the last raw value is repeated.
    """
    insample = np.asarray(insample, dtype=np.float64)
    if insample.size < max(s, 1):
        raise MetricError("in-sample history shorter than the seasonality")
    if horizon == 0:
        return np.empty(0)
    if s >= 2 and seasonality_test(insample, s):
        indices = _seasonal_indices(insample, s)
        if indices is not None:
            n = insample.size
            deseasonalized = insample / indices[np.arange(n) % s]
            level = deseasonalized[-1]
            future_phases = (n + np.arange(horizon)) % s
            return level * indices[future_phases]
    return np.full(horizon, insample[-1])


def owa(model_smape: float, model_mase: float,
        naive_smape: float, naive_mase: float) -> float | None:
    """Half the sum of the SMAPE and MASE ratios against the naive
    reference; absent when a reference value is zero."""
    if naive_smape <= 0.0 or naive_mase <= 0.0:
        return None
    return float(0.5 * (model_smape / naive_smape + model_mase / naive_mase))


def evaluate_forecasts(pairs, mode: str = "long", seasonality: int = 1,
                       insamples=None) -> MetricReport:
    """Aggregate metrics over (target, forecast) pairs.

    In short mode each window also needs its in-sample history (for MASE and
    the naive reference); per-window metrics are averaged and OWA is formed
    from the aggregate ratios.
    """
    pairs = list(pairs)
    if not pairs:
        raise MetricError("no forecasts to evaluate")
    return _aggregate(_window_metrics(pairs, insamples, mode, seasonality),
                      len(pairs[0][0]), mode, seasonality)


def _window_metrics(pairs: list, insamples, mode: str, seasonality: int
                    ) -> list[dict]:
    """Each window's MSE and MAE; in short mode also its SMAPE, MAPE and
    MASE (None when undefined), and the naive reference's SMAPE and MASE."""
    if mode not in ("long", "short"):
        raise MetricError(f"unknown metrics mode {mode!r}")
    if mode == "short" and (insamples is None or len(insamples) != len(pairs)):
        raise MetricError("short mode needs one in-sample history per window")
    targets, forecasts = zip(*pairs)
    try:
        targets, forecasts = np.stack(targets), np.stack(forecasts)
    except ValueError:
        raise MetricError("need windows of one horizon") from None
    mses, maes = row_mse_mae(targets, forecasts)
    rows = [{"mse": m, "mae": a} for m, a in zip(mses.tolist(), maes.tolist())]
    if mode == "short":
        for row, (y, yhat), hist in zip(rows, pairs, insamples):
            ref = naive2_forecast(hist, seasonality, len(y))
            row.update(smape=smape(y, yhat), mape=mape(y, yhat),
                       mase=mase(y, yhat, hist, seasonality),
                       ref_smape=smape(y, ref),
                       ref_mase=mase(y, ref, hist, seasonality))
    return rows


def _aggregate(rows: list[dict], horizon: int, mode: str, seasonality: int
               ) -> MetricReport:
    """The report over :func:`_window_metrics` rows; a MASE that is None
    leaves its window out of that mean."""
    def mean(key: str) -> float | None:
        values = [row[key] for row in rows if row[key] is not None]
        return float(np.mean(values)) if values else None

    report = MetricReport(mse=mean("mse"), mae=mean("mae"), horizon=horizon,
                          seasonality=seasonality, n_windows=len(rows))
    if mode == "short":
        report.smape, report.mape, report.mase = (mean("smape"), mean("mape"),
                                                  mean("mase"))
        ref_mase = mean("ref_mase")
        if report.mase is not None and ref_mase is not None:
            report.owa = owa(report.smape, report.mase, mean("ref_smape"),
                             ref_mase)
    return report


def evaluate_model(model, test_windows, mode: str = "long",
                   seasonality: int = 1, dump_path=None) -> MetricReport:
    """Forecast the test windows in one ``model.forward_forecast`` call,
    aggregate the metric suite, and optionally dump per-window rows as CSV.
    A forecast or metric that is not finite raises ``MetricError`` before
    anything is written."""
    if not test_windows:
        raise MetricError("test set is empty")
    channels, insamples, targets = zip(*test_windows)
    forecasts = model.forward_forecast(np.stack(insamples), channels).forecast
    pairs = list(zip(targets, forecasts))
    rows = _window_metrics(pairs, insamples, mode, seasonality)
    report = _aggregate(rows, len(targets[0]), mode, seasonality)
    _require_finite(forecasts, rows, report, channels)
    if dump_path is not None:
        fields = ["window_id", "channel", "mse", "mae"]
        if mode == "short":
            fields += ["smape", "mase"]   # csv writes an undefined MASE as ""
        with open(dump_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields,
                                    extrasaction="ignore")
            writer.writeheader()
            for i, (channel, row) in enumerate(zip(channels, rows)):
                writer.writerow({"window_id": i, "channel": channel, **row})
    return report


def _require_finite(forecasts: np.ndarray, rows: list[dict],
                    report: MetricReport, channels) -> None:
    """Raise ``MetricError`` naming the first window whose forecast or
    metrics are not finite, or else the aggregate that is not."""
    aggregates = {key: value for key, value in report.as_row().items()
                  if value is not None}
    if (np.isfinite(forecasts).all()
            and np.isfinite(list(aggregates.values())).all()):
        return
    for i, (forecast, row) in enumerate(zip(forecasts, rows)):
        bad = [] if np.isfinite(forecast).all() else ["forecast"]
        bad += [key for key, value in row.items()
                if value is not None and not np.isfinite(value)]
        if bad:
            raise MetricError(f"window {i} (channel {channels[i]}): "
                              f"{', '.join(bad)} not finite")
    bad = [key for key, value in aggregates.items() if not np.isfinite(value)]
    raise MetricError(f"mean {', '.join(bad)} over {len(rows)} windows not "
                      "finite")
