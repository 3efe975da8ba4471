"""Window-level preprocessing: reversible instance normalization, additive
seasonal-trend decomposition, and overlapped patching.

The normalization uses instance (per-window) statistics with a trainable
affine map, so it can be inverted exactly on the forecast. Decomposition is
additive: trend + seasonal + residual reconstructs the input bit-for-bit by
construction. Patches are overlapping slices of the series after its tail is
replicate-padded by one stride, which realizes the "+2" in the patch-count
formula. Decomposition and patching work along the last axis, so a
``(B, n)`` batch of windows goes through in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPSILON = 1e-5


class PreprocessError(ValueError):
    pass


@dataclass(frozen=True)
class RevInState:
    """Instance statistics plus the affine parameters used to normalize one
    window (floats) or a batch of windows (``(B,)`` arrays); kept so the
    forecast can be mapped back to the original scale."""

    mean: float | np.ndarray
    variance: float | np.ndarray
    gamma: float | np.ndarray
    beta: float | np.ndarray
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if np.any(np.less(self.variance, 0)):
            raise PreprocessError("variance must be nonnegative")
        if self.epsilon <= 0:
            raise PreprocessError("epsilon must be positive")

    @property
    def scale(self) -> float | np.ndarray:
        return np.sqrt(np.add(self.variance, self.epsilon))


def revin_normalize(x: np.ndarray, gamma: float = 1.0, beta: float = 0.0,
                    epsilon: float = DEFAULT_EPSILON
                    ) -> tuple[np.ndarray, RevInState]:
    """Map a window to gamma * (x - mean) / sqrt(var + eps) + beta.

    Mean and variance are the window's own (population) statistics; they are
    returned in the state for later inversion.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise PreprocessError(f"need a 1-D window of length >= 2, got shape {x.shape}")
    state = RevInState(mean=float(x.mean()), variance=float(x.var()),
                       gamma=float(gamma), beta=float(beta),
                       epsilon=float(epsilon))
    return gamma * (x - state.mean) / state.scale + beta, state


def revin_denormalize(y: np.ndarray, state: RevInState) -> np.ndarray:
    """Exact inverse of :func:`revin_normalize` using the stored statistics."""
    if state.gamma == 0.0:
        raise PreprocessError("cannot invert normalization with gamma == 0")
    y = np.asarray(y, dtype=np.float64)
    return (y - state.beta) / state.gamma * state.scale + state.mean


@dataclass(frozen=True)
class DecompositionResult:
    """Components with the input's shape: ``(n,)`` or ``(B, n)``."""

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int
    trend_window: int
    method: str


def _validate_decomposition_args(n: int, period: int, trend_window: int) -> None:
    if not 2 <= period <= n // 2:
        raise PreprocessError(f"period must lie in [2, {n // 2}] for a window of "
                              f"length {n}, got {period}")
    if trend_window % 2 == 0 or not 1 <= trend_window <= n:
        raise PreprocessError(f"trend_window must be odd and <= {n}, got {trend_window}")


def _windows(x: np.ndarray, width: int, step: int = 1) -> np.ndarray:
    """Copies of the full ``width``-wide windows along the last axis, at
    offsets 0, step, 2 * step, ...; shape ``(..., count, width)``.

    An index gather rather than ``sliding_window_view``: under NumPy 2.4
    every view made through ``as_strided`` leaves a little memory behind,
    which adds up on the per-window forecast path.
    """
    starts = np.arange(0, x.shape[-1] - width + 1, step)
    return x[..., starts[:, None] + np.arange(width)]


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Mean of every full ``window`` along the last axis (n - window + 1
    values per row)."""
    return _windows(x, window).mean(axis=-1)


def moving_average_trend(x: np.ndarray, trend_window: int) -> np.ndarray:
    """Centered moving average along the last axis with replicate-extended
    edges, so a constant series has itself as trend."""
    half = trend_window // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)], mode="edge")
    return _moving_average(padded, trend_window)


def classical_decompose(x: np.ndarray, period: int, trend_window: int
                        ) -> DecompositionResult:
    """Classical additive decomposition along the last axis.

    Trend is a centered moving average; the seasonal component is the
    per-phase mean of the detrended series, de-meaned so each full period
    sums to zero; the residual is whatever remains.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    _validate_decomposition_args(n, period, trend_window)
    trend = moving_average_trend(x, trend_window)
    # zero-pad to whole cycles so each phase is one column of a reshape
    cycles = -(-n // period)
    padded = np.zeros(x.shape[:-1] + (cycles * period,))
    padded[..., :n] = x - trend
    phases = np.arange(n) % period
    phase_means = (padded.reshape(x.shape[:-1] + (cycles, period)).sum(axis=-2)
                   / np.bincount(phases))
    phase_means -= phase_means.mean(axis=-1, keepdims=True)
    seasonal = phase_means[..., phases]
    residual = x - trend - seasonal
    return DecompositionResult(trend, seasonal, residual, period, trend_window,
                               "classical")


def _tricube(dist: np.ndarray, width: np.ndarray) -> np.ndarray:
    return (1.0 - np.minimum(dist / width, 1.0) ** 3) ** 3


def _fit_line(sw, sx, sxx, sy, sxy, at):
    denom = sw * sxx - sx * sx
    safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
    slope = np.where(np.abs(denom) > 1e-12, (sw * sxy - sx * sy) / safe, 0.0)
    intercept = (sy - slope * sx) / sw
    return intercept + slope * at


def _loess_batch(ys: np.ndarray, span: int) -> np.ndarray:
    """Locally weighted degree-1 regression at every sample point, applied
    row-wise to a (B, n) batch that shares positions.

    Uses the ``span`` nearest neighbours with tricube weights; equivalent to
    a global weighted line when span >= n.
    """
    n = ys.shape[1]
    q = min(max(span, 2), n)
    idx0 = np.clip(np.arange(n) - q // 2, 0, n - q)
    cols = idx0[:, None] + np.arange(q)[None, :]        # (n, q)
    xs = cols.astype(np.float64)
    centers = np.arange(n, dtype=np.float64)[:, None]
    dist = np.abs(xs - centers)
    width = np.maximum(dist.max(axis=1, keepdims=True), 1e-12)
    w = _tricube(dist, width)                           # (n, q)
    yw = ys[:, cols]                                    # (B, n, q)
    sw = w.sum(axis=1)
    sx = (w * xs).sum(axis=1)
    sxx = (w * xs * xs).sum(axis=1)
    sy = np.einsum("nq,bnq->bn", w, yw)
    sxy = np.einsum("nq,bnq->bn", w * xs, yw)
    return _fit_line(sw, sx, sxx, sy, sxy, centers[:, 0])


def _loess_at_batch(ys: np.ndarray, points, span: int) -> np.ndarray:
    """Evaluate the local fit at arbitrary (possibly exterior) positions,
    shared across a (B, n) batch of rows."""
    n = ys.shape[1]
    q = min(max(span, 2), n)
    out = np.empty((ys.shape[0], len(points)))
    for j, p in enumerate(points):
        start = int(np.clip(round(p) - q // 2, 0, n - q))
        xs = np.arange(start, start + q, dtype=np.float64)
        dist = np.abs(xs - p)
        width = max(dist.max(), 1e-12)
        w = _tricube(dist, width)
        block = ys[:, start:start + q]
        out[:, j] = _fit_line(w.sum(), (w * xs).sum(), (w * xs * xs).sum(),
                              block @ w, block @ (w * xs), p)
    return out


def stl_decompose(x: np.ndarray, period: int, trend_window: int,
                  seasonal_span: int = 7, inner_iterations: int = 2
                  ) -> DecompositionResult:
    """Iterative loess-based decomposition along the last axis.

    Each inner pass smooths the cycle-subseries of the detrended data
    (extended one period on each side), removes a low-pass version of the
    result to get the seasonal component, then loess-smooths the
    deseasonalized series to refine the trend. The residual is defined as
    x - trend - seasonal, so additivity is exact.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    _validate_decomposition_args(n, period, trend_window)
    if seasonal_span % 2 == 0 or seasonal_span < 3:
        raise PreprocessError("seasonal_span must be odd and >= 3")
    if inner_iterations < 1:
        raise PreprocessError("need at least one inner iteration")

    rows = x.reshape(-1, n)
    lowpass_span = period + (period % 2 == 0)  # smallest odd >= period
    # cycle-subseries lengths take at most two values; group for batching
    groups: dict[int, list[int]] = {}
    for phase in range(period):
        groups.setdefault(-(-(n - phase) // period), []).append(phase)

    trend = np.zeros_like(rows)
    seasonal = np.zeros_like(rows)
    for _ in range(inner_iterations):
        detrended = rows - trend
        # subseries of phase p, extended by one point on each side, lands
        # at p, p + period, ... of a series 2 * period longer than x
        extended = np.empty((rows.shape[0], n + 2 * period))
        for m, phases in groups.items():
            sub = np.stack([detrended[:, phase::period] for phase in phases],
                           axis=1).reshape(-1, m)
            interior = _loess_batch(sub, seasonal_span)
            exterior = _loess_at_batch(sub, (-1.0, float(m)), seasonal_span)
            cycles = np.concatenate([exterior[:, :1], interior, exterior[:, 1:]],
                                    axis=1).reshape(rows.shape[0], len(phases),
                                                    m + 2)
            for j, phase in enumerate(phases):
                extended[:, phase::period] = cycles[:, j]
        lowpass = _moving_average(_moving_average(_moving_average(
            extended, period), period), 3)
        lowpass = _loess_batch(lowpass, lowpass_span)
        seasonal = extended[:, period:period + n] - lowpass
        trend = _loess_batch(rows - seasonal, trend_window)
    residual = rows - trend - seasonal
    return DecompositionResult(trend.reshape(x.shape), seasonal.reshape(x.shape),
                               residual.reshape(x.shape), period, trend_window,
                               "stl")


def decompose(x: np.ndarray, period: int, trend_window: int,
              method: str = "classical", **kwargs) -> DecompositionResult:
    """Additive decomposition by the requested method, along the last axis
    of an ``(n,)`` window or a ``(B, n)`` batch."""
    if method == "classical":
        return classical_decompose(x, period, trend_window)
    if method == "stl":
        return stl_decompose(x, period, trend_window, **kwargs)
    raise PreprocessError(f"unknown decomposition method {method!r}")


@dataclass(frozen=True)
class PatchSpec:
    """Patch length and horizontal stride; length >= stride keeps patches
    overlapped."""

    patch_length: int
    stride: int

    def __post_init__(self):
        if self.patch_length < 1 or self.stride < 1:
            raise PreprocessError("patch_length and stride must be positive")
        if self.patch_length < self.stride:
            raise PreprocessError("patch_length must be >= stride (overlap convention)")


def patch_count(length: int, spec: PatchSpec) -> int:
    """floor((tau - L_P) / S) + 2 patches per window."""
    if spec.patch_length > length:
        raise PreprocessError(f"patch_length {spec.patch_length} exceeds window "
                              f"length {length}")
    return (length - spec.patch_length) // spec.stride + 2


def patch(component: np.ndarray, spec: PatchSpec) -> np.ndarray:
    """Slice a component series into overlapping patches along its last
    axis: ``(n,)`` gives ``(n_patches, patch_length)``, ``(B, n)`` gives
    ``(B, n_patches, patch_length)``.

    The series is first right-padded with ``stride`` copies of its last
    value; patch k is then the slice starting at k * stride.
    """
    component = np.asarray(component, dtype=np.float64)
    if component.ndim < 1:
        raise PreprocessError("expected a component series, got a scalar")
    patch_count(component.shape[-1], spec)  # validates the length
    tail = np.repeat(component[..., -1:], spec.stride, axis=-1)
    padded = np.concatenate([component, tail], axis=-1)
    return _windows(padded, spec.patch_length, spec.stride)
