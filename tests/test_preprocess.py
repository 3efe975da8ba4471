import numpy as np
import pytest

from s2ip.preprocess import (PatchSpec, PreprocessError, RevInState,
                             _loess_at_batch, _loess_batch, decompose,
                             moving_average_trend, patch, patch_count,
                             revin_denormalize, revin_normalize)


def oracle_classical(x, period, trend_window):
    """Straight-line reference decomposition, written with explicit loops."""
    n = len(x)
    half = trend_window // 2
    padded = np.concatenate([np.full(half, x[0]), x, np.full(half, x[-1])])
    trend = np.array([padded[i:i + trend_window].mean() for i in range(n)])
    detrended = x - trend
    means = []
    for p in range(period):
        vals = [detrended[i] for i in range(n) if i % period == p]
        means.append(float(np.mean(vals)))
    means = np.array(means) - np.mean(means)
    seasonal = np.array([means[i % period] for i in range(n)])
    return trend, seasonal, x - trend - seasonal


def oracle_stl(x, period, trend_window, seasonal_span=7, inner_iterations=2):
    """One-window reference of the loess decomposition: cycle-subseries
    placed point by point, low-pass by np.convolve."""
    n = len(x)

    def moving_average(values, window):
        return np.convolve(values, np.full(window, 1.0 / window), mode="valid")

    groups = {}
    for phase in range(period):
        groups.setdefault(-(-(n - phase) // period), []).append(phase)
    trend = np.zeros(n)
    for _ in range(inner_iterations):
        detrended = x - trend
        extended = np.empty(n + 2 * period)
        for m, phases in groups.items():
            rows = np.stack([detrended[phase::period] for phase in phases])
            interior = _loess_batch(rows, seasonal_span)
            exterior = _loess_at_batch(rows, (-1.0, float(m)), seasonal_span)
            positions = np.arange(-1, m + 1)
            for row, phase in enumerate(phases):
                times = phase + positions * period + period
                extended[times[0]] = exterior[row, 0]
                extended[times[1:-1]] = interior[row]
                extended[times[-1]] = exterior[row, 1]
        lowpass = moving_average(moving_average(moving_average(
            extended, period), period), 3)
        lowpass = _loess_batch(lowpass[None], period + (period % 2 == 0))[0]
        seasonal = extended[period:period + n] - lowpass
        trend = _loess_batch((x - seasonal)[None], trend_window)[0]
    return trend, seasonal, x - trend - seasonal


# ---------------------------------------------------------------------------
# reversible instance normalization
# ---------------------------------------------------------------------------

def test_revin_constant_window():
    out, state = revin_normalize(np.array([5.0, 5.0, 5.0, 5.0]))
    assert np.allclose(out, 0.0, atol=1e-6)
    assert state.mean == 5.0
    assert state.variance == 0.0


def test_revin_hand_computed():
    out, _ = revin_normalize(np.array([1.0, 2.0, 3.0, 4.0]), epsilon=1e-8)
    expected = (np.array([1.0, 2.0, 3.0, 4.0]) - 2.5) / np.sqrt(1.25 + 1e-8)
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(out, [-1.3416, -0.4472, 0.4472, 1.3416], atol=1e-4)


def test_revin_affine_parameters():
    # mean 1.5, population std 0.5 -> z = [-1, 1]; gamma 2, beta 1 -> [-1, 3]
    out, _ = revin_normalize(np.array([1.0, 2.0]), gamma=2.0, beta=1.0,
                             epsilon=1e-12)
    assert np.allclose(out, [-1.0, 3.0], atol=1e-5)


def test_revin_too_short():
    with pytest.raises(PreprocessError):
        revin_normalize(np.array([1.0]))


def test_revin_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(8, 513))
        x = rng.normal(rng.normal() * 10, rng.uniform(0.1, 5.0), size=n)
        gamma = rng.uniform(0.5, 2.0)
        beta = rng.normal()
        out, state = revin_normalize(x, gamma=gamma, beta=beta)
        back = revin_denormalize(out, state)
        assert np.max(np.abs(back - x)) <= 1e-9


def test_revin_beta_maps_to_mean():
    x = np.array([3.0, 7.0, 5.0, 9.0])
    _, state = revin_normalize(x, gamma=1.5, beta=0.25)
    back = revin_denormalize(np.full(4, state.beta), state)
    assert np.allclose(back, state.mean)


def test_revin_denormalize_hand_inverted():
    state = RevInState(mean=2.5, variance=1.25, gamma=1.0, beta=0.0,
                       epsilon=1e-12)
    out = revin_denormalize(np.array([0.4472]), state)
    assert np.allclose(out, 0.4472 * np.sqrt(1.25 + 1e-12) + 2.5)
    assert abs(out[0] - 3.0) < 1e-3


def test_revin_zero_gamma_rejected():
    state = RevInState(mean=0.0, variance=1.0, gamma=0.0, beta=0.0)
    with pytest.raises(PreprocessError):
        revin_denormalize(np.array([1.0]), state)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_classical_constant_series():
    x = np.full(32, 4.2)
    dec = decompose(x, period=4, trend_window=7)
    assert np.allclose(dec.trend, 4.2, atol=1e-12)
    assert np.allclose(dec.seasonal, 0.0, atol=1e-12)
    assert np.allclose(dec.residual, 0.0, atol=1e-12)


def test_classical_matches_oracle():
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    dec = decompose(x, period=2, trend_window=3)
    trend, seasonal, residual = oracle_classical(x, 2, 3)
    assert np.allclose(dec.trend, trend, atol=1e-12)
    assert np.allclose(dec.seasonal, seasonal, atol=1e-12)
    assert np.allclose(dec.residual, residual, atol=1e-12)
    # alternating series: seasonal alternates +-s
    assert np.allclose(dec.seasonal[::2], dec.seasonal[0])
    assert np.allclose(dec.seasonal[1::2], -dec.seasonal[0])


def test_classical_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(16, 100))
        period = int(rng.integers(2, max(3, n // 2 + 1)))
        period = min(period, n // 2)
        tw = int(rng.integers(1, n // 2)) * 2 + 1
        tw = min(tw, n if n % 2 == 1 else n - 1)
        x = rng.normal(size=n)
        dec = decompose(x, period=period, trend_window=tw)
        trend, seasonal, residual = oracle_classical(x, period, tw)
        assert np.allclose(dec.trend, trend, atol=1e-10)
        assert np.allclose(dec.seasonal, seasonal, atol=1e-10)
        assert np.allclose(dec.residual, residual, atol=1e-10)


@pytest.mark.parametrize("method", ["classical", "stl"])
def test_additivity(method):
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(24, 128))
        period = int(rng.integers(2, n // 2 + 1))
        tw = min(25, n if n % 2 else n - 1)
        x = rng.normal(size=n)
        dec = decompose(x, period=period, trend_window=tw, method=method)
        rebuilt = dec.trend + dec.seasonal + dec.residual
        assert np.max(np.abs(rebuilt - x)) <= 1e-9


def test_classical_seasonal_sums_to_zero_per_period():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(24, 100))
        period = int(rng.integers(2, 9))
        x = rng.normal(size=n)
        dec = decompose(x, period=period, trend_window=7)
        full = (n // period) * period
        for start in range(0, full, period):
            assert abs(dec.seasonal[start:start + period].sum()) <= 1e-6


def test_stl_constant_series():
    dec = decompose(np.full(48, -1.7), period=6, trend_window=13, method="stl")
    assert np.allclose(dec.trend, -1.7, atol=1e-9)
    assert np.allclose(dec.seasonal, 0.0, atol=1e-9)
    assert np.allclose(dec.residual, 0.0, atol=1e-9)


def test_stl_recovers_clean_seasonality():
    t = np.arange(96, dtype=np.float64)
    seasonal_truth = np.sin(2 * np.pi * t / 12)
    x = 0.05 * t + seasonal_truth
    dec = decompose(x, period=12, trend_window=25, method="stl")
    core = slice(12, -12)  # edges are less constrained
    assert np.corrcoef(dec.seasonal[core], seasonal_truth[core])[0, 1] > 0.99
    assert np.std(dec.residual[core]) < 0.2 * np.std(seasonal_truth)


@pytest.mark.parametrize("method,oracle", [("classical", oracle_classical),
                                           ("stl", oracle_stl)])
def test_batched_decompose_matches_one_window_oracle(method, oracle):
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(24, 100))
        period = int(rng.integers(2, n // 2 + 1))
        tw = min(25, n if n % 2 else n - 1)
        batch = rng.normal(size=(int(rng.integers(1, 6)), n))
        dec = decompose(batch, period=period, trend_window=tw, method=method)
        assert dec.trend.shape == batch.shape
        for i, x in enumerate(batch):
            expected = oracle(x, period, tw)
            for got, want in zip((dec.trend, dec.seasonal, dec.residual),
                                 expected):
                assert np.max(np.abs(got[i] - want)) <= 1e-12


def test_decompose_period_validation():
    x = np.zeros(20)
    with pytest.raises(PreprocessError):
        decompose(x, period=1, trend_window=5)
    with pytest.raises(PreprocessError):
        decompose(x, period=11, trend_window=5)
    with pytest.raises(PreprocessError):
        decompose(x, period=4, trend_window=6)  # even trend window


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------

def test_patch_count_paper_constants():
    assert patch_count(512, PatchSpec(16, 8)) == 64


def test_patch_exact_fit_edge():
    x = np.arange(16, dtype=np.float64)
    rows = patch(x, PatchSpec(16, 8))
    assert rows.shape == (2, 16)
    assert np.array_equal(rows[0], x)
    # second patch: last 8 real values then 8 copies of the final value
    assert np.array_equal(rows[1][:8], x[8:])
    assert np.array_equal(rows[1][8:], np.full(8, 15.0))


def test_patch_offsets_by_hand():
    x = np.arange(96, dtype=np.float64)
    rows = patch(x, PatchSpec(16, 8))
    assert rows.shape == (12, 16)
    assert np.array_equal(rows[0], x[0:16])
    assert np.array_equal(rows[1], x[8:24])


def test_patch_rows_are_slices_of_padded_source():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(4, 200))
        lp = int(rng.integers(1, n + 1))
        s = int(rng.integers(1, lp + 1))
        spec = PatchSpec(lp, s)
        x = rng.normal(size=n)
        rows = patch(x, spec)
        assert rows.shape == (patch_count(n, spec), lp)
        padded = np.concatenate([x, np.full(s, x[-1])])
        for k in range(rows.shape[0]):
            assert np.array_equal(rows[k], padded[k * s:k * s + lp])


def test_batched_patch_matches_rows():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 100))
        lp = int(rng.integers(1, n + 1))
        spec = PatchSpec(lp, int(rng.integers(1, lp + 1)))
        batch = rng.normal(size=(3, n))
        rows = patch(batch, spec)
        assert rows.shape == (3, patch_count(n, spec), lp)
        for i, x in enumerate(batch):
            assert np.array_equal(rows[i], patch(x, spec))


def test_patch_too_long_rejected():
    with pytest.raises(PreprocessError):
        patch(np.zeros(10), PatchSpec(16, 8))


def test_patch_spec_validation():
    with pytest.raises(PreprocessError):
        PatchSpec(4, 8)  # stride larger than patch
    with pytest.raises(PreprocessError):
        PatchSpec(0, 1)


# ---------------------------------------------------------------------------
# bit identity with the expressions the batched decomposition replaced
# ---------------------------------------------------------------------------

def old_moving_average_trend(x, trend_window):
    """Edge padding by np.pad and a per-call gather table."""
    half = trend_window // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)], mode="edge")
    n = padded.shape[-1] - trend_window + 1
    return padded[..., np.arange(n)[:, None] + np.arange(trend_window)].mean(
        axis=-1)


def old_classical(x, period, trend_window):
    n = x.shape[-1]
    trend = old_moving_average_trend(x, trend_window)
    cycles = -(-n // period)
    padded = np.zeros(x.shape[:-1] + (cycles * period,))
    padded[..., :n] = x - trend
    phases = np.arange(n) % period
    phase_means = (padded.reshape(x.shape[:-1] + (cycles, period)).sum(axis=-2)
                   / np.bincount(phases))
    phase_means -= phase_means.mean(axis=-1, keepdims=True)
    seasonal = phase_means[..., phases]
    return trend, seasonal, x - trend - seasonal


@pytest.mark.parametrize("shape", [(96,), (1, 96), (32, 96)])
@pytest.mark.parametrize("trend_window", [1, 25])
def test_classical_bit_identical_to_padded_expressions(shape, trend_window):
    x = np.cumsum(np.random.default_rng(len(shape) + trend_window).normal(
        size=shape), axis=-1)
    assert np.array_equal(moving_average_trend(x, trend_window),
                          old_moving_average_trend(x, trend_window))
    # twice: the second call reads the tables the first one built
    for _ in range(2):
        dec = decompose(x, period=24, trend_window=trend_window)
        for got, want in zip((dec.trend, dec.seasonal, dec.residual),
                             old_classical(x, 24, trend_window)):
            assert np.array_equal(got, want)
