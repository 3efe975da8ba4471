import numpy as np
import pytest

from s2ip import metrics
from s2ip.backbone import BackboneConfig
from s2ip.metrics import (MetricError, evaluate_forecasts, evaluate_model,
                          mape, mase, mse_mae, naive2_forecast, owa,
                          seasonality_test, smape)
from s2ip.model import (FORECAST_CHUNK, DecompositionConfig, ForecastModel,
                        ForecastResult, ModelConfig)
from s2ip.preprocess import PatchSpec
from s2ip.prompt import clustered_vocabulary
from s2ip.series import WindowSpec


def oracle_naive2_seasonal(insample, s, horizon):
    """Reference computation of the seasonally adjusted naive forecast,
    written out step by step for strictly positive series."""
    n = len(insample)
    if s % 2 == 0:
        first = [np.mean(insample[i:i + s]) for i in range(n - s + 1)]
        cma = [(first[i] + first[i + 1]) / 2 for i in range(len(first) - 1)]
    else:
        cma = [np.mean(insample[i:i + s]) for i in range(n - s + 1)]
    offset = s // 2
    ratios = [insample[offset + i] / cma[i] for i in range(len(cma))]
    per_phase = []
    for p in range(s):
        vals = [r for i, r in enumerate(ratios) if (i + offset) % s == p]
        per_phase.append(np.mean(vals))
    per_phase = np.array(per_phase)
    per_phase /= per_phase.mean()
    deseason = [insample[i] / per_phase[i % s] for i in range(n)]
    level = deseason[-1]
    return np.array([level * per_phase[(n + h) % s] for h in range(horizon)])


# ---------------------------------------------------------------------------
# point metrics
# ---------------------------------------------------------------------------

def test_mse_mae_perfect():
    assert mse_mae([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)


def test_mse_mae_unit_errors():
    assert mse_mae([0.0, 0.0], [1.0, 1.0]) == (1.0, 1.0)


def test_mse_mae_hand_sum():
    m, a = mse_mae([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert m == pytest.approx(2.0 / 3.0)
    assert a == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 8), (9, 17), (562, 24),
                                   (3, 129)])
def test_row_mse_mae_is_each_rows_mse_mae_bit_for_bit(shape):
    rng = np.random.default_rng(31)
    y = rng.normal(0.0, 50.0, size=shape)
    yhat = y + rng.normal(size=shape)
    mses, maes = metrics.row_mse_mae(y, yhat)
    assert mses.shape == maes.shape == shape[:1]
    for m, a, row, forecast in zip(mses, maes, y, yhat):
        assert (m, a) == mse_mae(row, forecast)


def test_row_mse_mae_needs_equal_2d_arrays():
    for y, yhat in ((np.zeros((2, 3)), np.zeros((2, 4))),
                    (np.zeros(3), np.zeros(3)), (np.zeros((2, 0)),) * 2):
        with pytest.raises(MetricError):
            metrics.row_mse_mae(y, yhat)
    with pytest.raises(MetricError, match="one horizon"):
        evaluate_forecasts([(np.zeros(3), np.ones(3)),
                            (np.zeros(4), np.ones(4))])


def test_mse_mae_length_mismatch():
    with pytest.raises(MetricError):
        mse_mae([1.0], [1.0, 2.0])


def test_mse_translation_covariant():
    rng = np.random.default_rng(0)
    y, yhat = rng.normal(size=10), rng.normal(size=10)
    m0, a0 = mse_mae(y, yhat)
    m1, a1 = mse_mae(y + 5.0, yhat + 5.0)
    assert m0 == pytest.approx(m1)
    assert a0 == pytest.approx(a1)


def test_smape_perfect():
    assert smape([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_smape_golden():
    assert smape([1.0, 1.0], [2.0, 2.0]) == pytest.approx(66.6667, abs=1e-4)


def test_smape_zero_denominator_term():
    assert smape([0.0], [0.0]) == 0.0


def test_smape_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(20):
        y, yhat = rng.normal(size=6), rng.normal(size=6)
        assert smape(y, yhat) == pytest.approx(smape(yhat, y), abs=1e-12)


def test_smape_bounded():
    rng = np.random.default_rng(2)
    for _ in range(50):
        y, yhat = rng.normal(size=8), rng.normal(size=8)
        assert 0.0 <= smape(y, yhat) <= 200.0


def test_mape_golden():
    assert mape([1.0, 1.0], [2.0, 2.0]) == pytest.approx(100.0)


def test_mase_perfect():
    assert mase([5.0], [5.0], [1.0, 2.0, 3.0, 4.0], 1) == 0.0


def test_mase_hand_computed():
    # seasonal-naive in-sample MAE over [1,2,3,4] at s=1 is 1
    assert mase([5.0], [6.0], [1.0, 2.0, 3.0, 4.0], 1) == pytest.approx(1.0)


def test_mase_constant_history_undefined():
    assert mase([5.0], [6.0], [2.0, 2.0, 2.0], 1) is None


def test_mase_history_too_short():
    with pytest.raises(MetricError):
        mase([1.0], [1.0], [1.0], 1)


# ---------------------------------------------------------------------------
# naive reference forecaster
# ---------------------------------------------------------------------------

def test_naive2_non_seasonal_repeats_last():
    out = naive2_forecast([1.0, 2.0, 3.0], 1, 5)
    assert np.array_equal(out, np.full(5, 3.0))


def test_naive2_zero_horizon():
    assert naive2_forecast([1.0, 2.0], 1, 0).size == 0


def test_naive2_strictly_periodic_matches_oracle():
    insample = np.array([10.0, 20.0] * 8)  # length 16
    assert seasonality_test(insample, 4)
    out = naive2_forecast(insample, 4, 4)
    expected = oracle_naive2_seasonal(insample, 4, 4)
    assert np.allclose(out, expected, atol=1e-9)
    # the pattern repeats at the last level
    assert np.allclose(out, [10.0, 20.0, 10.0, 20.0], atol=1e-9)


def test_naive2_short_periodic_series_fails_seasonality_test():
    # on 8 points the lag-4 autocorrelation (0.5) sits below the threshold
    insample = np.array([10.0, 20.0] * 4)
    assert not seasonality_test(insample, 4)
    out = naive2_forecast(insample, 4, 3)
    assert np.array_equal(out, np.full(3, 20.0))


def test_naive2_nonpositive_values_fall_back_to_naive():
    insample = np.array([1.0, -2.0] * 10)
    out = naive2_forecast(insample, 2, 2)
    assert np.array_equal(out, np.full(2, -2.0))


def test_naive2_odd_period_matches_oracle():
    rng = np.random.default_rng(3)
    base = np.array([5.0, 9.0, 7.0])
    insample = np.tile(base, 8) * rng.uniform(0.95, 1.05, size=24)
    if seasonality_test(insample, 3):
        out = naive2_forecast(insample, 3, 6)
        expected = oracle_naive2_seasonal(insample, 3, 6)
        assert np.allclose(out, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# composite metric
# ---------------------------------------------------------------------------

def test_owa_self_reference_is_one():
    assert owa(12.0, 1.5, 12.0, 1.5) == 1.0


def test_owa_twice_as_bad():
    assert owa(24.0, 3.0, 12.0, 1.5) == 2.0


def test_owa_mixed_ratios():
    assert owa(6.0, 2.25, 12.0, 1.5) == pytest.approx(1.0)


def test_owa_zero_reference_absent():
    assert owa(1.0, 1.0, 0.0, 1.0) is None


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

class OracleModel:
    """Stub that forecasts whatever the mapping says (default: the target)."""

    def __init__(self, lookup):
        self.lookup = lookup

    def forward_forecast(self, x, channel):
        return ForecastResult(np.stack([self.lookup(row, c)
                                        for row, c in zip(x, channel)]))


def test_evaluate_oracle_model_is_zero():
    windows = [(0, np.arange(8.0), np.arange(8.0, 12.0)),
               (1, np.arange(3.0, 11.0), np.arange(11.0, 15.0))]
    targets = {0: windows[0][2], 1: windows[1][2]}
    model = OracleModel(lambda x, c: targets[c])
    report = evaluate_model(model, windows, mode="long")
    assert report.mse == 0.0
    assert report.mae == 0.0


def test_evaluate_mean_over_windows():
    pairs = [(np.zeros(2), np.ones(2) * np.sqrt(1.0)),
             (np.zeros(2), np.ones(2) * np.sqrt(3.0))]
    report = evaluate_forecasts(pairs)
    assert report.mse == pytest.approx(2.0)


def test_evaluate_short_mode_full_suite():
    rng = np.random.default_rng(4)
    pairs, insamples = [], []
    for _ in range(6):
        hist = 10.0 + np.abs(rng.normal(size=16)) + np.sin(np.arange(16.0))
        y = hist[-4:] + rng.normal(0, 0.1, size=4)
        yhat = y + rng.normal(0, 0.2, size=4)
        pairs.append((y, yhat))
        insamples.append(hist)
    report = evaluate_forecasts(pairs, mode="short", seasonality=4,
                                insamples=insamples)
    assert report.smape is not None and report.smape > 0
    assert report.mase is not None and report.mase > 0
    assert report.owa is not None


def test_evaluate_owa_of_reference_is_one():
    # when the evaluated forecasts ARE the naive reference, owa == 1 exactly
    rng = np.random.default_rng(5)
    pairs, insamples = [], []
    for _ in range(5):
        hist = 10.0 + np.abs(rng.normal(size=20))
        y = hist[-3:] * rng.uniform(0.8, 1.2, size=3)
        ref = naive2_forecast(hist, 4, 3)
        pairs.append((y, ref))
        insamples.append(hist)
    report = evaluate_forecasts(pairs, mode="short", seasonality=4,
                                insamples=insamples)
    assert report.owa == pytest.approx(1.0, abs=1e-12)


def test_evaluate_dump_matches_recomputation(tmp_path):
    import csv

    windows = [(0, np.arange(8.0), np.arange(8.0, 12.0)),
               (0, np.arange(2.0, 10.0), np.arange(10.0, 14.0))]
    model = OracleModel(lambda x, c: x[-4:])  # repeat tail, imperfect
    dump = tmp_path / "per_window.csv"
    report = evaluate_model(model, windows, mode="long", dump_path=dump)
    with open(dump, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    recomputed = np.mean([float(r["mse"]) for r in rows])
    assert recomputed == pytest.approx(report.mse, abs=1e-12)


@pytest.mark.parametrize("mode", ["long", "short"])
def test_dump_bytes_equal_one_mse_mae_per_window(tmp_path, mode):
    import csv

    model = tiny_real_model()
    rng = np.random.default_rng(8)
    windows = [(i % 2, 10.0 + rng.normal(size=32), 10.0 + rng.normal(size=8))
               for i in range(FORECAST_CHUNK + 5)]
    dump = tmp_path / "per_window.csv"
    evaluate_model(model, windows, mode=mode, seasonality=8, dump_path=dump)
    channels, inputs, targets = zip(*windows)
    forecasts = model.forward_forecast(np.stack(inputs), channels).forecast
    fields = ["window_id", "channel", "mse", "mae"]
    fields += ["smape", "mase"] if mode == "short" else []
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for i, (c, x, y, f) in enumerate(zip(channels, inputs, targets,
                                              forecasts)):
            row = [i, c, *mse_mae(y, f)]
            if mode == "short":
                m = mase(y, f, x, 8)
                row += [smape(y, f), "" if m is None else m]
            writer.writerow(row)
    assert dump.read_bytes() == expected.read_bytes()


def test_evaluate_empty_rejected():
    with pytest.raises(MetricError):
        evaluate_model(OracleModel(lambda x, c: x), [], mode="long")


@pytest.mark.parametrize("value, bad_channels, message", [
    (np.nan, {2}, r"window 1 \(channel 2\): forecast, mse, mae not finite"),
    (1e200, {2}, r"window 1 \(channel 2\): mse not finite"),
    (6e153, {0, 1, 2}, r"mean mse over 6 windows not finite"),
], ids=["nan-forecast", "overflowing-window", "overflowing-mean"])
def test_evaluate_refuses_non_finite_before_writing(tmp_path, value,
                                                    bad_channels, message):
    # 1e200 squares to inf; each window's MSE of 6e153 is a finite 3.6e307,
    # but six of them sum past the largest float64
    windows = [(channel, np.arange(8.0), np.zeros(4))
               for channel in (0, 2, 1, 0, 1, 2)]
    model = OracleModel(lambda x, c: np.full(4, value if c in bad_channels
                                             else 0.0))
    dump = tmp_path / "per_window.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(MetricError, match=message):
            evaluate_model(model, windows, mode="long", dump_path=dump)
    assert not dump.exists()


def tiny_real_model():
    config = ModelConfig(window=WindowSpec(32, 8), patch=PatchSpec(8, 4),
                         decomposition=DecompositionConfig(period=8,
                                                           trend_window=9),
                         backbone=BackboneConfig(embed_dim=16, n_layers=1,
                                                 n_heads=2, max_seq_len=16),
                         prompt_k=2, n_anchors=8, n_channels=2)
    return ForecastModel(config, clustered_vocabulary(50, 16, seed=0), seed=0)


@pytest.mark.parametrize("mode", ["long", "short"])
def test_evaluate_real_model_matches_per_window_forecasts(tmp_path, mode):
    import csv

    model = tiny_real_model()
    rng = np.random.default_rng(6)
    t = np.arange(40.0)
    windows = []
    for i in range(2 * FORECAST_CHUNK + 3):  # two full chunks, a short one
        series = 10.0 + np.sin(2 * np.pi * t / 8 + i) + rng.normal(0, 0.2, 40)
        windows.append((i % 2, series[:32], series[32:]))
    dump = tmp_path / "per_window.csv"
    report = evaluate_model(model, windows, mode=mode, seasonality=8,
                            dump_path=dump)

    forecasts = [model.forward_forecast(x, c).forecast for c, x, _ in windows]
    pairs = [(y, f) for (_, _, y), f in zip(windows, forecasts)]
    expected = evaluate_forecasts(pairs, mode=mode, seasonality=8,
                                  insamples=[x for _, x, _ in windows])
    for key, value in expected.as_row().items():
        got = report.as_row()[key]
        if value is None:
            assert got is None, key
        else:
            assert abs(got - value) <= 1e-12, key

    with open(dump, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(windows)
    for i, (row, (channel, x, y), f) in enumerate(zip(rows, windows, forecasts)):
        assert int(row["window_id"]) == i and int(row["channel"]) == channel
        m, a = mse_mae(y, f)
        assert abs(float(row["mse"]) - m) <= 1e-12
        assert abs(float(row["mae"]) - a) <= 1e-12
        if mode == "short":
            assert abs(float(row["smape"]) - smape(y, f)) <= 1e-12
            assert abs(float(row["mase"]) - mase(y, f, x, 8)) <= 1e-12


@pytest.mark.parametrize("mode", ["long", "short"])
def test_evaluate_model_scores_each_window_once(mode, monkeypatch):
    rng = np.random.default_rng(9)
    windows = [(i % 2, 10.0 + rng.normal(size=12), 10.0 + rng.normal(size=4))
               for i in range(7)]
    model = OracleModel(lambda x, c: x[-4:] + 0.1 * c)
    pairs = [(y, x[-4:] + 0.1 * c) for c, x, y in windows]
    expected = evaluate_forecasts(
        pairs, mode=mode, seasonality=2,
        insamples=[x for _, x, _ in windows] if mode == "short" else None)
    calls, score = [], metrics.row_mse_mae
    monkeypatch.setattr(metrics, "row_mse_mae",
                        lambda *args: calls.append(args) or score(*args))
    report = evaluate_model(model, windows, mode=mode, seasonality=2)
    # one stacked call scores every window
    assert len(calls) == 1
    assert [np.shape(a) for a in calls[0]] == [(len(windows), 4)] * 2
    assert report.as_row() == expected.as_row()


def test_short_dump_writes_an_undefined_mase_empty_and_scores_once(
        tmp_path, monkeypatch):
    import csv

    # window 1's history is constant, so its MASE is undefined
    windows = [(0, 10.0 + np.sin(np.arange(12.0)), 10.0 + np.arange(4.0)),
               (1, np.full(12, 5.0), np.arange(4.0)),
               (0, 3.0 + np.cos(np.arange(12.0)), np.full(4, 3.0))]
    model = OracleModel(lambda x, c: x[-4:] + 0.1)
    calls = {"smape": 0, "mase": 0}
    for name in calls:
        score = getattr(metrics, name)

        def counted(*args, name=name, score=score):
            calls[name] += 1
            return score(*args)

        monkeypatch.setattr(metrics, name, counted)
    dump = tmp_path / "per_window.csv"
    report = evaluate_model(model, windows, mode="short", seasonality=2,
                            dump_path=dump)
    # each window once for the model and once for the naive reference
    assert calls == {"smape": 2 * len(windows), "mase": 2 * len(windows)}
    with open(dump, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["window_id", "channel", "mse", "mae", "smape",
                             "mase"]
    assert [row["mase"] == "" for row in rows] == [False, True, False]
    defined = [float(row["mase"]) for row in rows if row["mase"]]
    assert report.mase == pytest.approx(np.mean(defined), abs=1e-12)
