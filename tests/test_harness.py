import csv

import numpy as np
import pytest

from s2ip.autodiff import read_named_array
from s2ip.cli import main
from s2ip.config import (ConfigError, RunConfig, parse_config,
                         parse_config_text, serialize_config)
from s2ip.harness import synthetic_frame

TINY = """
synthetic.length = 200
synthetic.channels = 2
synthetic.periods = 8,24
split.train = 0.6
split.val = 0.2
split.test = 0.2
window.lookback = 32
window.horizon = 8
patch.length = 8
patch.stride = 4
decomposition.period = 8
decomposition.trend_window = 9
backbone.embed_dim = 16
backbone.layers = 1
backbone.heads = 2
backbone.max_seq_len = 16
prompt.k = 2
prompt.anchors = 8
prompt.vocab_size = 50
train.epochs = 2
train.batch_size = 16
train.learning_rate = 0.003
"""


def tiny_config_file(tmp_path, overrides=None):
    lines = {}
    for line in TINY.strip().splitlines():
        key, _, value = line.partition("=")
        lines[key.strip()] = value.strip()
    lines.update(overrides or {})
    text = "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n"
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_all_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("", encoding="utf-8")
    config = parse_config(path)
    assert config["window.lookback"] == 96
    assert config["prompt.k"] == 4


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="window.lookbak"):
        parse_config_text("window.lookbak = 96")


def test_negative_prompt_k_rejected():
    with pytest.raises(ConfigError, match="prompt.k"):
        parse_config_text("prompt.k = -1")


def test_bad_type_rejected():
    with pytest.raises(ConfigError, match="window.lookback"):
        parse_config_text("window.lookback = ninety")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("prompt.k = 2\nprompt.k = 3")


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ConfigError, match="split"):
        parse_config_text("split.train = 0.5\nsplit.val = 0.1\nsplit.test = 0.1")


def test_config_round_trip():
    config = parse_config_text(TINY)
    text = serialize_config(config)
    again = parse_config_text(text)
    assert again.values == config.values
    assert serialize_config(again) == text


def test_comments_and_blank_lines_ignored():
    config = parse_config_text("# comment\n\nprompt.k = 3  # trailing\n")
    assert config["prompt.k"] == 3


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def test_synthetic_deterministic():
    a = synthetic_frame(100, 2, [24, 96], 0.01, 0.1, seed=7)
    b = synthetic_frame(100, 2, [24, 96], 0.01, 0.1, seed=7)
    assert np.array_equal(a.values, b.values)
    c = synthetic_frame(100, 2, [24, 96], 0.01, 0.1, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_gen_data_command_reproducible(tmp_path):
    cfg = tiny_config_file(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", cfg, "--seed", "7",
                 "--out", str(out1)]) == 0
    assert main(["gen-data", "--config", cfg, "--seed", "7",
                 "--out", str(out2)]) == 0
    assert (out1 / "synthetic.csv").read_bytes() == \
        (out2 / "synthetic.csv").read_bytes()


# ---------------------------------------------------------------------------
# full command pipeline
# ---------------------------------------------------------------------------

def test_train_then_evaluate_then_forecast(tmp_path):
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    assert (out / "model.ckpt").exists()
    with open(out / "train_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # both epochs ran
    assert float(rows[0]["train_loss"]) > 0

    assert main(["evaluate", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        metrics = list(csv.DictReader(fh))
    assert len(metrics) == 1
    assert float(metrics[0]["mse"]) > 0
    assert (out / "per_window_metrics.csv").exists()

    assert main(["forecast", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    with open(out / "forecast.csv", newline="") as fh:
        forecast_rows = list(csv.DictReader(fh))
    assert len(forecast_rows) == 8 * 2  # horizon x channels
    channels = {row["channel"] for row in forecast_rows}
    assert channels == {"ch1", "ch2"}


def test_metric_csvs_reproducible(tmp_path):
    cfg = tiny_config_file(tmp_path)
    outputs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--config", cfg, "--seed", "5",
                     "--out", str(out)]) == 0
        assert main(["evaluate", "--config", cfg, "--seed", "5",
                     "--out", str(out)]) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_evaluate_without_checkpoint_fails(tmp_path):
    cfg = tiny_config_file(tmp_path)
    code = main(["evaluate", "--config", cfg, "--out",
                 str(tmp_path / "nowhere")])
    assert code != 0


def test_invalid_config_exit_code(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("prompt.k = -1\n", encoding="utf-8")
    assert main(["train", "--config", path.as_posix(),
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("line", ["decomposition.period = 60",
                                  "prompt.anchors = 400",
                                  "backbone.heads = 5"])
def test_cross_key_config_error_exit_code(tmp_path, line, capsys):
    # each value is valid alone but cannot build the model; the run stops
    # before it writes or reads anything
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "x"
    assert main(["train", "--config", path.as_posix(), "--out", str(out)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_emits_feature_rows(tmp_path):
    cfg = tiny_config_file(tmp_path, {"train.epochs": "1"})
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", cfg, "--seed", "2",
                 "--out", str(out)]) == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["setting"] for r in rows] == ["baseline", "prompt_only",
                                            "prompt_and_decomposition"]
    for row in rows:
        assert float(row["mse"]) > 0


def test_ablate_full_cell_matches_plain_run(tmp_path):
    cfg = tiny_config_file(tmp_path, {"train.epochs": "1"})
    out_a = tmp_path / "plain"
    assert main(["train", "--config", cfg, "--seed", "4",
                 "--out", str(out_a)]) == 0
    assert main(["evaluate", "--config", cfg, "--seed", "4",
                 "--out", str(out_a)]) == 0
    with open(out_a / "metrics.csv", newline="") as fh:
        plain = list(csv.DictReader(fh))[0]

    out_b = tmp_path / "cells"
    assert main(["ablate", "--config", cfg, "--seed", "4",
                 "--out", str(out_b)]) == 0
    with open(out_b / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    full = next(r for r in rows if r["setting"] == "prompt_and_decomposition")
    assert float(full["mse"]) == pytest.approx(float(plain["mse"]), abs=1e-12)
    assert float(full["mae"]) == pytest.approx(float(plain["mae"]), abs=1e-12)


def test_ablate_sweep_rows(tmp_path):
    cfg = tiny_config_file(tmp_path, {"train.epochs": "1",
                                       "ablate.lambdas": "0.0,0.05"})
    out = tmp_path / "sweep"
    assert main(["ablate", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5  # 3 feature cells + 2 lambda values


def test_export_embeddings(tmp_path):
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "exp"
    assert main(["train", "--config", cfg, "--seed", "6",
                 "--out", str(out)]) == 0
    assert main(["export-embeddings", "--config", cfg, "--seed", "6",
                 "--out", str(out)]) == 0
    with open(out / "anchors.tensor", "rb") as fh:
        name, anchors = read_named_array(fh)
    assert name == "anchors"
    assert anchors.shape == (8, 16)
    with open(out / "ts_embeddings.tensor", "rb") as fh:
        _, ts = read_named_array(fh)
    with open(out / "prompted_embeddings.tensor", "rb") as fh:
        _, prompted = read_named_array(fh)
    assert ts.shape == prompted.shape
    assert ts.shape[1] == 16
    assert not np.allclose(ts, prompted)  # prompts shift the pooled rows


def test_csv_data_path_pipeline(tmp_path):
    frame = synthetic_frame(200, 1, [8], 0.01, 0.05, seed=3)
    from s2ip.harness import write_frame_csv
    data_path = tmp_path / "data.csv"
    write_frame_csv(frame, data_path)
    cfg = tiny_config_file(tmp_path, {"data.path": str(data_path),
                                       "synthetic.channels": "1"})
    out = tmp_path / "csvrun"
    assert main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == 0
    assert (out / "model.ckpt").exists()


def test_short_split_warns_and_yields_no_windows(tmp_path):
    import warnings as warnings_module

    from s2ip.config import RunConfig
    from s2ip.harness import build_pipeline

    config = RunConfig({"synthetic.length": 60, "window.lookback": 32,
                        "window.horizon": 8, "split.train": 0.6,
                        "split.val": 0.2, "split.test": 0.2,
                        "decomposition.period": 8,
                        "decomposition.trend_window": 9})
    with warnings_module.catch_warnings(record=True) as caught:
        warnings_module.simplefilter("always")
        pipeline = build_pipeline(config, 0)
    assert pipeline.val_windows == []
    assert any("val split" in str(w.message) for w in caught)


def test_few_shot_config_wiring(tmp_path):
    from s2ip.config import RunConfig
    from s2ip.harness import build_pipeline

    config = RunConfig({"synthetic.length": 400, "split.few_shot": 0.5,
                        "window.lookback": 32, "window.horizon": 8,
                        "decomposition.period": 8,
                        "decomposition.trend_window": 9})
    pipeline = build_pipeline(config, 0)
    assert pipeline.train_frame.length == 140  # floor(0.5 * 280)


def test_embedding_file_interface(tmp_path):
    from s2ip.autodiff import write_named_array
    from s2ip.config import RunConfig
    from s2ip.harness import load_embedding

    rng = np.random.default_rng(0)
    emb = rng.normal(size=(40, 16))
    path = tmp_path / "vocab.tensor"
    with open(path, "wb") as fh:
        write_named_array(fh, "E", emb)
    config = RunConfig({"prompt.embedding_path": str(path),
                        "backbone.embed_dim": 16})
    loaded = load_embedding(config, seed=0)
    assert np.array_equal(loaded.values, emb)

    with open(path, "wb") as fh:
        write_named_array(fh, "wrong_name", emb)
    from s2ip.harness import HarnessError
    with pytest.raises(HarnessError, match="'E'"):
        load_embedding(config, seed=0)


def test_ablate_k_and_anchor_sweeps(tmp_path):
    cfg = tiny_config_file(tmp_path, {"train.epochs": "1",
                                      "ablate.ks": "0,2",
                                      "ablate.anchor_counts": "4"})
    out = tmp_path / "sweep2"
    assert main(["ablate", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 3 feature cells + 2 k values + 1 anchor count
    assert {r["setting"] for r in rows} >= {"k=0", "k=2", "anchors=4"}


def test_forecast_with_iso_timestamps(tmp_path):
    rng = np.random.default_rng(4)
    lines = ["t,a"]
    from datetime import datetime, timedelta
    start = datetime(2021, 1, 1)
    t = np.arange(200)
    values = np.sin(2 * np.pi * t / 8) + 0.01 * t + rng.normal(0, 0.05, 200)
    for i in range(200):
        stamp = (start + timedelta(hours=int(i))).isoformat()
        lines.append(f"{stamp},{float(values[i])!r}")
    data_path = tmp_path / "iso.csv"
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tiny_config_file(tmp_path, {"data.path": str(data_path),
                                      "synthetic.channels": "1"})
    out = tmp_path / "isorun"
    assert main(["train", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == 0
    assert main(["forecast", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == 0
    with open(out / "forecast.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    first = datetime.fromisoformat(rows[0]["timestamp"])
    assert first == start + timedelta(hours=200)
