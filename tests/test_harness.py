import csv
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import s2ip
from s2ip import harness
from s2ip.backbone import TrainabilityPolicy
from s2ip.cli import main
from s2ip.config import (FIELDS, SCHEMA, ConfigError, RunConfig, parse_config,
                         parse_config_text)
from s2ip.harness import build_pipeline, synthetic_frame
from s2ip.model import ModelConfig, ModelError, flatten_dataclass
from s2ip.prompt import retrieve_topk
from s2ip.series import SeriesError, SplitSpec
from s2ip.training import (CHECKPOINT_MAGIC, TrainConfig, TrainingError,
                           load_checkpoint, read_record, save_checkpoint,
                           write_record)

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


def test_schema_defaults_match_dataclass_defaults():
    config = RunConfig()
    assert config.model_config(1) == ModelConfig()
    assert config.train_config() == TrainConfig()
    assert config.policy() == TrainabilityPolicy()
    assert config.split_spec() == SplitSpec()


def test_readme_config_table_lists_exactly_the_schema_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            keys.update(line.split("|")[1].replace("`", "").replace(" ", "")
                        .split("/"))
    assert keys == set(SCHEMA)


def test_every_dataclass_field_has_exactly_one_config_key():
    named = list(FIELDS.values())
    assert len(named) == len(set(named))
    fields = {(cls, path)
              for cls in (ModelConfig, TrainConfig, TrainabilityPolicy, SplitSpec)
              for path in flatten_dataclass(cls())}
    # the channel count comes from the data, not from the configuration
    assert set(named) == fields - {(ModelConfig, "n_channels")}


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, error", [
    (lambda: RunConfig({"no.such.key": 1}), ConfigError),
    (lambda: RunConfig({"window.lookback": "96"}), ConfigError),
    (lambda: RunConfig().override({"window.lookback": "96"}), ConfigError),
    (lambda: RunConfig({"prompt.k": True}), ConfigError),
    (lambda: RunConfig().override({"train.epochs": 2.5}), ConfigError),
    (lambda: RunConfig({"data.standardize": 1}), ConfigError),
    (lambda: RunConfig({"synthetic.periods": 24}), ConfigError),
    (lambda: RunConfig().override({"ablate.ks": [1.5]}), ConfigError),
    (lambda: RunConfig({"train.learning_rate": NAN}), ConfigError),
    (lambda: RunConfig().override({"model.alignment_weight": INF}), ConfigError),
    (lambda: RunConfig({"synthetic.trend_slope": NAN}), ConfigError),
    (lambda: RunConfig().override({"split.few_shot": NAN}), ConfigError),
    (lambda: RunConfig({"ablate.lambdas": [0.1, INF]}), ConfigError),
    (lambda: TrainConfig(learning_rate=NAN), TrainingError),
    (lambda: TrainConfig(clip_norm=NAN), TrainingError),
    (lambda: ModelConfig(alignment_weight=NAN), ModelError),
    (lambda: SplitSpec(NAN, 0.5, 0.5), SeriesError),
], ids=["unknown_key", "str_for_int", "str_for_int_override", "bool_for_int",
        "float_for_int_override", "int_for_bool", "int_for_ints",
        "float_in_ints_override", "nan_learning_rate",
        "inf_alignment_weight_override", "nan_synthetic", "nan_few_shot_override",
        "inf_in_lambdas", "train_config_nan_learning_rate",
        "train_config_nan_clip_norm", "model_config_nan_alignment_weight",
        "split_spec_nan"])
def test_wrong_type_or_non_finite_value_refused(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("values, message", [
    ({"prompt.k": True}, "prompt.k: expected int, got True"),
    ({"patch.length": 2.5}, "patch.length: expected int, got 2.5"),
])
def test_type_errors_name_the_config_key(values, message):
    with pytest.raises(ConfigError) as info:
        RunConfig(values)
    assert str(info.value) == message
    with pytest.raises(ConfigError) as info:
        RunConfig().override(values)
    assert str(info.value) == message


@pytest.mark.parametrize("key, value, message", [
    ("train.patience", -1, "train.patience must be >= 0"),
    ("backbone.layers", 0, "backbone.embed_dim, backbone.layers, and "
                           "backbone.heads must be positive"),
    ("prompt.k", -1, "prompt.k must be >= 0 (0 disables prompting)"),
    ("window.stride", 0, "window.stride must be a positive integer"),
    ("patch.stride", 20, "patch.length must be >= patch.stride (overlap "
                         "convention)"),
], ids=["patience", "layers", "prompt_k", "window_stride", "patch_stride"])
def test_range_errors_name_the_config_key(key, value, message, tmp_path,
                                          capsys):
    # the dataclasses hold the range checks and name their own fields
    # (early_stop_patience, n_layers, prompt_k); the error names the key
    with pytest.raises(ConfigError) as info:
        RunConfig({key: value})
    assert str(info.value) == message
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "x"
    assert main(["train", "--config", path.as_posix(), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
    assert not out.exists()


def test_negative_prompt_k_rejected():
    with pytest.raises(ConfigError, match="prompt.k"):
        parse_config_text("prompt.k = -1")


def test_bad_type_rejected():
    with pytest.raises(ConfigError, match="window.lookback"):
        parse_config_text("window.lookback = ninety")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("prompt.k = 2\nprompt.k = 3")


CONFIG_FUZZ_CASES = 500
# a valid config that sets keys of every kind: ints, floats, bools, strings
# and lists, with a comment and a blank line
FUZZ_BASE_CONFIG = """# tiny run
window.lookback = 32
window.horizon = 8
patch.length = 8
patch.stride = 4
decomposition.period = 8
decomposition.trend_window = 9

backbone.embed_dim = 16
backbone.train_ffn = true
prompt.pooling = per_patch
eval.mode = short
eval.seasonality = 8
train.learning_rate = 0.005
synthetic.periods = 24, 96
ablate.lambdas = 0.0, 0.5
"""
CONFIG_JUNK = "=#,.-+e0123456789 \n\tabcxyz_[]\"'\x00\u00e9"


def test_config_fuzz_parses_or_raises_config_error():
    parse_config_text(FUZZ_BASE_CONFIG)
    rng = np.random.default_rng(18)
    outcomes = {"parsed": 0, "refused": 0}
    for _ in range(CONFIG_FUZZ_CASES):
        text = FUZZ_BASE_CONFIG
        at = int(rng.integers(len(text)))
        kind = rng.integers(4)
        if kind == 0:     # junk inserted
            junk = "".join(rng.choice(list(CONFIG_JUNK),
                                      size=int(rng.integers(1, 6))))
            text = text[:at] + junk + text[at:]
        elif kind == 1:   # a span deleted
            text = text[:at] + text[at + int(rng.integers(1, 16)):]
        elif kind == 2:   # a character overwritten
            text = text[:at] + rng.choice(list(CONFIG_JUNK)) + text[at + 1:]
        else:             # the tail cut off
            text = text[:at]
        try:
            parse_config_text(text)
            outcomes["parsed"] += 1
        except ConfigError:
            outcomes["refused"] += 1
    assert outcomes["parsed"] and outcomes["refused"]


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ConfigError, match="split"):
        parse_config_text("split.train = 0.5\nsplit.val = 0.1\nsplit.test = 0.1")


def test_short_eval_seasonality_must_be_below_lookback():
    # short-mode MASE needs a history longer than one season
    lookback = RunConfig()["window.lookback"]
    RunConfig({"eval.mode": "short", "eval.seasonality": lookback - 1})
    RunConfig({"eval.mode": "long", "eval.seasonality": lookback})
    with pytest.raises(ConfigError, match="eval.seasonality"):
        RunConfig({"eval.mode": "short", "eval.seasonality": lookback})


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


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_negative_seed_exits_2_before_any_output(tmp_path, capsys, command):
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--seed", "-1",
                 "--out", str(out)]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("periods", ["0", "24, 0", "-5"])
def test_nonpositive_synthetic_period_exits_2_before_any_output(
        tmp_path, capsys, periods):
    # a zero period divided by zero in synthetic_frame: gen-data printed
    # numpy warnings and exited 1 on the NaN values
    cfg = tiny_config_file(tmp_path, {"synthetic.periods": periods})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid configuration: "
                                   "synthetic.periods: must lie in [1, inf]")
    assert captured.out == ""
    assert not out.exists()


def save_unchecked(model, path):
    """The file ``save_checkpoint`` writes, for values that it refuses."""
    header = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    arrays = model.all_arrays()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little") + header)
        for name in sorted(arrays):
            write_record(fh, name, arrays[name])


def test_evaluate_refuses_a_checkpoint_with_zero_gamma(tmp_path, capsys):
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    model = load_checkpoint(out / "model.ckpt")
    model.params["revin.gamma"].data[:] = 0.0
    save_unchecked(model, out / "model.ckpt")
    (out / "metrics.csv").unlink(missing_ok=True)
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 1
    assert "corrupt checkpoint" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_non_finite_forecasts_exit_1_before_any_output(tmp_path, capsys):
    # a finite checkpoint whose head overflows: evaluate, under either
    # metric suite, and forecast each print one line, no NumPy warning
    # before it, and write nothing
    cfg = tiny_config_file(tmp_path)
    (tmp_path / "short").mkdir()
    short = tiny_config_file(tmp_path / "short", {"eval.mode": "short",
                                                  "eval.seasonality": "8"})
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    model = load_checkpoint(out / "model.ckpt")
    for name in ("output_projection.weight", "output_projection.bias"):
        model.params[name].data[...] = 1e308
    save_checkpoint(model, out / "model.ckpt")
    capsys.readouterr()
    for command, config, outputs, message in (
            ("evaluate", cfg, ("metrics.csv", "per_window_metrics.csv"),
             "error: window 0 (channel 0): forecast, mse, mae not finite"),
            ("evaluate", short, ("metrics.csv", "per_window_metrics.csv"),
             "error: window 0 (channel 0): forecast, mse, mae, smape"),
            ("forecast", cfg, ("forecast.csv",),
             "error: forecast for channel 'ch1' is not finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy warning raises
            assert main([command, "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(message), command
        assert not any((out / name).exists() for name in outputs), command
    # a finite forecast near 3e300 that overflows only when scaled back by
    # channel a's std of about 7e11
    for name, value in (("output_projection.weight", 0.0),
                        ("output_projection.bias", 1e300)):
        model.params[name].data[...] = value
    save_checkpoint(model, out / "model.ckpt")
    data = tmp_path / "large.csv"
    data.write_text("t,a,b\n" + "".join(
        f"{i},{1e12 * (2 + math.sin(i / 4))!r},{math.sin(i / 4)!r}\n"
        for i in range(200)), encoding="utf-8")
    (tmp_path / "large").mkdir()
    large = tiny_config_file(tmp_path / "large", {"data.path": str(data)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["forecast", "--config", large, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: forecast for channel 'a' is not finite\n")
    assert not (out / "forecast.csv").exists()


def test_a_channel_too_large_to_standardize_exits_1_with_one_line(tmp_path,
                                                                  capsys):
    # np.std squares the deviations, so a channel near 1e200 had a std of
    # inf and was standardized to zeros; train and evaluate exited 0
    data = tmp_path / "huge.csv"
    data.write_text("t,a,b\n" + "".join(
        f"{i},{1e200 * (2 + math.sin(i / 4))!r},{math.sin(i / 4)!r}\n"
        for i in range(400)), encoding="utf-8")
    trained = tmp_path / "trained"
    assert main(["train", "--config", tiny_config_file(tmp_path), "--seed",
                 "3", "--out", str(trained)]) == 0
    (tmp_path / "huge").mkdir()
    cfg = tiny_config_file(tmp_path / "huge", {"data.path": str(data)})
    capsys.readouterr()
    for command in ("train", "evaluate", "forecast"):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy warning raises
            assert main([command, "--config", cfg, "--out", str(out),
                         "--checkpoint", str(trained / "model.ckpt")]) == 1
        assert capsys.readouterr().err == (
            "error: channel 'a' is too large to standardize: its mean or "
            "std is not finite\n"), command
        assert not out.exists(), command


def test_an_overflowing_training_forward_exits_1_with_one_line(tmp_path,
                                                                capsys):
    # unstandardized, a channel near 1e200 overflows the windows' variance
    # on the tape: the loss is refused, with no NumPy warning before it
    data = tmp_path / "huge.csv"
    data.write_text("t,a,b\n" + "".join(
        f"{i},{1e200 * (2 + math.sin(i / 4))!r},{math.sin(i / 4)!r}\n"
        for i in range(400)), encoding="utf-8")
    cfg = tiny_config_file(tmp_path, {"data.path": str(data),
                                      "data.standardize": "false"})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy warning raises
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: non-finite loss (inf) at epoch 1; best parameters restored\n")
    assert not out.exists()


@pytest.mark.parametrize("gamma", [1e-300, 1e300])
def test_evaluate_refuses_a_checkpoint_with_gamma_out_of_range(tmp_path,
                                                               capsys, gamma):
    # 1e-300 forecast values near 1e300, whose squared error is inf; 1e300
    # overflowed the forward's layer norms
    cfg = tiny_config_file(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    model = load_checkpoint(out / "model.ckpt")
    model.params["revin.gamma"].data[1] = gamma
    save_unchecked(model, out / "model.ckpt")
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "corrupt checkpoint: revin.gamma" in err
    assert not (out / "metrics.csv").exists()


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


def test_removed_dropout_key_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("backbone.dropout = 0.0\n", encoding="utf-8")
    assert main(["train", "--config", path.as_posix(),
                 "--out", str(tmp_path / "x")]) == 2
    assert "unknown configuration key 'backbone.dropout'" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["model.alignment_weight = nan",
                                  "train.learning_rate = inf",
                                  "train.clip_norm = -inf",
                                  "synthetic.trend_slope = NaN",
                                  "ablate.lambdas = 0.1,inf"])
def test_non_finite_float_exit_code(tmp_path, line, capsys):
    # nan passes every range check (nan < 0 is false), so it is refused
    # when the value is parsed
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "x"
    assert main(["train", "--config", path.as_posix(), "--out", str(out)]) == 2
    assert "cannot parse" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "ablate"])
def test_short_eval_seasonality_exits_2_before_any_output(tmp_path, capsys,
                                                         command):
    cfg = tiny_config_file(tmp_path, {"eval.mode": "short",
                                      "eval.seasonality": "32"})
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "eval.seasonality" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("make", [lambda path: None,
                                  lambda path: path.mkdir(),
                                  lambda path: path.write_bytes(b"\xff\xfe")],
                         ids=["missing", "directory", "not_utf8"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, capsys, make):
    path = tmp_path / "run.cfg"
    make(path)
    out = tmp_path / "x"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


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


@pytest.mark.parametrize("lines", [["decomposition.trend_window = -1"],
                                   ["decomposition.method = stl",
                                    "decomposition.stl_inner = 0"],
                                   ["decomposition.enabled = false",
                                    "decomposition.period = 0"],
                                   ["train.patience = -1"],
                                   ["window.lookback = 0"]],
                         ids=["trend_window", "stl_inner", "period_unused",
                              "patience", "lookback"])
def test_out_of_range_value_exit_code(tmp_path, lines, capsys):
    # the dataclasses hold the range checks; a value out of range stops the
    # run before it writes or reads anything, even where decomposition is off
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "x"
    assert main(["train", "--config", path.as_posix(), "--out", str(out)]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sweep", [{"ablate.anchor_counts": "4,40"},
                                   {"ablate.ks": "9"}])
def test_invalid_ablation_cell_exits_2_before_io(tmp_path, sweep, capsys):
    # 40 anchors exceed prompt.vocab_size // 2 = 25; k = 9 exceeds the 8
    # anchors; either cell is rejected before the output directory exists
    cfg = tiny_config_file(tmp_path, {"train.epochs": "1", **sweep})
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", cfg, "--seed", "0",
                 "--out", str(out)]) == 2
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
        name, anchors = read_record(fh)
    assert name == "anchors"
    assert anchors.shape == (8, 16)
    with open(out / "ts_embeddings.tensor", "rb") as fh:
        _, ts = read_record(fh)
    with open(out / "prompted_embeddings.tensor", "rb") as fh:
        _, prompted = read_record(fh)
    assert ts.shape == prompted.shape
    assert ts.shape[1] == 16
    assert not np.allclose(ts, prompted)  # prompts shift the pooled rows


@pytest.mark.parametrize("overrides", [{}, {"prompt.pooling": "per_patch"},
                                       {"prompt.k": "0"}],
                         ids=["mean", "per_patch", "k0"])
def test_export_matches_numpy_prompt_step(tmp_path, overrides):
    # the exported arrays equal the prompt step written out in numpy
    cfg = tiny_config_file(tmp_path, {"train.epochs": "1", **overrides})
    out = tmp_path / "exp"
    for command in ("train", "export-embeddings"):
        assert main([command, "--config", cfg, "--seed", "6",
                     "--out", str(out)]) == 0
    model = load_checkpoint(out / "model.ckpt")
    channels, inputs, _ = zip(*build_pipeline(parse_config(cfg), 6).test_windows)
    ts_embed = model.tokenize_and_embed(np.stack(inputs), channels)[0].data
    anchors = model.bank.anchors()
    prompted = ts_embed
    if model.config.prompt_k > 0:
        selections = retrieve_topk(ts_embed, model.bank, model.config.prompt_k,
                                   pooling=model.config.pooling)
        indices = np.array([s.indices for s in selections])
        prompted = np.concatenate([anchors[indices], ts_embed], axis=1)
    expected = {"anchors": anchors, "ts_embeddings": ts_embed.mean(axis=1),
                "prompted_embeddings": prompted.mean(axis=1)}
    for name, arr in expected.items():
        with open(out / f"{name}.tensor", "rb") as fh:
            assert np.array_equal(read_record(fh)[1], arr), name


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


def test_csv_with_short_rows_exits_1_with_one_line(tmp_path, capsys):
    # a 3000-column header, then 3000 one-cell rows
    data_path = tmp_path / "wide.csv"
    data_path.write_text("t," + ",".join(str(i) for i in range(3000)) + "\n"
                         + "1\n" * 3000, encoding="utf-8")
    cfg = tiny_config_file(tmp_path, {"data.path": str(data_path)})
    out = tmp_path / "x"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: row 2: expected 3001 columns, got 1\n"


@pytest.mark.parametrize("text, message", [
    ("t,a\n1,1.0\n2020-01-01,2.0\n3,2.5\n",
     "timestamps mix kinds at row 3: 1 then 2020-01-01 00:00:00"),
    ("t,a\n2020-01-01,1.0\n2020-01-02T00:00:00+00:00,2.0\n",
     "timestamps mix kinds at row 3: 2020-01-01 00:00:00 then "
     "2020-01-02 00:00:00+00:00"),
])
def test_csv_with_mixed_timestamp_kinds_exits_1_with_one_line(
        tmp_path, capsys, text, message):
    data_path = tmp_path / "mixed.csv"
    data_path.write_text(text, encoding="utf-8")
    cfg = tiny_config_file(tmp_path, {"data.path": str(data_path)})
    out = tmp_path / "x"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_csv_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    data_path = tmp_path / "latin.csv"
    data_path.write_bytes(b"t,a\n1,\xff2\n")
    cfg = tiny_config_file(tmp_path, {"data.path": str(data_path)})
    out = tmp_path / "x"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: cannot read CSV file {data_path}: 'utf-8' codec "
                   "can't decode byte 0xff in position 6: invalid start byte\n")


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


def run_cli(args):
    """``s2ip`` in a child process, whose warnings reach its stderr as a
    user's would; pytest records them in this one."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(s2ip.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "s2ip.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def write_embedding(path, rows, width):
    with open(path, "wb") as fh:
        write_record(fh, "E", np.random.default_rng(rows).normal(size=(rows, width)))
    return str(path)


def write_checkpoint(path, kind):
    """A checkpoint of an untrained model of the tiny config, ``valid``,
    or one that ``load_checkpoint`` refuses, as ``kind`` names."""
    model = harness.build_model(parse_config_text(TINY), 2, 0)
    save_checkpoint(model, path)
    header = json.dumps(model.config.to_dict()).encode()
    if kind == "extra_tensor":
        with open(path, "ab") as fh:
            write_record(fh, "extra", np.ones(1))
    elif kind == "no_embedding":
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little") + header)
            write_record(fh, "revin.gamma", np.ones(2))
    elif kind == "header_length":
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01\x02")
    elif kind == "header":
        path.write_bytes(CHECKPOINT_MAGIC + (len(header) + 1).to_bytes(8, "little")
                         + header)
    return str(path)


# 200 rows: a 30-row val split and a 10-row test split, both too short for
# one window, so each warns; a refusal about one names that one alone
SHORT_TEST = {"split.train": "0.8", "split.val": "0.15", "split.test": "0.05"}


@pytest.mark.parametrize("command, overrides, checkpoint, message", [
    ("evaluate", {}, "header_length", "truncated checkpoint header"),
    ("evaluate", {}, "header", "truncated checkpoint header"),
    ("forecast", {}, "no_embedding", "checkpoint lacks the embedding matrix"),
    ("evaluate", {}, "extra_tensor",
     "checkpoint has unexpected tensors: ['extra']"),
    ("train", {"synthetic.length": "60"}, None,
     "training split yields no windows: train split has 36 rows, fewer "
     "than lookback+horizon = 40; increase data length or shrink "
     "lookback/horizon"),
    ("evaluate", SHORT_TEST, "valid",
     "test split yields no windows: test split has 10 rows, fewer than "
     "lookback+horizon = 40"),
    ("forecast", {"synthetic.length": "20"}, "valid",
     "need at least 32 rows to forecast"),
    ("ablate", {"synthetic.length": "60"}, None,
     "ablation cell 'baseline' has no windows: train split has 36 rows, "
     "fewer than lookback+horizon = 40; test split has 12 rows, fewer than "
     "lookback+horizon = 40"),
    ("export-embeddings", SHORT_TEST, "valid",
     "no test windows to embed: test split has 10 rows, fewer than "
     "lookback+horizon = 40"),
], ids=["checkpoint_header_length", "checkpoint_header", "no_embedding",
        "unexpected_tensor", "no_train_windows", "no_test_windows", "short_forecast_input",
        "ablation_cell", "nothing_to_embed"])
def test_each_refusal_prints_one_line_and_writes_nothing(
        tmp_path, command, overrides, checkpoint, message):
    # through a child process, so a warning printed before the error shows
    overrides = dict(overrides)
    if "prompt.embedding_path" in overrides:
        overrides["prompt.embedding_path"] = write_embedding(
            tmp_path / "E.tensor", *overrides["prompt.embedding_path"])
    out = tmp_path / "out"
    args = [command, "--config", tiny_config_file(tmp_path, overrides),
            "--out", str(out)]
    if checkpoint is not None:
        args += ["--checkpoint",
                 write_checkpoint(tmp_path / "model.ckpt", checkpoint)]
    done = run_cli(args)
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1, done.stderr
    # the line ends with the refusal's own message, and a split's
    # warning that is not about the refusal does not join it
    assert done.stderr.startswith("error: ")
    assert done.stderr.endswith(f"{message}\n")
    assert "val split" not in done.stderr
    assert done.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command, rows, width", [
    ("train", 40, 8), ("train", 15, 16), ("evaluate", 15, 16),
    ("gen-data", 40, 32),
], ids=["embedding_width", "too_many_anchors", "evaluate_too_many_anchors",
        "gen_data_embedding_width"])
def test_an_embedding_file_that_does_not_fit_exits_2_before_any_output(
        tmp_path, command, rows, width):
    # the tiny config has width 16 and 8 anchors; only the record's header
    # is read, before the command runs
    path = write_embedding(tmp_path / "E.tensor", rows, width)
    out = tmp_path / "out"
    done = run_cli([command, "--config", tiny_config_file(
        tmp_path, {"prompt.embedding_path": path}), "--out", str(out)])
    assert done.returncode == 2
    assert done.stderr == (
        f"error: invalid configuration: prompt.embedding_path: {path} holds "
        f"a {rows} x {width} matrix; it needs backbone.embed_dim = 16 columns "
        "and at least 2 * prompt.anchors = 16 rows\n")
    assert done.stdout == ""
    assert not out.exists()


def test_an_embedding_header_that_cannot_be_read_stays_a_runtime_error(
        tmp_path):
    path = tmp_path / "E.tensor"
    path.write_bytes(struct.pack("<Q", 2 ** 62) + b"E")
    out = tmp_path / "out"
    config = {"prompt.embedding_path": str(path)}
    assert RunConfig(config)["prompt.embedding_path"] == str(path)
    done = run_cli(["train", "--config", tiny_config_file(tmp_path, config),
                    "--out", str(out)])
    assert done.returncode == 1
    assert done.stderr == ("error: truncated named record (name)\n")
    assert not out.exists()


def test_a_failed_command_removes_only_the_empty_directories_it_made(
        tmp_path, monkeypatch):
    def refuse(config, seed, outdir):
        raise harness.HarnessError("refused")

    def write_then_refuse(config, seed, outdir):
        Path(outdir, "partial.csv").write_text("t\n", encoding="utf-8")
        refuse(config, seed, outdir)

    existing = tmp_path / "existing"
    existing.mkdir()
    monkeypatch.setattr(harness, "cmd_gen_data", refuse)
    for out in (tmp_path / "a" / "b" / "c", existing, existing / "new"):
        with pytest.raises(harness.HarnessError):
            harness.run("gen-data", RunConfig(), 0, str(out))
    assert [p.name for p in tmp_path.iterdir()] == ["existing"]
    assert list(existing.iterdir()) == []
    monkeypatch.setattr(harness, "cmd_gen_data", write_then_refuse)
    with pytest.raises(harness.HarnessError):
        harness.run("gen-data", RunConfig(), 0, str(tmp_path / "d" / "e"))
    assert (tmp_path / "d" / "e" / "partial.csv").exists()


def test_a_run_that_goes_on_still_shows_its_warning(tmp_path):
    cfg = tiny_config_file(tmp_path, {"split.train": "0.7", "split.val": "0.1",
                                      "train.epochs": "1"})
    done = run_cli(["train", "--config", cfg, "--out", str(tmp_path / "out")])
    assert done.returncode == 0
    assert ("UserWarning: val split has 20 rows, fewer than lookback+horizon "
            "= 40; it yields no windows") in done.stderr
    assert "error" not in done.stderr
    assert (tmp_path / "out" / "model.ckpt").exists()


def test_few_shot_config_wiring(tmp_path):
    from s2ip.config import RunConfig
    from s2ip.harness import build_pipeline, load_frame, split_frame

    config = RunConfig({"synthetic.length": 400, "split.few_shot": 0.5,
                        "window.lookback": 32, "window.horizon": 8,
                        "decomposition.period": 8,
                        "decomposition.trend_window": 9})
    train_frame = split_frame(config, load_frame(config, 0))[0]
    assert train_frame.length == 140  # floor(0.5 * 280)
    pipeline = build_pipeline(config, 0)
    assert len(pipeline.train_windows) == train_frame.n_channels * (140 - 40 + 1)


def test_embedding_file_interface(tmp_path):
    from s2ip.config import RunConfig
    from s2ip.harness import load_embedding

    rng = np.random.default_rng(0)
    emb = rng.normal(size=(40, 16))
    path = tmp_path / "vocab.tensor"
    with open(path, "wb") as fh:
        write_record(fh, "E", emb)
    config = RunConfig({"prompt.embedding_path": str(path),
                        "backbone.embed_dim": 16, "prompt.anchors": 8})
    loaded = load_embedding(config, seed=0)
    assert np.array_equal(loaded.values, emb)

    with open(path, "wb") as fh:
        write_record(fh, "wrong_name", emb)
    from s2ip.harness import HarnessError
    with pytest.raises(HarnessError, match="'E'"):
        load_embedding(config, seed=0)


def test_embedding_file_with_huge_name_length_raises_ioerror(tmp_path):
    from s2ip.harness import load_embedding

    path = tmp_path / "vocab.tensor"
    path.write_bytes(struct.pack("<Q", 2 ** 62) + b"E" + bytes(64))
    config = RunConfig({"prompt.embedding_path": str(path),
                        "backbone.embed_dim": 16, "prompt.anchors": 8})
    with pytest.raises(IOError, match="truncated named record"):
        load_embedding(config, seed=0)


@pytest.mark.parametrize("trailer", ["record", "garbage"])
def test_embedding_file_with_trailing_bytes_rejected(tmp_path, capsys,
                                                     trailer):
    from s2ip.harness import HarnessError, load_embedding

    path = tmp_path / "vocab.tensor"
    with open(path, "wb") as fh:
        write_record(fh, "E", np.random.default_rng(0).normal(size=(40, 16)))
        if trailer == "record":
            write_record(fh, "E", np.ones((40, 16)))
        else:
            fh.write(bytes(7))
    config = RunConfig({"prompt.embedding_path": str(path),
                        "backbone.embed_dim": 16, "prompt.anchors": 8})
    with pytest.raises(HarnessError, match="more data after it"):
        load_embedding(config, seed=0)
    cfg = tiny_config_file(tmp_path, {"prompt.embedding_path": path.as_posix()})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert "more data after it" in capsys.readouterr().err


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
