"""Command implementations behind the CLI: synthetic data generation,
training, evaluation, forecasting, ablation sweeps, and embedding export.

Every command is a pure function of (config, seed, output directory); given
the same inputs it writes byte-identical artifacts.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .metrics import evaluate_model
from .model import ForecastModel
from .prompt import EmbeddingMatrix, clustered_vocabulary, retrieve_topk
from .series import (SeriesFrame, Standardizer, chronological_split,
                     few_shot_truncate, load_csv, windows)
from .training import load_checkpoint, save_checkpoint, train

COMMANDS = ("train", "evaluate", "forecast", "ablate", "gen-data",
            "export-embeddings")


class HarnessError(RuntimeError):
    pass


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def _write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def synthetic_frame(length: int, channels: int, periods, trend_slope: float,
                    noise_sigma: float, seed: int) -> SeriesFrame:
    """Sum of sinusoids plus a linear trend plus seeded Gaussian noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    values = np.empty((length, channels))
    for c in range(channels):
        signal = trend_slope * t
        for i, period in enumerate(periods):
            amplitude = 1.0 / (i + 1)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            signal = signal + amplitude * np.sin(2.0 * np.pi * t / period + phase)
        signal = signal + rng.normal(0.0, noise_sigma, size=length)
        values[:, c] = signal
    names = tuple(f"ch{c + 1}" for c in range(channels))
    return SeriesFrame(tuple(range(length)), values, names)


def write_frame_csv(frame: SeriesFrame, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t",) + frame.channel_names)
        for i, ts in enumerate(frame.timestamps):
            writer.writerow([_fmt(ts)] + [_fmt(v) for v in frame.values[i]])


@dataclass
class Pipeline:
    """Everything the commands need: split frames, window lists, and the
    (optional) global standardizer fitted on the training split."""

    frame: SeriesFrame
    train_frame: SeriesFrame
    val_frame: SeriesFrame
    test_frame: SeriesFrame
    train_windows: list
    val_windows: list
    test_windows: list
    standardizer: Standardizer | None


def load_frame(config: RunConfig, seed: int) -> SeriesFrame:
    path = config["data.path"]
    if path:
        return load_csv(path, forward_fill=config["data.forward_fill"])
    return synthetic_frame(config["synthetic.length"],
                           config["synthetic.channels"],
                           config["synthetic.periods"],
                           config["synthetic.trend_slope"],
                           config["synthetic.noise_sigma"],
                           seed)


def split_frame(config: RunConfig, frame: SeriesFrame
                ) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame,
                           Standardizer | None]:
    """Chronological train/val/test split, with the training part cut to its
    few-shot fraction, plus the standardizer fitted on that training part
    (None when standardization is off)."""
    train_f, val_f, test_f = chronological_split(frame, config.split_spec())
    few = config["split.few_shot"]
    if few > 0:
        train_f = few_shot_truncate(train_f, few)
    standardizer = Standardizer.fit(train_f) if config["data.standardize"] else None
    return train_f, val_f, test_f, standardizer


def build_pipeline(config: RunConfig, seed: int) -> Pipeline:
    frame = load_frame(config, seed)
    train_f, val_f, test_f, standardizer = split_frame(config, frame)
    if standardizer is not None:
        train_f = standardizer.transform(train_f)
        val_f = standardizer.transform(val_f) if val_f.length else val_f
        test_f = standardizer.transform(test_f) if test_f.length else test_f
    spec = config.window_spec()
    split_windows = {}
    for name, frame_part in (("train", train_f), ("val", val_f),
                             ("test", test_f)):
        split_windows[name] = windows(frame_part, spec)
        if frame_part.length and not split_windows[name]:
            warnings.warn(f"{name} split has {frame_part.length} rows, fewer "
                          f"than lookback+horizon = "
                          f"{spec.lookback + spec.horizon}; it yields no "
                          "windows", stacklevel=2)
    return Pipeline(frame=frame, train_frame=train_f, val_frame=val_f,
                    test_frame=test_f,
                    train_windows=split_windows["train"],
                    val_windows=split_windows["val"],
                    test_windows=split_windows["test"],
                    standardizer=standardizer)


def load_embedding(config: RunConfig, seed: int) -> EmbeddingMatrix:
    path = config["prompt.embedding_path"]
    if path:
        with open(path, "rb") as fh:
            name, arr = ad.read_named_array(fh)
        if name != "E":
            raise HarnessError(f"{path}: expected a single record named 'E', "
                               f"found {name!r}")
        return EmbeddingMatrix(arr)
    return clustered_vocabulary(config["prompt.vocab_size"],
                                config["backbone.embed_dim"],
                                n_clusters=config["prompt.clusters"],
                                seed=seed)


def build_model(config: RunConfig, n_channels: int, seed: int) -> ForecastModel:
    embedding = load_embedding(config, seed)
    return ForecastModel(config.model_config(n_channels), embedding,
                         seed=seed, policy=config.policy())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(config: RunConfig, seed: int, outdir: str) -> list[str]:
    frame = synthetic_frame(config["synthetic.length"],
                            config["synthetic.channels"],
                            config["synthetic.periods"],
                            config["synthetic.trend_slope"],
                            config["synthetic.noise_sigma"],
                            seed)
    path = os.path.join(outdir, "synthetic.csv")
    write_frame_csv(frame, path)
    return [path]


def cmd_train(config: RunConfig, seed: int, outdir: str) -> list[str]:
    pipeline = build_pipeline(config, seed)
    if not pipeline.train_windows:
        raise HarnessError("training split yields no windows; increase data "
                           "length or shrink lookback/horizon")
    model = build_model(config, pipeline.frame.n_channels, seed)
    report = train(model, pipeline.train_windows, pipeline.val_windows,
                   config.train_config(seed))
    ckpt = os.path.join(outdir, "model.ckpt")
    save_checkpoint(model, ckpt)
    report_path = os.path.join(outdir, "train_report.csv")
    rows = []
    for i, loss in enumerate(report.train_losses):
        rows.append({"epoch": i + 1, "train_loss": loss,
                     "val_mse": report.val_mses[i] if i < len(report.val_mses)
                     else None})
    _write_csv(report_path, ["epoch", "train_loss", "val_mse"], rows)
    return [ckpt, report_path]


def _metric_row(report, extra: dict | None = None) -> dict:
    row = dict(extra or {})
    row.update(report.as_row())
    return row


def cmd_evaluate(config: RunConfig, seed: int, outdir: str,
                 checkpoint: str | None = None) -> list[str]:
    ckpt = checkpoint or os.path.join(outdir, "model.ckpt")
    if not os.path.exists(ckpt):
        raise HarnessError(f"checkpoint not found: {ckpt}")
    model = load_checkpoint(ckpt)
    pipeline = build_pipeline(config, seed)
    if not pipeline.test_windows:
        raise HarnessError("test split yields no windows")
    dump_path = os.path.join(outdir, "per_window_metrics.csv")
    report = evaluate_model(model, pipeline.test_windows,
                            mode=config["eval.mode"],
                            seasonality=config["eval.seasonality"],
                            dump_path=dump_path)
    metrics_path = os.path.join(outdir, "metrics.csv")
    fields = ["mse", "mae", "smape", "mape", "mase", "owa", "horizon",
              "seasonality", "n_windows"]
    _write_csv(metrics_path, fields, [report.as_row()])
    return [metrics_path, dump_path]


def _next_timestamps(frame: SeriesFrame, horizon: int) -> list:
    last = frame.timestamps[-1]
    if len(frame.timestamps) >= 2:
        step = frame.timestamps[-1] - frame.timestamps[-2]
    else:
        step = 1 if isinstance(last, int) else timedelta(0)
    return [last + step * (k + 1) for k in range(horizon)]


def cmd_forecast(config: RunConfig, seed: int, outdir: str,
                 checkpoint: str | None = None) -> list[str]:
    ckpt = checkpoint or os.path.join(outdir, "model.ckpt")
    if not os.path.exists(ckpt):
        raise HarnessError(f"checkpoint not found: {ckpt}")
    model = load_checkpoint(ckpt)
    frame = load_frame(config, seed)
    lookback = config["window.lookback"]
    if frame.length < lookback:
        raise HarnessError(f"need at least {lookback} rows to forecast")
    standardizer = split_frame(config, frame)[3]
    scaled = frame if standardizer is None else standardizer.transform(frame)
    future = _next_timestamps(frame, config["window.horizon"])
    rows = []
    for channel in range(frame.n_channels):
        window = scaled.channel(channel)[-lookback:]
        result = model.forward_forecast(window, channel)
        values = result.forecast
        if standardizer is not None:
            values = standardizer.inverse(values, channel)
        for ts, value in zip(future, values):
            rows.append({"timestamp": ts,
                         "channel": frame.channel_names[channel],
                         "value": float(value)})
    path = os.path.join(outdir, "forecast.csv")
    _write_csv(path, ["timestamp", "channel", "value"], rows)
    return [path]


# the incremental feature study: nothing on, prompting only, then both
ABLATION_SETTINGS = (
    ("baseline", {"prompt.k": 0, "decomposition.enabled": False}),
    ("prompt_only", {"decomposition.enabled": False}),
    ("prompt_and_decomposition", {}),
)


def cmd_ablate(config: RunConfig, seed: int, outdir: str) -> list[str]:
    """Train and evaluate one cell per feature setting, then one per swept
    value of the alignment weight, prompt length, and anchor count."""
    cells: list[tuple[str, RunConfig]] = []
    for name, overrides in ABLATION_SETTINGS:
        cells.append((name, config.override(overrides)))
    for lam in config["ablate.lambdas"]:
        cells.append((f"lambda={lam!r}",
                      config.override({"model.alignment_weight": lam})))
    for k in config["ablate.ks"]:
        cells.append((f"k={k}", config.override({"prompt.k": k})))
    for count in config["ablate.anchor_counts"]:
        cells.append((f"anchors={count}",
                      config.override({"prompt.anchors": count})))

    rows = []
    for name, cell_config in cells:
        pipeline = build_pipeline(cell_config, seed)
        if not pipeline.train_windows or not pipeline.test_windows:
            raise HarnessError(f"ablation cell {name!r} has no windows")
        model = build_model(cell_config, pipeline.frame.n_channels, seed)
        train(model, pipeline.train_windows, pipeline.val_windows,
              cell_config.train_config(seed))
        report = evaluate_model(model, pipeline.test_windows,
                                mode=cell_config["eval.mode"],
                                seasonality=cell_config["eval.seasonality"])
        rows.append(_metric_row(report, {
            "setting": name,
            "lambda": cell_config["model.alignment_weight"],
            "k": cell_config["prompt.k"],
            "anchors": cell_config["prompt.anchors"],
        }))
    path = os.path.join(outdir, "ablation.csv")
    fields = ["setting", "lambda", "k", "anchors", "mse", "mae", "smape",
              "mape", "mase", "owa", "horizon", "seasonality", "n_windows"]
    _write_csv(path, fields, rows)
    return [path]


def cmd_export_embeddings(config: RunConfig, seed: int, outdir: str,
                          checkpoint: str | None = None) -> list[str]:
    """Dump anchors, pooled window embeddings, and pooled prefix-prompted
    embeddings as named tensors for external projection/plotting."""
    ckpt = checkpoint or os.path.join(outdir, "model.ckpt")
    if not os.path.exists(ckpt):
        raise HarnessError(f"checkpoint not found: {ckpt}")
    model = load_checkpoint(ckpt)
    pipeline = build_pipeline(config, seed)
    selected = pipeline.test_windows[:config["export.max_windows"]]
    if not selected:
        raise HarnessError("no test windows to embed")
    channels, inputs, _ = zip(*selected)
    ts_embed = model.tokenize_and_embed(np.stack(inputs), channels)[0].data
    anchors = model.bank.anchors()
    prompted = ts_embed
    if model.config.prompt_k > 0:
        selections = retrieve_topk(ts_embed, model.bank, model.config.prompt_k,
                                   pooling=model.config.pooling,
                                   anchors=anchors)
        indices = np.array([s.indices for s in selections])
        prompted = np.concatenate([anchors[indices], ts_embed], axis=1)
    paths = []
    for name, arr in (("anchors", anchors),
                      ("ts_embeddings", ts_embed.mean(axis=1)),
                      ("prompted_embeddings", prompted.mean(axis=1))):
        path = os.path.join(outdir, f"{name}.tensor")
        with open(path, "wb") as fh:
            ad.write_named_array(fh, name, arr)
        paths.append(path)
    return paths


def run(command: str, config: RunConfig, seed: int, outdir: str,
        checkpoint: str | None = None) -> list[str]:
    """Dispatch one CLI command; returns the artifact paths it wrote."""
    if command not in COMMANDS:
        raise HarnessError(f"unknown command {command!r}; expected one of "
                           f"{COMMANDS}")
    os.makedirs(outdir, exist_ok=True)
    if command == "gen-data":
        return cmd_gen_data(config, seed, outdir)
    if command == "train":
        return cmd_train(config, seed, outdir)
    if command == "evaluate":
        return cmd_evaluate(config, seed, outdir, checkpoint)
    if command == "forecast":
        return cmd_forecast(config, seed, outdir, checkpoint)
    if command == "ablate":
        return cmd_ablate(config, seed, outdir)
    return cmd_export_embeddings(config, seed, outdir, checkpoint)
