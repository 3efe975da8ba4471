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

from .config import RunConfig
from .metrics import evaluate_model
from .model import ForecastModel
from .prompt import EmbeddingMatrix, clustered_vocabulary
from .series import (SeriesFrame, Standardizer, WindowSequence,
                     chronological_split, few_shot_truncate, load_csv, windows)
from .training import (load_checkpoint, read_record, save_checkpoint, train,
                       write_record)

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
    """Everything the commands need: the loaded frame, each split's windows,
    the (optional) global standardizer fitted on the training split, and,
    for each split that yields no windows, why (its row count)."""

    frame: SeriesFrame
    train_windows: WindowSequence
    val_windows: WindowSequence
    test_windows: WindowSequence
    standardizer: Standardizer | None
    shortfalls: dict[str, str]


def load_frame(config: RunConfig, seed: int) -> SeriesFrame:
    path = config["data.path"]
    if path:
        return load_csv(path, forward_fill=config["data.forward_fill"])
    return _synthetic(config, seed)


def _synthetic(config: RunConfig, seed: int) -> SeriesFrame:
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
    spec = config.model_config(frame.n_channels).window
    split_windows, shortfalls = {}, {}
    for name, frame_part in (("train", train_f), ("val", val_f),
                             ("test", test_f)):
        split_windows[name] = windows(frame_part, spec)
        if split_windows[name]:
            continue
        shortfalls[name] = (f"{name} split has {frame_part.length} rows, "
                            f"fewer than lookback+horizon = "
                            f"{spec.lookback + spec.horizon}")
        if frame_part.length:
            warnings.warn(f"{shortfalls[name]}; it yields no windows",
                          stacklevel=2)
    return Pipeline(frame, split_windows["train"], split_windows["val"],
                    split_windows["test"], standardizer, shortfalls)


def load_embedding(config: RunConfig, seed: int) -> EmbeddingMatrix:
    path = config["prompt.embedding_path"]
    if path:
        with open(path, "rb") as fh:
            name, arr = read_record(fh)
            trailing = fh.read(1)
        if name != "E":
            raise HarnessError(f"{path}: expected a single record named 'E', "
                               f"found {name!r}")
        if trailing:
            raise HarnessError(f"{path}: expected a single record named 'E', "
                               "found more data after it")
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
    path = os.path.join(outdir, "synthetic.csv")
    write_frame_csv(_synthetic(config, seed), path)
    return [path]


def cmd_train(config: RunConfig, seed: int, outdir: str) -> list[str]:
    pipeline = build_pipeline(config, seed)
    if not pipeline.train_windows:
        raise HarnessError(f"training split yields no windows: "
                           f"{pipeline.shortfalls['train']}; increase data "
                           "length or shrink lookback/horizon")
    model = build_model(config, pipeline.frame.n_channels, seed)
    report = train(model, pipeline.train_windows, pipeline.val_windows,
                   config.train_config(seed))
    ckpt = os.path.join(outdir, "model.ckpt")
    save_checkpoint(model, ckpt)
    report_path = os.path.join(outdir, "train_report.csv")
    rows = [{"epoch": i + 1, "train_loss": loss,
             "val_mse": report.val_mses[i] if i < len(report.val_mses) else None}
            for i, loss in enumerate(report.train_losses)]
    _write_csv(report_path, ["epoch", "train_loss", "val_mse"], rows)
    return [ckpt, report_path]


def _load_model(outdir: str, checkpoint: str | None) -> ForecastModel:
    ckpt = checkpoint or os.path.join(outdir, "model.ckpt")
    if not os.path.exists(ckpt):
        raise HarnessError(f"checkpoint not found: {ckpt}")
    return load_checkpoint(ckpt)


def cmd_evaluate(config: RunConfig, seed: int, outdir: str,
                 checkpoint: str | None = None) -> list[str]:
    model = _load_model(outdir, checkpoint)
    pipeline = build_pipeline(config, seed)
    if not pipeline.test_windows:
        raise HarnessError(f"test split yields no windows: "
                           f"{pipeline.shortfalls['test']}")
    dump_path = os.path.join(outdir, "per_window_metrics.csv")
    report = evaluate_model(model, pipeline.test_windows,
                            mode=config["eval.mode"],
                            seasonality=config["eval.seasonality"],
                            dump_path=dump_path)
    metrics_path = os.path.join(outdir, "metrics.csv")
    row = report.as_row()
    _write_csv(metrics_path, list(row), [row])
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
    model = _load_model(outdir, checkpoint)
    frame = load_frame(config, seed)
    lookback = config["window.lookback"]
    if frame.length < lookback:
        raise HarnessError(f"need at least {lookback} rows to forecast")
    standardizer = split_frame(config, frame)[3]
    scaled = frame if standardizer is None else standardizer.transform(frame)
    future = _next_timestamps(frame, config["window.horizon"])
    channels = range(frame.n_channels)
    inputs = np.stack([scaled.channel(c)[-lookback:] for c in channels])
    forecasts = model.forward_forecast(inputs, channels).forecast
    rows = []
    for channel, values in zip(channels, forecasts):
        if standardizer is not None:
            values = standardizer.inverse(values, channel)
        if not np.isfinite(values).all():
            raise HarnessError(f"forecast for channel "
                               f"{frame.channel_names[channel]!r} is not "
                               "finite")
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


def ablation_cells(config: RunConfig) -> list[tuple[str, RunConfig]]:
    """One named config per feature setting, then one per swept value of the
    alignment weight, prompt length, and anchor count. Each is validated as
    it is built, so an invalid sweep value raises ``ConfigError`` here."""
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
    return cells


def cmd_ablate(cells: list[tuple[str, RunConfig]], seed: int,
               outdir: str) -> list[str]:
    """Train and evaluate every cell of ``ablation_cells``."""
    rows = []
    for name, cell_config in cells:
        pipeline = build_pipeline(cell_config, seed)
        short = [pipeline.shortfalls[split] for split in ("train", "test")
                 if split in pipeline.shortfalls]
        if short:
            raise HarnessError(f"ablation cell {name!r} has no windows: "
                               + "; ".join(short))
        model = build_model(cell_config, pipeline.frame.n_channels, seed)
        train(model, pipeline.train_windows, pipeline.val_windows,
              cell_config.train_config(seed))
        report = evaluate_model(model, pipeline.test_windows,
                                mode=cell_config["eval.mode"],
                                seasonality=cell_config["eval.seasonality"])
        rows.append({"setting": name,
                     "lambda": cell_config["model.alignment_weight"],
                     "k": cell_config["prompt.k"],
                     "anchors": cell_config["prompt.anchors"],
                     **report.as_row()})
    path = os.path.join(outdir, "ablation.csv")
    # every ablation has the three feature settings, so rows is never empty
    _write_csv(path, list(rows[0]), rows)
    return [path]


def cmd_export_embeddings(config: RunConfig, seed: int, outdir: str,
                          checkpoint: str | None = None) -> list[str]:
    """Dump anchors, pooled window embeddings, and pooled prefix-prompted
    embeddings as named tensors for external projection/plotting."""
    model = _load_model(outdir, checkpoint)
    pipeline = build_pipeline(config, seed)
    selected = pipeline.test_windows[:config["export.max_windows"]]
    if not selected:
        raise HarnessError(f"no test windows to embed: "
                           f"{pipeline.shortfalls['test']}")
    channels, inputs, _ = zip(*selected)
    ts_embed = model.tokenize_and_embed(np.stack(inputs), channels)[0]
    prompted = model.prompt(ts_embed)[0]
    paths = []
    for name, arr in (("anchors", model.bank.anchors_tensor().data),
                      ("ts_embeddings", ts_embed.data.mean(axis=1)),
                      ("prompted_embeddings", prompted.data.mean(axis=1))):
        path = os.path.join(outdir, f"{name}.tensor")
        with open(path, "wb") as fh:
            write_record(fh, name, arr)
        paths.append(path)
    return paths


def run(command: str, config: RunConfig, seed: int, outdir: str,
        checkpoint: str | None = None) -> list[str]:
    """Dispatch one CLI command; returns the artifact paths it wrote."""
    if command not in COMMANDS:
        raise HarnessError(f"unknown command {command!r}; expected one of "
                           f"{COMMANDS}")
    # every configuration is built and validated before any output exists
    cells = ablation_cells(config) if command == "ablate" else None
    # the directories this call creates, deepest first; a failed command
    # removes those it left empty, and nothing that existed before
    created, path = [], os.path.abspath(outdir)
    while not os.path.exists(path):
        created.append(path)
        path = os.path.dirname(path)
    os.makedirs(outdir, exist_ok=True)
    try:
        if command == "gen-data":
            return cmd_gen_data(config, seed, outdir)
        if command == "train":
            return cmd_train(config, seed, outdir)
        if command == "evaluate":
            return cmd_evaluate(config, seed, outdir, checkpoint)
        if command == "forecast":
            return cmd_forecast(config, seed, outdir, checkpoint)
        if command == "ablate":
            return cmd_ablate(cells, seed, outdir)
        return cmd_export_embeddings(config, seed, outdir, checkpoint)
    except BaseException:
        for path in created:
            try:
                os.rmdir(path)  # refuses a directory that holds anything
            except OSError:
                break
        raise
