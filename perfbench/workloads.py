"""The benchmark's workloads: inputs made from a seed, set-up, one timed round
and the correctness checks of each.

Every workload is a closed loop with one caller in one process: a round
starts when the previous one has returned. Inputs are synthetic series that
the benchmark writes to a CSV before timing starts; the program reads them
through ``data.path``. The reference checks run on inputs made from
``CHECK_SEED``, whatever ``--seed`` is, so their expected values can be
stored in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from s2ip import harness, metrics, training
from s2ip.config import RunConfig

from gauge import Gauge, Meter

CHECK_SEED = 20240308
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# relative tolerance of the reference checks: wide enough for reordered
# float sums (ulp-level), narrow enough to catch a wrong gradient
REFERENCE_RTOL = 1e-9

# train/val/test 0.6/0.2/0.2 sizes an epoch to a few seconds while the
# validation split still holds whole windows
SHORT_SPLIT = {"split.train": 0.6, "split.val": 0.2, "split.test": 0.2}
TRAIN_CONFIG = {**SHORT_SPLIT, "train.epochs": 1}
TRAIN_STL_CONFIG = {
    **TRAIN_CONFIG,
    "decomposition.method": "stl", "decomposition.stl_inner": 2,
    "prompt.pooling": "per_patch", "prompt.k": 8, "prompt.anchors": 64,
    "prompt.vocab_size": 1000, "backbone.embed_dim": 32,
    "backbone.layers": 1, "backbone.heads": 2,
}
# the reference checks train on half of the training split
CHECK_OVERRIDES = {"split.few_shot": 0.5}
FORECASTS_PER_ROUND = 64
# during validation and evaluation, the gauge is read after every this many
# forecasts
FORECAST_SPLIT = 8


def make_series(length: int, channels: int, seed: int) -> np.ndarray:
    """Level, trend, daily and weekly-like cycles and noise, per channel."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    values = np.empty((length, channels))
    for c in range(channels):
        column = rng.uniform(-1.0, 1.0) + rng.uniform(-0.01, 0.01) * t
        for i, period in enumerate((24, 96)):
            amplitude = rng.uniform(0.5, 1.0) / (i + 1)
            column += amplitude * np.sin(2.0 * np.pi * t / period
                                         + rng.uniform(0.0, 2.0 * np.pi))
        values[:, c] = column + rng.normal(0.0, 0.1, size=length)
    return values


def write_series_csv(path: Path, values: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"ch{c + 1}" for c in range(values.shape[1])])
        for i, row in enumerate(values):
            writer.writerow([i] + [repr(float(v)) for v in row])


def write_config(path: Path, values: dict) -> None:
    """Write overrides in the ``key = value`` format ``s2ip`` reads."""
    lines = [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_reference(workload: str) -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


@dataclass
class Round:
    """One round: the work units it completed and the time they took, and
    its latency samples; times scaled to the gauge's reference speed, and
    as wall times."""

    units: int
    busy_s: float
    latencies_ms: list
    wall_busy_s: float
    wall_latencies_ms: list


@dataclass
class Measurement:
    """The rounds of a run, their set-up times, and the operations attempted
    and failed.

    Every round repeats the same work. The first round and its set-up warm
    caches and lazy state and are left out of the times; the figures are
    medians over the other rounds, of times scaled by the gauge.
    """

    rounds: list = field(default_factory=list)
    setups_s: list = field(default_factory=list)
    wall_setups_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def timed_rounds(self) -> list:
        return self.rounds[1:]

    def steady_rate(self, wall: bool = False) -> float:
        """Median over the timed rounds of work units per second."""
        return statistics.median(
            r.units / (r.wall_busy_s if wall else r.busy_s)
            for r in self.timed_rounds() if r.units)

    def steady_samples(self, wall: bool = False) -> list:
        return [s for r in self.timed_rounds()
                for s in (r.wall_latencies_ms if wall else r.latencies_ms)]

    def steady_setup_s(self, wall: bool = False) -> float:
        return statistics.median(
            (self.wall_setups_s if wall else self.setups_s)[1:])


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _reference_checks(workload: str, values: dict) -> list[Check]:
    expected = load_reference(workload)
    checks = []
    for key, value in values.items():
        want = expected.get(key)
        ok = (want is not None and math.isfinite(value)
              and math.isclose(value, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0))
        checks.append(Check(f"reference.{key}", ok,
                            f"got {value!r}, reference {want!r}, "
                            f"rtol {REFERENCE_RTOL}"))
    return checks


def _same_outputs(m: Measurement) -> Check:
    distinct = len(set(m.outputs))
    return Check("rounds_identical", distinct <= 1,
                 f"{len(m.outputs)} rounds, {distinct} distinct outputs")


def _no_phase(phase: str) -> None:
    pass


def _timed_setup(setup, gauge, m: Measurement):
    """Run ``setup()`` and record its time, scaled and wall."""
    meter = Meter(gauge)
    out = setup()
    wall, scaled = meter.split()
    m.setups_s.append(scaled)
    m.wall_setups_s.append(wall)
    return out


@contextlib.contextmanager
def _metered(timer, gauge, forecast_split: int):
    """Meter the block, reading the gauge between training steps and every
    ``forecast_split`` forecasts; yields the meter, complete on exit."""
    meter = Meter(gauge)
    timer.meter, timer.forecast_split = meter, forecast_split
    try:
        yield meter
    finally:
        timer.meter, timer.forecast_split = None, 0
        meter.split()


class TrainWorkload:
    """``s2ip train``: one round builds the pipeline and a fresh model (the
    set-up), then times ``train`` for one epoch and ``save_checkpoint``.
    Latency samples are training steps; the work unit is a training
    window."""

    unit = "step"

    def __init__(self, name: str, config: dict, length: int, channels: int,
                 seed: int, workdir: Path, timer):
        self.name, self.seed, self.timer = name, seed, timer
        self.gauge = Gauge()
        self.workdir = workdir
        self.config_values = config
        data = workdir / "series.csv"
        write_series_csv(data, make_series(length, channels, seed))
        self.config = RunConfig({**config, "data.path": str(data)})
        self.check_data = workdir / "check.csv"
        write_series_csv(self.check_data,
                         make_series(length, channels, CHECK_SEED))
        self.checkpoint = workdir / "model.ckpt"
        self.on_phase = _no_phase
        self.forecast_split = FORECAST_SPLIT

    def _setup(self):
        pipeline = harness.build_pipeline(self.config, self.seed)
        model = harness.build_model(self.config, pipeline.frame.n_channels,
                                    self.seed)
        return pipeline, model

    def round(self, m: Measurement) -> None:
        self.on_phase("setup")
        pipeline, model = _timed_setup(self._setup, self.gauge, m)
        self.on_phase("run")
        windows = pipeline.train_windows
        timer = self.timer
        samples, begun = len(timer.samples_ms), timer.begun
        with _metered(timer, self.gauge, self.forecast_split) as meter:
            try:
                report = training.train(model, windows, pipeline.val_windows,
                                        self.config.train_config(self.seed))
                training.save_checkpoint(model, self.checkpoint)
            except Exception as exc:  # counted as the failed step, not dropped
                report = None
                m.fail(1, f"{type(exc).__name__}: {exc}")
        m.attempted += timer.begun - begun
        if report is None:
            return
        values = tuple(report.train_losses) + tuple(report.val_mses)
        if not all(math.isfinite(v) for v in values):
            m.fail(1, f"non-finite loss or validation MSE: {values}")
            return
        m.rounds.append(Round(len(windows), meter.scaled_s,
                              timer.samples_ms[samples:], meter.wall_s,
                              timer.wall_samples_ms[samples:]))
        m.outputs.append(values)

    def checks(self, m: Measurement) -> list[Check]:
        config = RunConfig({**self.config_values, **CHECK_OVERRIDES,
                            "data.path": str(self.check_data)})
        pipeline = harness.build_pipeline(config, CHECK_SEED)
        model = harness.build_model(config, pipeline.frame.n_channels,
                                    CHECK_SEED)
        report = training.train(model, pipeline.train_windows,
                                pipeline.val_windows,
                                config.train_config(CHECK_SEED))
        values = {"train_loss": report.train_losses[-1],
                  "val_mse": report.val_mses[-1]}
        return [_same_outputs(m)] + _reference_checks(self.name, values)


class InferWorkload:
    """``s2ip evaluate`` then ``s2ip forecast`` on a checkpoint of the
    ``train`` model shape. One round loads the checkpoint and builds the
    pipeline (the set-up), then times ``evaluate_model`` over every test
    window with the per-window dump, then single-window
    ``forward_forecast`` calls. Latency samples are forecasts; the work
    unit is an evaluated window."""

    unit = "window"

    def __init__(self, name: str, config: dict, length: int, channels: int,
                 seed: int, workdir: Path, root: Path, timer):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.timer, self.gauge = timer, Gauge()
        data = workdir / "series.csv"
        write_series_csv(data, make_series(length, channels, seed))
        self.config = RunConfig({**config, "data.path": str(data)})
        self.check_data = workdir / "check.csv"
        write_series_csv(self.check_data,
                         make_series(TRAIN_LENGTH, channels, CHECK_SEED))
        self.check_config = RunConfig({**SHORT_SPLIT,
                                       "data.path": str(self.check_data)})
        self.dump = workdir / "per_window_metrics.csv"
        self.checkpoint = self._train_checkpoint(root)
        self.rng = np.random.default_rng(seed)
        self.forecast_inputs = []
        self.on_phase = _no_phase
        self.forecast_split = FORECAST_SPLIT

    def _train_checkpoint(self, root: Path) -> Path:
        """Train the checkpoint with ``s2ip train`` in a child process, so
        this process's peak memory is that of inference alone."""
        outdir = self.workdir / "trained"
        config_path = self.workdir / "train.cfg"
        write_config(config_path, {**TRAIN_CONFIG, **CHECK_OVERRIDES,
                                   "data.path": str(self.check_data)})
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run([sys.executable, "-m", "s2ip.cli", "train",
                        "--config", str(config_path),
                        "--seed", str(CHECK_SEED), "--out", str(outdir)],
                       check=True, env=env, cwd=root, timeout=150,
                       stdout=subprocess.DEVNULL)
        return outdir / "model.ckpt"

    def _pick_forecast_inputs(self, pipeline) -> list:
        """Distinct lookback windows of the standardized series, the input
        ``s2ip forecast`` builds from the newest rows."""
        frame = pipeline.frame
        if pipeline.standardizer is not None:
            frame = pipeline.standardizer.transform(frame)
        lookback = self.config["window.lookback"]
        picks = []
        for _ in range(FORECASTS_PER_ROUND):
            channel = int(self.rng.integers(frame.n_channels))
            end = int(self.rng.integers(lookback, frame.length + 1))
            picks.append((channel, frame.channel(channel)[end - lookback:end]))
        return picks

    def _evaluate(self, model, pipeline, config, dump_path):
        return metrics.evaluate_model(model, pipeline.test_windows,
                                      mode=config["eval.mode"],
                                      seasonality=config["eval.seasonality"],
                                      dump_path=dump_path)

    def _setup(self):
        model = training.load_checkpoint(self.checkpoint)
        pipeline = harness.build_pipeline(self.config, self.seed)
        return pipeline, model

    def round(self, m: Measurement) -> None:
        self.on_phase("setup")
        pipeline, model = _timed_setup(self._setup, self.gauge, m)
        self.on_phase("run")
        gauge = self.gauge
        if not self.forecast_inputs:
            self.forecast_inputs = self._pick_forecast_inputs(pipeline)
        self.n_test = n = len(pipeline.test_windows)
        m.attempted += n
        with _metered(self.timer, gauge, self.forecast_split) as busy:
            try:
                report = self._evaluate(model, pipeline, self.config,
                                        self.dump)
            except Exception as exc:  # every window of the call counts as failed
                report = None
                m.fail(n, f"{type(exc).__name__}: {exc}")
        units = 0
        if report is not None:
            if math.isfinite(report.mse) and math.isfinite(report.mae):
                units = n
                m.outputs.append((report.mse, report.mae))
            else:
                m.fail(n, f"non-finite test metrics {report.mse}, {report.mae}")
        # each run of FORECAST_SPLIT forecasts is a segment of the meter,
        # and its samples are scaled by the segment's reading
        latencies, wall_latencies, segment = [], [], []
        meter = Meter(gauge)
        for i, (channel, x) in enumerate(self.forecast_inputs, start=1):
            m.attempted += 1
            start = time.perf_counter()
            try:
                result = model.forward_forecast(x, channel)
                elapsed = time.perf_counter() - start
                if np.all(np.isfinite(result.forecast)):
                    segment.append(elapsed * 1e3)
                else:
                    m.fail(1, "non-finite forecast")
            except Exception as exc:
                m.fail(1, f"{type(exc).__name__}: {exc}")
            if i % FORECAST_SPLIT == 0 or i == len(self.forecast_inputs):
                wall, scaled = meter.split()
                latencies += [s * scaled / wall for s in segment]
                wall_latencies += segment
                segment = []
        m.rounds.append(Round(units, busy.scaled_s, latencies, busy.wall_s,
                              wall_latencies))

    def _dump_check(self, m: Measurement) -> Check:
        with open(self.dump, newline="", encoding="utf-8") as fh:
            mses = [float(row["mse"]) for row in csv.DictReader(fh)]
        expected = m.outputs[-1][0] if m.outputs else float("nan")
        ok = (len(mses) == self.n_test
              and math.isclose(float(np.mean(mses)), expected, rel_tol=1e-12))
        return Check("per_window_dump", ok,
                     f"{len(mses)} rows, mean mse {float(np.mean(mses))!r}, "
                     f"report mse {expected!r}")

    def checks(self, m: Measurement) -> list[Check]:
        model = training.load_checkpoint(self.checkpoint)
        pipeline = harness.build_pipeline(self.check_config, CHECK_SEED)
        report = self._evaluate(model, pipeline, self.check_config, None)
        values = {"test_mse": report.mse, "test_mae": report.mae}
        return ([_same_outputs(m), self._dump_check(m)]
                + _reference_checks(self.name, values))


TRAIN_LENGTH = 785      # 704 training windows: 22 full batches of 32
TRAIN_STL_LENGTH = 611  # 4 channels, 992 training windows: 31 batches
INFER_LENGTH = 2000     # the default split: 562 test windows


def make_workload(name: str, seed: int, workdir: Path, root: Path, timer):
    """``timer`` is the installed ``StepTimer``."""
    if name == "train":
        return TrainWorkload(name, TRAIN_CONFIG, TRAIN_LENGTH, 2, seed,
                             workdir, timer)
    if name == "train-stl":
        return TrainWorkload(name, TRAIN_STL_CONFIG, TRAIN_STL_LENGTH, 4,
                             seed, workdir, timer)
    if name == "infer":
        return InferWorkload(name, {}, INFER_LENGTH, 2, seed, workdir, root,
                             timer)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train", "infer", "train-stl")
