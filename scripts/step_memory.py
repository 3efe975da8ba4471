"""Memory of one training step, read with tracemalloc.

    python3 scripts/step_memory.py [--config PATH]

Run from the root of a source checkout; the program is imported from
``src/``. For one training step of the given configuration (the default one
when ``--config`` is omitted), on its first training windows at its batch
size, prints the memory live once ``joint_loss`` has recorded the forward,
the peak through ``joint_loss`` (the forward's own peak), the peak through
``backward`` and the number of tape nodes, for the serial step and for the
step split over two threads (tape nodes per share, the caller's first);
then the peak of one tape-free
``forward_forecast`` chunk (``model.FORECAST_CHUNK`` test windows, the
anchors already derived), and of one ``forward_forecast`` call over twice
as many windows split over two threads, whose chunks are live at once;
and the peak of one tape-free ``forward`` over ``model.FORECAST_CHUNK``
and over 16 windows, per window and as a multiple of one feed-forward
hidden activation of that many windows, so chunk sizes compare alike.
Every figure is tracemalloc's (Python objects and
numpy buffers), counted from just before the call it measures, so the
model's parameters are not in them. Stdlib and ``s2ip`` only.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = float(1 << 20)
KIB = float(1 << 10)
BASE_CHUNK = 16     # the chunk size the forward peak is also read at


def traced_peak(fn, *args) -> int:
    """tracemalloc's peak, in bytes, through ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_step(model, batch, threads: int) -> dict:
    """Memory and tape nodes of one step of ``model`` on ``batch`` with
    ``model.FORECAST_THREADS`` set to ``threads``; the gradients are
    cleared first and after."""
    from s2ip import model as model_module
    from s2ip.autodiff import Tape, backward

    named = model.named_parameters()
    for _, tensor in named:
        tensor.grad = None
    saved, model_module.FORECAST_THREADS = model_module.FORECAST_THREADS, threads
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = model.joint_loss(batch)
        live, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        model_module.FORECAST_THREADS = saved
        for _, tensor in named:
            tensor.grad = None
    shares = [tape] + [part.tape for part in (tape.shares or (0, ()))[1]]
    return {"live_mib": live / MIB, "forward_peak_mib": forward_peak / MIB,
            "peak_mib": peak / MIB,
            "tape_nodes": [len(share) for share in shares]}


def step_memory(config) -> dict:
    """``live_mib`` after ``joint_loss``, ``forward_peak_mib`` through it,
    ``peak_mib`` through ``backward`` and ``tape_nodes`` for one serial
    step of ``config``, a ``RunConfig``; the same, prefixed ``split_``, for
    the step on two threads, with ``split_tape_nodes`` per share;
    ``forecast_peak_mib`` of one tape-free ``forward_forecast`` chunk and
    ``split_forecast_peak_mib`` of two chunks on two threads; and from
    :func:`forward_peak`, ``chunk_peak_per_window_kib`` and
    ``chunk_peak_hidden`` at ``FORECAST_CHUNK`` windows, and the same
    prefixed ``chunk16_`` at :data:`BASE_CHUNK` windows."""
    import numpy as np

    from s2ip import harness
    from s2ip import model as model_module
    from s2ip.model import FORECAST_CHUNK

    pipeline = harness.build_pipeline(config, 0)
    model = harness.build_model(config, pipeline.frame.n_channels, 0)
    batch = pipeline.train_windows[:config.train_config().batch_size]
    serial = one_step(model, batch, 1)
    serial["tape_nodes"], = serial["tape_nodes"]
    split = {f"split_{key}": value
             for key, value in one_step(model, batch, 2).items()}
    channels, inputs, _ = zip(*pipeline.test_windows[:2 * FORECAST_CHUNK])
    x, channels = np.stack(inputs), np.array(channels)
    model.forward_forecast(x[0], channels[0])  # derives the anchors tape-free
    forecast_peak = traced_peak(model.forward_forecast, x[:FORECAST_CHUNK],
                                channels[:FORECAST_CHUNK])
    threads, model_module.FORECAST_THREADS = model_module.FORECAST_THREADS, 2
    try:
        split_peak = traced_peak(model.forward_forecast, x, channels)
    finally:
        model_module.FORECAST_THREADS = threads
    peaks = {f"{prefix}{key}": value
             for prefix, n in (("chunk_", FORECAST_CHUNK),
                               (f"chunk{BASE_CHUNK}_", BASE_CHUNK))
             for key, value in forward_peak(model, x[:n], channels[:n]).items()}
    return {**serial, **split, "forecast_peak_mib": forecast_peak / MIB,
            "split_forecast_peak_mib": split_peak / MIB, **peaks}


def forward_peak(model, x, channels) -> dict:
    """``peak_per_window_kib`` and ``peak_hidden`` of one tape-free
    ``model.forward`` over the windows ``x``: its peak per window, and as a
    multiple of one feed-forward hidden activation of all its rows."""
    cfg = model.config
    hidden = (len(x) * (cfg.prompt_k + cfg.n_patches)
              * cfg.backbone.ffn_mult * cfg.backbone.embed_dim * 8)
    peak = traced_peak(model.forward, x, channels)
    return {"peak_per_window_kib": peak / len(x) / KIB,
            "peak_hidden": peak / hidden}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="config file (default: defaults)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from s2ip.config import RunConfig, parse_config
    from s2ip.model import FORECAST_CHUNK

    config = parse_config(args.config) if args.config else RunConfig()
    result = step_memory(config)
    rows = [row for prefix, label in (("", ""), ("split_", ", 2 threads"))
            for row in (
                (f"live after joint_loss{label}",
                 f"{result[prefix + 'live_mib']:.2f} MiB"),
                (f"peak through joint_loss{label}",
                 f"{result[prefix + 'forward_peak_mib']:.2f} MiB"),
                (f"peak through backward{label}",
                 f"{result[prefix + 'peak_mib']:.2f} MiB"),
                (f"tape nodes{label}", str(result[prefix + "tape_nodes"])))]
    rows += (("peak of a forecast chunk",
             f"{result['forecast_peak_mib']:.2f} MiB"),
            ("peak of a split forecast",
             f"{result['split_forecast_peak_mib']:.2f} MiB"))
    for prefix, n in (("chunk_", FORECAST_CHUNK),
                      (f"chunk{BASE_CHUNK}_", BASE_CHUNK)):
        rows += ((f"forward peak per window, {n} windows",
                  f"{result[prefix + 'peak_per_window_kib']:.1f} KiB"),
                 (f"forward peak, {n} windows",
                  f"{result[prefix + 'peak_hidden']:.2f} x FFN hidden"))
    for label, value in rows:
        print(f"{label:<37}{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
