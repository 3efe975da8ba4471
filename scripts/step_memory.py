"""Memory of one training step, read with tracemalloc.

    python3 scripts/step_memory.py [--config PATH]

Run from the root of a source checkout; the program is imported from
``src/``. For one training step of the given configuration (the default one
when ``--config`` is omitted), on its first training windows at its batch
size, prints the memory live once ``joint_loss`` has recorded the forward,
the peak through ``joint_loss`` (the forward's own peak), the peak through
``backward`` and the number of tape nodes; then the peak of one tape-free
``predict`` chunk (``model.FORECAST_CHUNK`` test windows, the anchors
already derived). Every figure is tracemalloc's (Python objects and numpy
buffers), counted from just before the call it measures, so the model's
parameters are not in them. Stdlib and ``s2ip`` only.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = float(1 << 20)


def step_memory(config) -> dict:
    """``live_mib`` after ``joint_loss``, ``forward_peak_mib`` through it,
    ``peak_mib`` through ``backward`` and ``tape_nodes`` for one step of
    ``config``, a ``RunConfig``, and ``predict_peak_mib`` of one tape-free
    ``predict`` chunk."""
    import numpy as np

    from s2ip import harness
    from s2ip.autodiff import Tape, backward
    from s2ip.model import FORECAST_CHUNK

    pipeline = harness.build_pipeline(config, 0)
    model = harness.build_model(config, pipeline.frame.n_channels, 0)
    batch = pipeline.train_windows[:config.train_config().batch_size]
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
    channels, inputs, _ = zip(*pipeline.test_windows[:FORECAST_CHUNK])
    x, channels = np.stack(inputs), np.array(channels)
    model.predict(x[:1], channels[:1])  # derives the anchors tape-free
    tracemalloc.start()
    try:
        model.predict(x, channels)
        predict_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"live_mib": live / MIB, "forward_peak_mib": forward_peak / MIB,
            "peak_mib": peak / MIB, "tape_nodes": len(tape),
            "predict_peak_mib": predict_peak / MIB}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="config file (default: defaults)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from s2ip.config import RunConfig, parse_config

    config = parse_config(args.config) if args.config else RunConfig()
    result = step_memory(config)
    rows = (("live after joint_loss", f"{result['live_mib']:.2f} MiB"),
            ("peak through joint_loss", f"{result['forward_peak_mib']:.2f} MiB"),
            ("peak through backward", f"{result['peak_mib']:.2f} MiB"),
            ("tape nodes", str(result["tape_nodes"])),
            ("peak of a predict chunk", f"{result['predict_peak_mib']:.2f} MiB"))
    for label, value in rows:
        print(f"{label:<25}{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
