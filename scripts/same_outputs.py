"""Compare the numbers and artifacts of a parent revision and this checkout.

    python3 scripts/same_outputs.py --parent HEAD [--out SAME.json]

Run from the root of a source checkout. The *change* side is this
checkout's working tree; the *parent* side is ``--parent``, unpacked with
``git archive`` as ``bench_pairs.py`` does. Each side runs this script with
``--collect`` in a child process that imports ``s2ip`` from that side's
``src``, and records:

- for each of :data:`STEP_CONFIGS`, over 3 training steps on the first
  three training batches: the loss, every gradient before clipping, and
  the forecasts of the test windows after the step's Adam update, made by
  ``model.forward`` over chunks of ``FORECAST_CHUNK`` windows as
  evaluation makes them, so revisions with different forecast methods
  compare alike; and the forecasts of the first :data:`SINGLE_WINDOWS`
  test windows, each from its own ``forward_forecast`` call on a
  ``(lookback,)`` window;
- the sha256 of the CSVs that :func:`write_data` makes, and of every
  artifact that each of :data:`ARTIFACT_CONFIGS` writes with its own
  commands; a config's ``evaluate``, ``forecast`` and ``export-embeddings``
  read the checkpoint that its own ``train``, or the named config's, wrote.
  The ``train`` of :data:`SERIAL_TRAIN` runs with ``model.FORECAST_THREADS``
  at 1, so every revision takes serial steps there and the commands after
  it read one fixed checkpoint, with the threads left as they are.

Per array the report reads ``equal`` or the largest difference in ulps and
in relative terms; per file it gives both sides' sha256. The exit code is 0
only when everything is equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, SIDES, unpack

STEPS = 3
SINGLE_WINDOWS = 16     # test windows forecast one call each, per step
# the default model; STL with per-patch pooling and twice the prompts; and
# the policy that trains every backbone weight
STEP_CONFIGS = {
    "default": {},
    "stl": {"decomposition.method": "stl", "prompt.pooling": "per_patch",
            "prompt.k": 8},
    "all-trainable": {"backbone.train_attention": True,
                      "backbone.train_ffn": True},
}
# the tiny run of acceptance criterion 12
TINY = {"synthetic.length": 400, "window.lookback": 32, "window.horizon": 8,
        "patch.length": 8, "patch.stride": 4, "decomposition.period": 8,
        "decomposition.trend_window": 9, "backbone.embed_dim": 16,
        "backbone.layers": 1, "backbone.heads": 2, "backbone.max_seq_len": 16,
        "prompt.k": 2, "prompt.anchors": 8, "prompt.vocab_size": 50,
        "train.epochs": 2}
# a 785-row default run with a validation split that holds windows
DEFAULT_785 = {"synthetic.length": 785, "train.epochs": 1,
               "split.train": 0.6, "split.val": 0.2, "split.test": 0.2}
ALL_COMMANDS = ("train", "evaluate", "forecast", "export-embeddings",
                "ablate")
CSV_COMMANDS = ("train", "evaluate", "forecast")
# name: (overrides, commands, the config whose checkpoint the commands read,
# or None for the one their own ``train`` writes). A ``data.path`` names a
# file of write_data's directory. The 785-row run, from memory, from the CSV
# gen-data writes for it, and from that CSV with ISO-8601 timestamps; the
# tiny run; and the tiny run scored by the short-horizon metric suite, which
# reaches only evaluate and ablate
ARTIFACT_CONFIGS = {
    "default-785": (DEFAULT_785, ALL_COMMANDS, None),
    "csv-785": ({**DEFAULT_785, "data.path": "synthetic.csv"}, CSV_COMMANDS,
                None),
    "iso-785": ({**DEFAULT_785, "data.path": "synthetic-iso.csv"},
                CSV_COMMANDS, None),
    "tiny": (TINY, ALL_COMMANDS, None),
    "tiny-short": ({**TINY, "eval.mode": "short", "eval.seasonality": 8},
                   ("evaluate", "ablate"), "tiny"),
    "serial-785": (DEFAULT_785, ALL_COMMANDS[:4], None),
}
SERIAL_TRAIN = frozenset({"serial-785"})
ISO_START = datetime(2016, 7, 1)
SEED = 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision of the parent side (default HEAD)")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--collect", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one side, in its own process
# ---------------------------------------------------------------------------

def step_arrays(values: dict) -> dict[str, np.ndarray]:
    """Loss, gradients, chunk forecasts and single-window forecasts of
    :data:`STEPS` training steps."""
    from s2ip import harness
    from s2ip.autodiff import Tape, backward
    from s2ip.config import RunConfig
    from s2ip.model import FORECAST_CHUNK
    from s2ip.training import AdamState, adam_step, clip_gradients

    config = RunConfig(dict(values))
    pipeline = harness.build_pipeline(config, SEED)
    model = harness.build_model(config, pipeline.frame.n_channels, SEED)
    train_config = config.train_config(SEED)
    named = model.named_parameters()
    state = AdamState(named)
    channels, inputs, _ = zip(*pipeline.test_windows)
    x, channels = np.stack(inputs), np.array(channels)
    out = {}
    for step in range(STEPS):
        size = train_config.batch_size
        batch = pipeline.train_windows[step * size:(step + 1) * size]
        with Tape():
            loss = model.joint_loss(batch)
        backward(loss)
        out[f"step{step}/loss"] = np.array(loss.item())
        for name, tensor in named:
            if tensor.grad is not None:
                out[f"step{step}/grad/{name}"] = tensor.grad.copy()
        clip_gradients(named, train_config.clip_norm)
        adam_step(named, state, train_config)
        out[f"step{step}/forecast"] = np.concatenate([
            model.forward(x[i:i + FORECAST_CHUNK],
                          channels[i:i + FORECAST_CHUNK]).forecast.data
            for i in range(0, len(x), FORECAST_CHUNK)])
        out[f"step{step}/single"] = np.stack([
            model.forward_forecast(x[i], channels[i]).forecast
            for i in range(SINGLE_WINDOWS)])
    return out


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_data(datadir: Path) -> dict[str, str]:
    """Write the CSV that ``gen-data`` makes for the 785-row run, and a
    copy whose timestamp column counts hours from :data:`ISO_START` in
    ISO-8601; returns their sha256 by file name."""
    from s2ip import harness
    from s2ip.config import RunConfig

    path = Path(harness.run("gen-data", RunConfig(dict(DEFAULT_785)), SEED,
                            str(datadir))[0])
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    iso = datadir / "synthetic-iso.csv"
    iso.write_text(header + "".join(
        f"{ISO_START + timedelta(hours=i)},{row.partition(',')[2]}"
        for i, row in enumerate(rows)), encoding="utf-8")
    return {p.name: sha256(p) for p in (path, iso)}


def artifact_hashes(values: dict, commands, workdir: Path,
                    checkpoint: str | None = None,
                    serial_train: bool = False) -> dict[str, str]:
    """sha256 of every file ``commands`` write, by file name; with
    ``serial_train``, ``train`` runs on one thread."""
    from s2ip import harness
    from s2ip import model as model_module
    from s2ip.config import RunConfig

    config = RunConfig(dict(values))
    hashes = {}
    threads = model_module.FORECAST_THREADS
    for command in commands:
        if serial_train and command == "train":
            model_module.FORECAST_THREADS = 1
        try:
            paths = harness.run(command, config, SEED, str(workdir),
                                checkpoint)
        finally:
            model_module.FORECAST_THREADS = threads
        for path in paths:
            hashes[Path(path).name] = sha256(path)
    return hashes


def collect(dest: Path) -> None:
    """Write this side's arrays to ``dest``.npz and its file hashes to
    ``dest``.json."""
    arrays = {f"{name}/{key}": value
              for name, values in STEP_CONFIGS.items()
              for key, value in step_arrays(values).items()}
    workdir = {name: dest.parent / f"{dest.name}-{name}"
               for name in ("data", *ARTIFACT_CONFIGS)}
    files = {f"data/{file}": digest
             for file, digest in write_data(workdir["data"]).items()}
    for name, (values, commands, source) in ARTIFACT_CONFIGS.items():
        if "data.path" in values:
            values = {**values,
                      "data.path": str(workdir["data"] / values["data.path"])}
        checkpoint = source and str(workdir[source] / "model.ckpt")
        hashes = artifact_hashes(values, commands, workdir[name], checkpoint,
                                 name in SERIAL_TRAIN)
        for file, digest in hashes.items():
            files[f"{name}/{file}"] = digest
    np.savez(dest.with_suffix(".npz"), **arrays)
    dest.with_suffix(".json").write_text(json.dumps(files, sort_keys=True))


def read_side(dest: Path) -> tuple[dict, dict]:
    """The arrays and file hashes that :func:`collect` wrote to ``dest``."""
    with np.load(dest.with_suffix(".npz"), allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    return arrays, json.loads(dest.with_suffix(".json").read_text())


def run_side(checkout: Path, dest: Path) -> tuple[dict, dict]:
    """:func:`collect` in a child process that imports ``s2ip`` from
    ``checkout``; returns its arrays and file hashes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--collect", str(dest)], cwd=dest.parent, env=env,
                   check=True)
    return read_side(dest)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def difference(a: np.ndarray, b: np.ndarray):
    """``"equal"``, or the largest gap between ``a`` and ``b``: absolute,
    relative to the largest magnitude in either array, and in ulps of that
    magnitude. Measured against each entry instead, a gradient that is
    zero up to rounding would read ulp moves as huge relative ones."""
    if a.shape != b.shape:
        return {"shape": [list(a.shape), list(b.shape)]}
    if np.array_equal(a, b, equal_nan=True):
        return "equal"
    gap = float(np.nanmax(np.abs(a - b)))
    scale = float(max(np.nanmax(np.abs(a)), np.nanmax(np.abs(b))))
    return {"max_abs": gap, "max_rel": gap / scale,
            "max_ulps": gap / float(np.spacing(scale))}


def compare(parent: tuple[dict, dict], change: tuple[dict, dict]) -> dict:
    """Per array :func:`difference` (or which side lacks it), per file both
    sides' sha256, and whether everything is equal."""
    (parent_arrays, parent_files), (change_arrays, change_files) = parent, change
    arrays = {}
    for name in sorted(set(parent_arrays) | set(change_arrays)):
        if name not in change_arrays:
            arrays[name] = "only in parent"
        elif name not in parent_arrays:
            arrays[name] = "only in change"
        else:
            arrays[name] = difference(parent_arrays[name], change_arrays[name])
    files = {name: {"parent": parent_files.get(name),
                    "change": change_files.get(name)}
             for name in sorted(set(parent_files) | set(change_files))}
    equal = (all(v == "equal" for v in arrays.values())
             and all(f["parent"] == f["change"] for f in files.values()))
    return {"equal": equal, "arrays": arrays, "files": files}


def report_lines(report: dict) -> list[str]:
    lines = []
    for name, diff in report["arrays"].items():
        if isinstance(diff, dict) and "max_ulps" in diff:
            diff = (f"{diff['max_ulps']:.3g} ulps, rel {diff['max_rel']:.3g},"
                    f" abs {diff['max_abs']:.3g}")
        lines.append(f"{name}: {diff}")
    for name, sides in report["files"].items():
        same = sides["parent"] == sides["change"]
        lines.append(f"{name}: {'equal' if same else 'differs'} "
                     f"{sides['parent']} {sides['change']}")
    lines.append("all equal" if report["equal"] else "outputs differ")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.collect:
        collect(Path(args.collect))
        return 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": ROOT}
        checkouts["parent"].mkdir()
        sha = unpack(args.parent, checkouts["parent"])
        results = {side: run_side(checkouts[side], Path(tmp) / side)
                   for side in SIDES}
    report = {"parent": sha, **compare(results["parent"], results["change"])}
    print("\n".join(report_lines(report)))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True)
                                  + "\n")
    return 0 if report["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
