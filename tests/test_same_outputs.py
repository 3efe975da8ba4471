"""``compare`` of scripts/same_outputs.py on made-up result sets, and
``collect`` run twice in this process on tiny configs; no child process
runs."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def same_outputs():
    sys.path.insert(0, str(SCRIPTS))  # the script imports bench_pairs
    try:
        spec = importlib.util.spec_from_file_location(
            "same_outputs", SCRIPTS / "same_outputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


def results(seed=0):
    rng = np.random.default_rng(seed)
    arrays = {"default/step0/loss": np.array(0.25),
              "default/step0/grad/revin.gamma": rng.normal(size=2),
              "default/step0/forecast": rng.normal(size=(5, 3))}
    files = {"tiny/model.ckpt": "ab" * 32, "tiny/metrics.csv": "cd" * 32}
    return arrays, files


def copied(side):
    arrays, files = side
    return {k: v.copy() for k, v in arrays.items()}, dict(files)


def test_equal_result_sets_compare_equal(same_outputs):
    parent = results()
    report = same_outputs.compare(parent, copied(parent))
    assert report["equal"]
    assert set(report["arrays"].values()) == {"equal"}
    assert all(f["parent"] == f["change"] for f in report["files"].values())
    assert same_outputs.report_lines(report)[-1] == "all equal"


def test_report_names_a_perturbed_array_and_a_changed_file(same_outputs):
    parent = results()
    arrays, files = copied(parent)
    forecast = arrays["default/step0/forecast"]
    i = np.unravel_index(np.argmax(np.abs(forecast)), forecast.shape)
    forecast[i] = np.nextafter(forecast[i], np.inf)  # one ulp at the largest
    files["tiny/metrics.csv"] = "ef" * 32
    report = same_outputs.compare(parent, (arrays, files))
    assert not report["equal"]
    diff = report["arrays"]["default/step0/forecast"]
    assert diff["max_ulps"] == 1.0
    assert diff["max_abs"] == np.spacing(np.abs(parent[0]["default/step0/forecast"][i]))
    assert report["arrays"]["default/step0/loss"] == "equal"
    assert report["files"]["tiny/metrics.csv"] == {"parent": "cd" * 32,
                                                  "change": "ef" * 32}
    lines = same_outputs.report_lines(report)
    assert any(line.startswith("default/step0/forecast: 1 ulps") for line in lines)
    assert any(line.startswith("tiny/metrics.csv: differs") for line in lines)
    assert lines[-1] == "outputs differ"


def test_missing_and_reshaped_arrays_are_named(same_outputs):
    parent = results()
    arrays, files = copied(parent)
    del arrays["default/step0/loss"]
    arrays["default/step0/forecast"] = arrays["default/step0/forecast"][:4]
    arrays["stl/step0/loss"] = np.array(1.0)
    report = same_outputs.compare(parent, (arrays, files))
    assert not report["equal"]
    assert report["arrays"]["default/step0/loss"] == "only in parent"
    assert report["arrays"]["stl/step0/loss"] == "only in change"
    assert report["arrays"]["default/step0/forecast"] == {"shape": [[5, 3], [4, 3]]}


def test_collect_twice_compares_equal_until_a_stored_array_changes(
        same_outputs, tmp_path, monkeypatch):
    tiny = {**same_outputs.TINY, "train.epochs": 1}
    monkeypatch.setattr(same_outputs, "STEP_CONFIGS", {"tiny": tiny})
    monkeypatch.setattr(same_outputs, "ARTIFACT_CONFIGS", {
        "tiny": (tiny, ("train", "evaluate"), None),
        "tiny-short": ({**tiny, "eval.mode": "short", "eval.seasonality": 8},
                       ("evaluate",), "tiny"),
        "tiny-iso": ({**tiny, "data.path": "synthetic-iso.csv"},
                     ("train", "forecast"), None),
    })
    for side in ("parent", "change"):
        same_outputs.collect(tmp_path / side)
    parent = same_outputs.read_side(tmp_path / "parent")
    report = same_outputs.compare(parent,
                                  same_outputs.read_side(tmp_path / "change"))
    assert report["equal"], same_outputs.report_lines(report)
    assert {"tiny/step2/forecast", "tiny/step0/loss"} <= set(report["arrays"])
    assert set(report["files"]) == {
        "data/synthetic.csv", "data/synthetic-iso.csv", "tiny/model.ckpt",
        "tiny/train_report.csv", "tiny/metrics.csv",
        "tiny/per_window_metrics.csv", "tiny-short/metrics.csv",
        "tiny-short/per_window_metrics.csv", "tiny-iso/model.ckpt",
        "tiny-iso/train_report.csv", "tiny-iso/forecast.csv"}
    assert (report["files"]["tiny/metrics.csv"]
            != report["files"]["tiny-short/metrics.csv"])
    # the 785 hourly rows end at 2016-08-02 16:00
    forecast = tmp_path / "change-tiny-iso" / "forecast.csv"
    assert forecast.read_text().splitlines()[1].startswith(
        "2016-08-02 17:00:00,ch1,")

    npz = (tmp_path / "change").with_suffix(".npz")
    with np.load(npz) as stored:
        arrays = {name: stored[name] for name in stored.files}
    arrays["tiny/step2/forecast"].flat[0] = np.nextafter(
        arrays["tiny/step2/forecast"].flat[0], np.inf)
    np.savez(npz, **arrays)
    report = same_outputs.compare(parent,
                                  same_outputs.read_side(tmp_path / "change"))
    assert not report["equal"]
    assert [name for name, diff in report["arrays"].items()
            if diff != "equal"] == ["tiny/step2/forecast"]
    assert all(f["parent"] == f["change"] for f in report["files"].values())


def test_a_serial_train_runs_on_one_thread_and_the_rest_as_set(
        same_outputs, tmp_path, monkeypatch):
    import s2ip.model as model_module

    seen = []
    joint_loss, forward_forecast = (model_module.ForecastModel.joint_loss,
                                    model_module.ForecastModel.forward_forecast)
    monkeypatch.setattr(model_module.ForecastModel, "joint_loss",
                        lambda *args: seen.append(("train", model_module.FORECAST_THREADS))
                        or joint_loss(*args))
    monkeypatch.setattr(model_module.ForecastModel, "forward_forecast",
                        lambda *args: seen.append(("forecast", model_module.FORECAST_THREADS))
                        or forward_forecast(*args))
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 2)
    tiny = {**same_outputs.TINY, "train.epochs": 1}
    hashes = same_outputs.artifact_hashes(tiny, ("train", "evaluate"), tmp_path,
                                          serial_train=True)
    assert {"model.ckpt", "metrics.csv"} <= set(hashes)
    assert ("train", 1) in seen and ("train", 2) not in seen
    assert seen[-1] == ("forecast", 2) and model_module.FORECAST_THREADS == 2
