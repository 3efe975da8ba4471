"""``compare`` and the per-side run set-up of scripts/bench_pairs.py, on
synthetic pairs and a stand-in child process; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"latency_ms.p50": ("lower", 0.25), "windows_per_s": ("higher", 0.25)}


def run(seed, latency, rate, correct=True):
    return {"seed": seed, "correct": correct, "failed": 0 if correct else 3,
            "metrics": {"latency_ms.p50": latency, "windows_per_s": rate},
            "minor_faults": 100, "kernel_s": 0.1, "user_s": 50.0}


def pairs_of(parent, change, **flags):
    return [{"seed": i, "parent": run(i, *p), "change": run(i, *c, **flags)}
            for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [(1.50 + 0.01 * (i % 3), 1000.0 + i) for i in range(10)]


def test_clear_gain_on_both_metrics():
    change = [(lat - 0.2, rate + 100.0) for lat, rate in PARENT]
    summary = bench_pairs.compare(pairs_of(PARENT, change), METRICS)
    assert summary["wins"] == {"latency_ms.p50": 10, "windows_per_s": 10}
    assert summary["verdict"] == {"latency_ms.p50": "gain",
                                  "windows_per_s": "gain"}
    assert summary["incorrect_runs"] == []


def test_eight_wins_of_ten_is_not_a_gain():
    change = [(lat - 0.2, rate) for lat, rate in PARENT]
    change[3] = (PARENT[3][0] + 0.1, PARENT[3][1])
    change[7] = (PARENT[7][0], PARENT[7][1])  # a tie counts for neither
    summary = bench_pairs.compare(pairs_of(PARENT, change), METRICS)
    assert summary["wins"]["latency_ms.p50"] == 8
    assert summary["verdict"]["latency_ms.p50"] == "unresolved"


def test_nine_wins_with_a_gap_inside_the_parent_iqr_is_not_a_gain():
    parent = [(1.0 + 0.1 * i, 1000.0) for i in range(10)]
    change = [(lat - 0.01, rate) for lat, rate in parent]
    summary = bench_pairs.compare(pairs_of(parent, change), METRICS)
    assert summary["wins"]["latency_ms.p50"] == 10
    assert summary["verdict"]["latency_ms.p50"] == "unresolved"


@pytest.mark.parametrize("factor, expected", [(1.40, "worse"),
                                              (1.20, "unresolved")])
def test_worse_beyond_the_bound(factor, expected):
    change = [(lat * factor, rate / factor) for lat, rate in PARENT]
    summary = bench_pairs.compare(pairs_of(PARENT, change), METRICS)
    assert summary["verdict"] == {"latency_ms.p50": expected,
                                  "windows_per_s": expected}


def test_incorrect_runs_are_listed():
    change = [(lat, rate) for lat, rate in PARENT]
    pairs = pairs_of(PARENT, change)
    pairs[4]["change"] = run(4, *change[4], correct=False)
    summary = bench_pairs.compare(pairs, METRICS)
    assert summary["incorrect_runs"] == [{"side": "change", "seed": 4,
                                          "failed": 3}]


def test_one_pair_is_summarized_but_claims_no_gain():
    summary = bench_pairs.compare(pairs_of([(1.5, 1000.0)], [(1.4, 1010.0)]),
                                  METRICS)
    assert summary["sides"]["parent"]["latency_ms.p50"] == {
        "median": 1.5, "q1": 1.5, "q3": 1.5, "iqr": 0.0}
    assert summary["wins"] == {"latency_ms.p50": 1, "windows_per_s": 1}
    assert summary["verdict"] == {"latency_ms.p50": "unresolved",
                                  "windows_per_s": "unresolved"}


def test_each_side_compiles_into_its_own_bytecode_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    envs = {side: bench_pairs.side_env(tmp_path, side)
            for side in bench_pairs.SIDES}
    prefixes = {Path(env["PYTHONPYCACHEPREFIX"]) for env in envs.values()}
    assert len(prefixes) == 2
    assert all(prefix.parent == tmp_path for prefix in prefixes)
    assert not any("PYTHONDONTWRITEBYTECODE" in env for env in envs.values())


def test_run_once_runs_the_child_in_the_side_env(tmp_path, monkeypatch):
    seen = {}

    def fake_run(command, cwd, env, **kwargs):
        seen.update(command=command, cwd=cwd, env=env)
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": 70.0, "unit": "MiB"}}}
        return bench_pairs.subprocess.CompletedProcess(
            command, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    env = bench_pairs.side_env(tmp_path, "parent")
    run = bench_pairs.run_once(tmp_path, env, "train", 7, 1.0, False)
    assert seen["env"] is env and seen["cwd"] == tmp_path
    assert seen["command"][-6:] == ["--seed", "7", "--seconds", "1.0",
                                    "--trace", "0"]
    assert run["metrics"] == {"peak_rss_mb": 70.0}


def test_src_lines_counts_each_checkout_like_wc(tmp_path):
    counts = {}
    for side, files in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z\n"}),
                        ("change", {"a.py": "x = 1\n", "notes.txt": "1\n2\n"})):
        package = tmp_path / side / "src" / "s2ip"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
        counts[side] = bench_pairs.src_lines(tmp_path / side)
    assert counts == {"parent": 3, "change": 1}


def test_a_core_reading_is_taken_before_each_pair(tmp_path, monkeypatch):
    """Each pair holds one reading of its own, and each workload their
    median and quartiles; the reading's child runs for real, the benchmark
    does not."""
    readings, core_reading = [], bench_pairs.core_reading

    def reading():
        readings.append(core_reading())
        return readings[-1]

    monkeypatch.setattr(bench_pairs, "core_reading", reading)
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, env, workload, seed, seconds, trace:
                        {**run(seed, 1.5, 1000.0),
                         "metrics": {name: 1.0 for name in (
                             "setup_s", "windows_per_s", "latency_ms.p50",
                             "latency_ms.p90", "peak_rss_mb")}})
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--workload", "train", "--pairs", "3",
                             "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["train"]
    assert [pair["cores"] for pair in entry["runs"]] == readings
    for reading in readings:
        assert set(reading) == {"one_thread_s", "two_threads_s", "speedup"}
        assert reading["one_thread_s"] > 0 and reading["two_threads_s"] > 0
        assert reading["speedup"] == pytest.approx(
            reading["one_thread_s"] / reading["two_threads_s"])
    assert entry["cores_speedup"] == bench_pairs.summarize(
        [reading["speedup"] for reading in readings])
