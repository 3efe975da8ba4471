"""``compare`` of scripts/bench_pairs.py on synthetic pairs; nothing runs."""

import importlib.util
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
