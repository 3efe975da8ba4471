"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 scripts/bench_pairs.py --parent HEAD --workload train \
        --workload infer --pairs 10 --seconds 50 --first-seed 101 \
        --traced 1 --suite --out BENCH_8.json

Run from the root of a source checkout. The *change* side is this checkout's
working tree; the *parent* side is ``--parent``, unpacked with
``git archive`` into a temporary directory. Pair ``i`` runs
``python3 perfbench/run.py --workload W --seed first_seed+i --seconds S
--trace 0`` once per side, the parent first in even pairs and the change
first in odd ones. Each side compiles into its own bytecode cache
(``PYTHONPYCACHEPREFIX``) under the temporary directory, which one discarded
warm-up run per side and workload fills first, so no run reads bytecode
that the other side or an earlier build left behind. Each run's end-to-end
metrics, correctness checks, minor page faults and kernel/user seconds
(``getrusage(RUSAGE_CHILDREN)`` around the child) are recorded; per side
the median and quartiles of every metric, and per metric the pairs the
change won and a verdict, ``gain``, ``worse`` or ``unresolved`` (see
:func:`verdict`); runs whose checks failed are listed, and so is each
side's line count of ``src/s2ip/*.py``. ``--traced N`` adds N traced runs
per side (``--trace 1``), in the same alternating order, with their
per-layer metrics. ``--suite`` runs the tier-1 test suite once per side,
after the pairs, and records its wall seconds and outcome counts. Before
each pair, one reading of core availability is taken in a process of its
own (:func:`core_reading`): a fixed NumPy kernel's time on one thread
against the same work split over two threads. A claim about threads can only
be read next to it, since on a shared machine a second core comes and goes.
Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WARM_UP_SECONDS = 1.0   # a discarded run that fills a side's bytecode cache
MIN_GAIN_PAIRS = 10     # fewer pairs than this support no claimed gain


# the core reading's child: the best of three passes of ``2 * half``
# products on one thread, and of ``half`` on each of two threads, with
# OpenBLAS held to one thread
CORE_PROBE = """
import json, threading, time
import numpy as np
a = np.random.default_rng(0).standard_normal((192, 192))
half = 100

def work(n):
    for _ in range(n):
        np.tanh(a @ a)

def best(run):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)

def split():
    worker = threading.Thread(target=work, args=(half,))
    worker.start()
    work(half)
    worker.join()

work(4)
one, two = best(lambda: work(2 * half)), best(split)
print(json.dumps({"one_thread_s": one, "two_threads_s": two,
                  "speedup": one / two}))
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision of the parent side (default HEAD)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0,
                        help="traced runs per side and workload")
    parser.add_argument("--suite", action="store_true",
                        help="also time one tier-1 test suite run per side")
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def unpack(rev: str, dest: Path) -> str:
    """Unpack ``rev`` of this repository into ``dest``; returns its hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    blob = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            tar.extractall(dest)
    return sha


def side_env(cache_root: Path, side: str) -> dict:
    """The environment of one side's runs: this process's, with bytecode
    read from and written to that side's own cache under ``cache_root``.
    Otherwise what a run compiles at import, and so its peak RSS, depends
    on the ``__pycache__`` directories a checkout happens to hold."""
    env = dict(os.environ)
    env["PYTHONPYCACHEPREFIX"] = str(cache_root / f"pycache-{side}")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(checkout: Path, env: dict, workload: str, seed: int,
             seconds: float, trace: bool) -> dict:
    """One benchmark run in ``checkout``, with the resources it used."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(int(trace))]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(command)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), {})
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "checks": [line for line in lines if line.startswith("check ")],
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "kernel_s": after.ru_stime - before.ru_stime,
        "user_s": after.ru_utime - before.ru_utime,
        "wall_s": wall,
        "env": env,
    }


def core_reading() -> dict:
    """Seconds of :data:`CORE_PROBE`'s kernel on one thread and split over
    two, and their ratio: about 2 while a second core is free, about 1
    while it is not."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CORE_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_suite(checkout: Path, env: dict) -> dict:
    """One run of the tier-1 test suite in ``checkout``: its wall seconds,
    exit code and outcome counts."""
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "pytest", "-q",
               "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {outcome: int(n) for n, outcome in re.findall(
        r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", summary)}
    print(f"suite in {checkout}: {summary}", file=sys.stderr)
    return {"wall_s": wall, "returncode": proc.returncode,
            "passed": counts.get("passed", 0), "counts": counts,
            "summary": summary}


def summarize(values: list[float]) -> dict:
    """Median and quartiles; a single run is its own quartiles."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def verdict(parent: dict, change: dict, wins: int, pairs: int,
            better: str, bound: float) -> str:
    """``gain`` when, over at least ``MIN_GAIN_PAIRS`` pairs, the change won
    at least nine tenths of them and its median is better than the parent's
    by more than the parent's IQR; ``worse`` when its median is worse than
    the parent's by more than ``bound`` times the parent's median; else
    ``unresolved``."""
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (change["median"] - parent["median"])
    if pairs >= MIN_GAIN_PAIRS and 10 * wins >= 9 * pairs \
            and gap > parent["iqr"]:
        return "gain"
    if -gap > bound * abs(parent["median"]):
        return "worse"
    return "unresolved"


def compare(pairs: list[dict], metrics: dict) -> dict:
    """Per side the spread of every metric and resource count; per metric
    how many pairs the change won, the gap between the medians and the
    :func:`verdict`; and the runs whose checks failed. ``metrics`` maps each
    end-to-end metric to its ``(better, bound)`` from BENCHMARK.json."""
    out = {"sides": {}, "wins": {}, "median_gap": {}, "verdict": {},
           "incorrect_runs": [
               {"side": side, "seed": pair[side]["seed"],
                "failed": pair[side]["failed"]}
               for pair in pairs for side in SIDES
               if not pair[side]["correct"]]}
    names = list(metrics) + ["minor_faults", "kernel_s", "user_s"]
    for side in SIDES:
        runs = [pair[side] for pair in pairs]
        out["sides"][side] = {
            name: summarize([run["metrics"].get(name, run.get(name))
                             for run in runs]) for name in names}
    for name, (direction, bound) in metrics.items():
        sign = 1.0 if direction == "higher" else -1.0
        out["wins"][name] = sum(
            sign * (pair["change"]["metrics"][name]
                    - pair["parent"]["metrics"][name]) > 0 for pair in pairs)
        parent, change = (out["sides"][side][name] for side in SIDES)
        out["median_gap"][name] = change["median"] - parent["median"]
        out["verdict"][name] = verdict(parent, change, out["wins"][name],
                                       len(pairs), direction, bound)
    return out


def src_lines(checkout: Path) -> int:
    """Lines in ``checkout``'s ``src/s2ip/*.py``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "s2ip").glob("*.py"))


def machine() -> dict:
    return {"platform": platform.platform(),
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    report = {"parent": None, "pairs": args.pairs, "seconds": args.seconds,
              "machine": machine(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": ROOT}
        checkouts["parent"].mkdir()
        envs = {side: side_env(Path(tmp), side) for side in SIDES}
        report["parent"] = unpack(args.parent, checkouts["parent"])
        report["src_lines"] = {side: src_lines(checkouts[side])
                               for side in SIDES}
        for workload in args.workload:
            for side in SIDES:
                run_once(checkouts[side], envs[side], workload,
                         args.first_seed, WARM_UP_SECONDS, False)
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0],
                        "cores": core_reading()}
                for side in order:
                    pair[side] = run_once(checkouts[side], envs[side],
                                          workload, seed, args.seconds, False)
                    m = pair[side]["metrics"]
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"windows/s {m['windows_per_s']:.1f} p50 "
                          f"{m['latency_ms.p50']:.2f} ms faults "
                          f"{pair[side]['minor_faults']}", file=sys.stderr)
                pairs.append(pair)
            entry = {"runs": pairs, "summary": compare(pairs, metrics),
                     "cores_speedup": summarize(
                         [pair["cores"]["speedup"] for pair in pairs])}
            print(f"{workload} two-thread speedup of the core reading: "
                  f"median {entry['cores_speedup']['median']:.2f}",
                  file=sys.stderr)
            for name, result in entry["summary"]["verdict"].items():
                print(f"{workload} {name}: {result}", file=sys.stderr)
            traced = {side: [] for side in SIDES}
            for i in range(args.traced):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    traced[side].append(run_once(
                        checkouts[side], envs[side], workload,
                        args.first_seed + i, args.seconds, True))
            if args.traced:
                entry["traced"] = traced
            report["workloads"][workload] = entry
            # written after every workload, so a cut session keeps its pairs
            write_report(args.out, report)
        if args.suite:
            report["suite"] = {side: run_suite(checkouts[side], envs[side])
                               for side in SIDES}
            write_report(args.out, report)
    return 0


def write_report(path: str, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
