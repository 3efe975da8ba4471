"""One benchmark run: rounds of set-up and timed work for the requested
time, then the output checks, then metrics from what was measured."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from s2ip import prompt
from spans import (BACKWARD, COUNTS, NODE_BUCKETS, NODE_PLACES, SETUP_SPANS,
                   SPAN_NAMES, StepTimer, Tracer)
from workloads import Check, Measurement, make_workload

MIN_SAMPLES = 110        # latency samples: at least ten beyond p90
MIN_ROUNDS = 2           # timed rounds, after the warm-up round
MAX_MEASURE_S = 120.0    # stop adding rounds after this, whatever the count
UNTRACED_SHARE = 1 / 3   # of a traced run, the part measured untraced

# spans that must fire on every workload, and on the ones that train
COMMON_SPANS = frozenset({
    "harness.build_pipeline", "series.load_csv", "model.forward_forecast",
    "model.tokenize_and_embed", "preprocess.decompose", "preprocess.patch",
    "prompt.derive_anchors", "prompt.retrieve_topk", "backbone.forward",
    "autodiff.matmul", "autodiff.layer_norm", "autodiff.softmax",
    "autodiff.gelu",
})
TRAIN_SPANS = COMMON_SPANS | {
    "harness.build_model", "training.save_checkpoint", "model.joint_loss",
    "prompt.alignment_term", BACKWARD, "training.clip_gradients",
    "training.adam_step",
} | {f"{BACKWARD}.{b}" for b in NODE_BUCKETS if b != "other"} | {
    f"{BACKWARD}.{p}" for p in NODE_PLACES}
EXPECTED_SPANS = {
    "train": TRAIN_SPANS,
    "train-stl": TRAIN_SPANS,
    "infer": COMMON_SPANS | {"training.load_checkpoint",
                             "metrics.evaluate_model"},
}
# the names each end-to-end metric has on a workload, for the report lines
WORKLOAD_NAMES = {
    "step": {"windows_per_s": "train.windows_per_s",
             "latency_ms.p50": "train.step_ms.p50",
             "latency_ms.p90": "train.step_ms.p90"},
    "window": {"windows_per_s": "eval.windows_per_s",
               "latency_ms.p50": "forecast.latency_ms.p50",
               "latency_ms.p90": "forecast.latency_ms.p90"},
}


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict                      # name -> (value, unit)
    report_lines: list = field(default_factory=list)

    def as_json(self) -> dict:
        return {"correct": self.failed == 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


def measure_rounds(workload, seconds: float, min_samples: int) -> Measurement:
    """Run rounds until ``seconds`` have passed and the steady rounds hold
    ``min_samples`` latency samples; a round that has begun completes."""
    m = Measurement()
    start = time.perf_counter()
    while True:
        workload.round(m)
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (
                elapsed >= seconds and len(m.timed_rounds()) >= MIN_ROUNDS
                and len(m.steady_samples()) >= min_samples):
            return m


def latency_stats(samples_ms: list) -> tuple[float, float]:
    if len(samples_ms) < 2:
        raise SystemExit(f"error: {len(samples_ms)} successful operations; "
                         "too few for latency percentiles")
    return (statistics.median(samples_ms),
            statistics.quantiles(samples_ms, n=10)[8])


def _timings(m: Measurement, wall: bool) -> dict:
    p50, p90 = latency_stats(m.steady_samples(wall))
    return {"setup_s": m.steady_setup_s(wall),
            "windows_per_s": m.steady_rate(wall),
            "latency_ms.p50": p50, "latency_ms.p90": p90}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        root: Path) -> Result:
    tracer = None
    if trace:
        # installed first, so the step timer's gauge readings stay outside
        # the spans; it records nothing until its phase is set
        tracer = Tracer()
        tracer.install()
    timer = StepTimer()
    timer.install()
    workload = make_workload(name, seed, workdir, root, timer)
    if tracer is not None:
        return _traced_run(name, workload, seconds, tracer)
    m = measure_rounds(workload, seconds, MIN_SAMPLES)
    checks = _checks(workload, m)
    scaled, wall = _timings(m, False), _timings(m, True)
    units = {"setup_s": "s", "windows_per_s": "1/s", "latency_ms.p50": "ms",
             "latency_ms.p90": "ms"}
    metrics = {metric: (value, units[metric])
               for metric, value in scaled.items()}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    result = _result(m, checks, metrics)
    names = WORKLOAD_NAMES[workload.unit]
    timed = len(m.timed_rounds())
    for metric, (value, unit) in metrics.items():
        line = f"{names.get(metric, metric)} {value!r} {unit}"
        if metric in wall:
            line += f" (wall {wall[metric]!r})"
        if metric.startswith("latency_ms"):
            line += (f" ({len(m.steady_samples())} samples of {timed} "
                     "rounds)")
        elif metric == "setup_s":
            line += f" (median of {timed})"
        elif metric == "windows_per_s":
            line += f" (median of {timed} rounds)"
        result.report_lines.append(line)
    result.report_lines.append(
        "times are scaled to the gauge's reference speed; wall times in "
        "brackets")
    attempted, failed = result.attempted, result.failed
    result.report_lines.append(f"fail_share {failed / attempted!r} "
                               f"({failed} of {attempted})")
    return result


def _checks(workload, m: Measurement) -> list:
    try:
        return workload.checks(m)
    except Exception as exc:  # a check that raises fails, it is not skipped
        return [Check("checks", False, f"{type(exc).__name__}: {exc}")]


def _result(m: Measurement, checks: list, metrics: dict) -> Result:
    attempted = m.attempted + len(checks)
    failed = m.failed + sum(not c.ok for c in checks)
    result = Result(attempted, failed, metrics)
    for c in checks:
        result.report_lines.append(
            f"check {c.name} {'ok' if c.ok else 'FAILED'}: {c.detail}")
    for error in m.errors:
        result.report_lines.append(f"error {error}")
    return result


def _traced_run(name: str, workload, seconds: float, tracer) -> Result:
    """Measure a share of the time untraced (the span wrappers installed but
    recording nothing), then measure again with spans on; the two give the
    tracing overhead. Span times are wall times."""
    # no gauge readings inside evaluate_model's span, where they would count
    # as its self time; none in the untraced part either, so that the two
    # parts differ only by the spans
    workload.forecast_split = 0
    plain = measure_rounds(workload, seconds * UNTRACED_SHARE, 1)
    workload.on_phase = lambda phase: setattr(tracer, "phase", phase)
    degenerate = prompt.degenerate_score_events()
    traced = measure_rounds(workload, seconds * (1 - UNTRACED_SHARE), 1)
    workload.on_phase = lambda phase: None
    tracer.phase = None
    degenerate = prompt.degenerate_score_events() - degenerate

    # spans are divided by the work done: steps, or evaluated and forecast
    # windows; set-up spans by the number of set-ups
    units = sum(len(r.latencies_ms) + (r.units if workload.unit == "window"
                                       else 0) for r in traced.rounds)
    setups = len(traced.setups_s)
    summary = tracer.summary()
    metrics = {}
    missing = []
    for span in SPAN_NAMES + tuple(f"{BACKWARD}.{b}" for b in NODE_BUCKETS) \
            + tuple(f"{BACKWARD}.{p}" for p in NODE_PLACES):
        phase, per = (("setup", setups) if span in SETUP_SPANS
                      else ("run", units))
        inclusive, self_s, calls = summary.get((phase, span), (0.0, 0.0, 0))
        if calls == 0 and span in EXPECTED_SPANS[name]:
            missing.append(span)
        metrics[f"{span}.ms"] = (inclusive * 1e3 / per, "ms")
        if span in SPAN_NAMES:
            metrics[f"{span}.self_ms"] = (self_s * 1e3 / per, "ms")
        metrics[f"{span}.calls"] = (calls / per, "count")
    steps = max(units, 1) if workload.unit == "step" else 1
    for count in COUNTS:
        metrics[count] = (tracer.counts[count] / steps, "count")
    computed = tracer.counts["autodiff.backward.grads_computed"]
    kept = tracer.counts["autodiff.backward.grads_kept"]
    metrics["autodiff.backward.grads_kept_share"] = (
        kept / computed if computed else 0.0, "share")
    metrics["prompt.degenerate_events"] = (degenerate, "count")
    metrics["trace.units"] = (units, "count")

    plain_rate, traced_rate = plain.steady_rate(), traced.steady_rate()
    plain_p50, _ = latency_stats(plain.steady_samples())
    traced_p50, _ = latency_stats(traced.steady_samples())
    metrics["trace.overhead.windows_per_s"] = (plain_rate / traced_rate - 1,
                                               "share")
    metrics["trace.overhead.latency_ms.p50"] = (traced_p50 / plain_p50 - 1,
                                                "share")

    combined = Measurement(rounds=plain.rounds + traced.rounds,
                           attempted=plain.attempted + traced.attempted,
                           failed=plain.failed + traced.failed,
                           outputs=plain.outputs + traced.outputs,
                           errors=plain.errors + traced.errors)
    checks = _checks(workload, combined)
    checks.append(Check("span_coverage", not missing,
                        "spans that never fired: "
                        + (", ".join(missing) or "none")))
    result = _result(combined, checks, metrics)
    names = WORKLOAD_NAMES[workload.unit]
    result.report_lines.append(
        f"tracing overhead: {names['windows_per_s']} {plain_rate!r} untraced, "
        f"{traced_rate!r} traced; {names['latency_ms.p50']} {plain_p50!r} "
        f"untraced, {traced_p50!r} traced")
    result.report_lines.append(f"per-layer values are per {workload.unit} "
                               "(set-up spans: per set-up)")
    for metric, (value, unit) in metrics.items():
        result.report_lines.append(f"{metric} {value!r} {unit}")
    return result


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                           "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_set": blas_threads,
        "blas_threads_reported": _blas_threads(),
        "src_lines": src_lines,
    }
