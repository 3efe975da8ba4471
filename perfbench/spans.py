"""Spans and counts recorded from outside the program.

The benchmark replaces public functions and methods of the ``s2ip`` modules
with wrappers. A wrapper records one span per call: name, start, end and the
span that was open when it began. A function that several modules bind at
import time (``from .training import train``) is replaced in every module
that holds it, so calls through any of those names are seen.

Spans give inclusive time (outermost call of a name only) and self time (the
span's duration minus that of its direct children). The backward pass gets
one span per replayed tape node, by wrapping each node's ``backward_fn`` on
the public ``Tape.nodes`` list just before ``backward`` runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from s2ip import autodiff
from s2ip.backbone import Backbone
from s2ip.model import ForecastModel

# spans on module-level functions, named <module>.<function>
FUNCTION_SPANS = (
    "harness.build_pipeline", "harness.build_model", "series.load_csv",
    "training.load_checkpoint", "training.save_checkpoint",
    "preprocess.decompose", "preprocess.patch",
    "prompt.derive_anchors", "prompt.retrieve_topk", "prompt.alignment_term",
    "autodiff.matmul", "autodiff.layer_norm", "autodiff.softmax",
    "autodiff.gelu", "training.clip_gradients", "training.adam_step",
    "metrics.evaluate_model",
)
# spans on methods, named <module>.<method>
METHOD_SPANS = {
    "model.joint_loss": (ForecastModel, "joint_loss"),
    "model.tokenize_and_embed": (ForecastModel, "tokenize_and_embed"),
    "model.forward_forecast": (ForecastModel, "forward_forecast"),
    "backbone.forward": (Backbone, "forward"),
}
BACKWARD = "autodiff.backward"
SPAN_NAMES = FUNCTION_SPANS + tuple(METHOD_SPANS) + (BACKWARD,)
# spans that run while a workload sets up; reported per set-up
SETUP_SPANS = frozenset({"harness.build_pipeline", "harness.build_model",
                         "series.load_csv", "training.load_checkpoint"})

# tape node kinds grouped for the per-kind backward split
NODE_BUCKETS = ("matmul", "layer_norm", "softmax", "gelu", "gather_rows",
                "concat", "narrow", "elementwise", "other")
ELEMENTWISE_KINDS = frozenset({"add", "sub", "mul", "div", "neg", "exp",
                               "sqrt", "tanh", "relu"})
# where a node was recorded: inside Backbone.forward or in the glue around it
NODE_PLACES = ("backbone", "glue")

COUNTS = ("autodiff.tape_nodes", "backbone.tape_nodes",
          "autodiff.matmul.frozen_operand_nodes",
          "autodiff.backward.grads_kept", "autodiff.backward.grads_computed")


def node_bucket(kind: str) -> str:
    if kind in NODE_BUCKETS:
        return kind
    return "elementwise" if kind in ELEMENTWISE_KINDS else "other"


def _s2ip_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "s2ip" or name.startswith("s2ip.")]


def rebind(original, replacement) -> None:
    """Point every ``s2ip`` module attribute that holds ``original`` at
    ``replacement``."""
    for module in _s2ip_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _home(name: str):
    module_name, attr = name.split(".")
    return sys.modules[f"s2ip.{module_name}"], attr


class StepTimer:
    """Times each training step, from ``joint_loss`` entry to ``adam_step``
    exit, and counts the steps begun.

    While a workload has set ``meter``, every step is a segment of it, and
    so is every run of ``forecast_split`` calls to ``forward_forecast``
    (validation, evaluation), so that the gauge is read at short intervals
    all through a long call. Step samples are kept both as wall time and
    scaled to the gauge's reference speed.
    """

    def __init__(self):
        self.samples_ms: list[float] = []
        self.wall_samples_ms: list[float] = []
        self.begun = 0
        self.meter = None
        self.forecast_split = 0
        self._forecasts = 0

    def install(self) -> None:
        joint_loss = ForecastModel.joint_loss
        forward_forecast = ForecastModel.forward_forecast
        module, attr = _home("training.adam_step")
        adam_step = getattr(module, attr)

        @functools.wraps(joint_loss)
        def timed_joint_loss(*args, **kwargs):
            self.begun += 1
            if self.meter is not None:
                self.meter.split()  # ends the work between steps
            return joint_loss(*args, **kwargs)

        @functools.wraps(adam_step)
        def timed_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            if self.meter is not None:
                wall, scaled = self.meter.split()
                self.wall_samples_ms.append(wall * 1e3)
                self.samples_ms.append(scaled * 1e3)
            return out

        @functools.wraps(forward_forecast)
        def split_forward_forecast(*args, **kwargs):
            out = forward_forecast(*args, **kwargs)
            if self.meter is not None and self.forecast_split:
                self._forecasts += 1
                if self._forecasts % self.forecast_split == 0:
                    self.meter.split()
            return out

        ForecastModel.joint_loss = timed_joint_loss
        ForecastModel.forward_forecast = split_forward_forecast
        rebind(adam_step, timed_adam_step)


class Tracer:
    """Records spans while ``phase`` is set; ``phase`` tags each span so
    set-up and the timed loop are reported apart."""

    def __init__(self):
        # (name, start, end, parent index, phase, node place or None)
        self.records: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.phase: str | None = None
        self._stack: list[int] = []
        self._backbone_ranges: dict = {}

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        for name in FUNCTION_SPANS:
            module, attr = _home(name)
            original = getattr(module, attr, None)
            if original is not None:
                rebind(original, self._span(name, original))
        for name, (cls, attr) in METHOD_SPANS.items():
            original = getattr(cls, attr, None)
            if original is None:
                continue
            if name == "backbone.forward":
                original = self._note_backbone_nodes(original)
            setattr(cls, attr, self._span(name, original))
        original = autodiff.backward
        rebind(original, self._backward(original))

    def _span(self, name, fn):
        records, stack, clock = self.records, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            index = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[index] = (name, start, end, parent, phase, None)
        return wrapper

    def _note_backbone_nodes(self, forward):
        """Remember which tape nodes ``Backbone.forward`` recorded."""

        @functools.wraps(forward)
        def wrapper(backbone, x):
            tape = autodiff.active_tape()
            first = len(tape.nodes) if tape is not None else 0
            out = forward(backbone, x)
            if tape is not None and self.phase is not None:
                self._backbone_ranges.setdefault(tape, []).append(
                    (first, len(tape.nodes)))
            return out
        return wrapper

    def _backward(self, backward):
        spanned = self._span(BACKWARD, backward)

        @functools.wraps(backward)
        def wrapper(loss, *args, **kwargs):
            if self.phase is not None and loss.tape is not None:
                self._wrap_nodes(loss.tape)
            return spanned(loss, *args, **kwargs)
        return wrapper

    def _wrap_nodes(self, tape) -> None:
        nodes = tape.nodes
        inside = bytearray(len(nodes))
        for first, last in self._backbone_ranges.pop(tape, ()):
            inside[first:last] = b"\x01" * (last - first)
        self._backbone_ranges.clear()
        counts = self.counts
        counts["autodiff.tape_nodes"] += len(nodes)
        counts["backbone.tape_nodes"] += sum(inside)
        for i, node in enumerate(nodes):
            if node.kind == "matmul" and not all(t.requires_grad
                                                 for t in node.inputs):
                counts["autodiff.matmul.frozen_operand_nodes"] += 1
            node.backward_fn = self._node_span(
                node.backward_fn, f"{BACKWARD}.{node_bucket(node.kind)}",
                NODE_PLACES[0] if inside[i] else NODE_PLACES[1])

    def _node_span(self, fn, name, place):
        records, stack, counts = self.records, self._stack, self.counts
        clock = time.perf_counter
        phase = self.phase

        def backward_fn(g):
            start = clock()
            grads = fn(g)
            end = clock()
            records.append((name, start, end, stack[-1] if stack else -1,
                            phase, place))
            counts["autodiff.backward.grads_computed"] += len(grads)
            counts["autodiff.backward.grads_kept"] += sum(
                1 for tensor, _ in grads if tensor.requires_grad)
            return grads
        return backward_fn

    # -- summarising ------------------------------------------------------

    def summary(self) -> dict:
        """Per (phase, name): [inclusive s, self s, calls]. Node spans are
        also summed by place under ``autodiff.backward.<place>``."""
        records = self.records
        child = [0.0] * len(records)
        for rec in records:
            if rec is not None and rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for i, rec in enumerate(records):
            if rec is None:
                continue
            name, start, end, parent, phase, place = rec
            duration = end - start
            agg = out[phase, name]
            agg[1] += duration - child[i]
            agg[2] += 1
            while parent >= 0 and records[parent][0] != name:
                parent = records[parent][3]
            if parent < 0:  # outermost call of this name
                agg[0] += duration
            if place is not None:
                by_place = out[phase, f"{BACKWARD}.{place}"]
                by_place[0] += duration
                by_place[1] += duration
                by_place[2] += 1
        return dict(out)
