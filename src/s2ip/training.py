"""Optimization of the joint objective: Adam with bias correction, global
gradient-norm clipping, early stopping on validation MSE, and bit-exact
checkpointing."""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, backward
from .model import ForecastModel, ModelConfig
from .prompt import EmbeddingMatrix

CHECKPOINT_MAGIC = b"S2IP1\n"


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 32
    early_stop_patience: int = 5
    seed: int = 0
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    clip_norm: float = 1.0  # 0 disables clipping

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.clip_norm < 0:
            raise TrainingError("clip_norm must be >= 0 (0 disables)")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_mses: list[float] = field(default_factory=list)
    best_epoch: int = 0
    wall_seconds: float = 0.0

    def epochs_run(self) -> int:
        return len(self.train_losses)


class AdamState:
    """First/second moment accumulators keyed by parameter name."""

    def __init__(self, named_params):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in named_params}
        self.v = {name: np.zeros_like(t.data) for name, t in named_params}


def clip_gradients(named_params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``;
    returns the pre-clip norm."""
    total = 0.0
    for _, t in named_params:
        if t.grad is not None:
            total += float(np.sum(t.grad * t.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, t in named_params:
            if t.grad is not None:
                t.grad = t.grad * scale
    return norm


def adam_step(named_params, state: AdamState, config: TrainConfig) -> None:
    """One Adam update over every parameter with a populated gradient;
    gradients are cleared afterwards. Every gradient is checked before any
    parameter moves, so a non-finite one leaves the model untouched."""
    for name, tensor in named_params:
        g = tensor.grad
        if g is not None and not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for {name!r} "
                                f"(norm {float(np.linalg.norm(g))})")
    b1, b2 = config.adam_betas
    state.step += 1
    t = state.step
    for name, tensor in named_params:
        g = tensor.grad
        if g is None:
            continue
        m = state.m[name] = b1 * state.m[name] + (1 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        tensor.data = tensor.data - config.learning_rate * m_hat / (
            np.sqrt(v_hat) + config.adam_eps)
        tensor.grad = None


def _snapshot(model: ForecastModel) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in model.all_arrays().items()}


def _validation_mse(model: ForecastModel, val_windows) -> float:
    errors = []
    for channel, x, y in val_windows:
        result = model.forward_forecast(x, channel)
        errors.append(float(np.mean((result.forecast - y) ** 2)))
    return float(np.mean(errors))


def train(model: ForecastModel, train_windows, val_windows,
          config: TrainConfig) -> TrainReport:
    """Minimize the joint objective with per-epoch shuffling.

    Tracks the best validation MSE, restores the best parameters at the end,
    and stops once the count of consecutive non-improving epochs exceeds the
    patience (an empty validation set disables early stopping). A non-finite
    loss or gradient aborts with the best-so-far parameters restored.
    """
    if not train_windows:
        raise TrainingError("training set is empty")
    rng = np.random.default_rng(config.seed)
    named = model.named_parameters()
    state = AdamState(named)
    report = TrainReport()
    best = _snapshot(model)
    best_val = np.inf
    stale = 0
    started = time.perf_counter()

    try:
        for epoch in range(config.epochs):
            order = rng.permutation(len(train_windows))
            epoch_losses = []
            for start in range(0, len(order), config.batch_size):
                batch = [train_windows[i]
                         for i in order[start:start + config.batch_size]]
                with Tape() as tape:
                    loss = model.joint_loss(batch)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingError(f"non-finite loss ({value}) at epoch "
                                        f"{epoch + 1}")
                backward(loss)
                # the recorded nodes and their tensors reference each other;
                # free the step's activations now, not at the next cyclic
                # garbage collection
                tape.nodes.clear()
                clip_gradients(named, config.clip_norm)
                adam_step(named, state, config)
                epoch_losses.append(value)
            report.train_losses.append(float(np.mean(epoch_losses)))

            if val_windows:
                val_mse = _validation_mse(model, val_windows)
                report.val_mses.append(val_mse)
                if val_mse < best_val:
                    best_val = val_mse
                    best = _snapshot(model)
                    report.best_epoch = epoch + 1
                    stale = 0
                else:
                    stale += 1
                    if stale > config.early_stop_patience:
                        break
            else:
                best = _snapshot(model)
                report.best_epoch = epoch + 1
    except TrainingError as exc:
        model.load_arrays(best)
        for _, tensor in named:
            tensor.grad = None
        raise TrainingError(f"{exc}; best parameters restored") from exc

    model.load_arrays(best)
    report.wall_seconds = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(model: ForecastModel, path) -> None:
    """Versioned checkpoint: magic, JSON config header, then every named
    tensor (sorted) in the binary tensor format."""
    header = json.dumps(model.config.to_dict(), sort_keys=True)
    arrays = model.all_arrays()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        encoded = header.encode("utf-8")
        fh.write(len(encoded).to_bytes(8, "little"))
        fh.write(encoded)
        for name in sorted(arrays):
            ad.write_named_array(fh, name, arrays[name])


def load_checkpoint(path) -> ForecastModel:
    """Rebuild a model from a checkpoint, bit-exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise TrainingError(f"{path}: not a checkpoint (bad magic or version)")
    stream = io.BytesIO(blob)
    stream.seek(len(CHECKPOINT_MAGIC))
    raw = stream.read(8)
    if len(raw) != 8:
        raise TrainingError(f"{path}: truncated checkpoint header")
    header_len = int.from_bytes(raw, "little")
    raw = stream.read(header_len)
    if len(raw) != header_len:
        raise TrainingError(f"{path}: truncated checkpoint header")
    try:
        config = ModelConfig.from_dict(json.loads(raw.decode("utf-8")))
    except (KeyError, ValueError) as exc:
        raise TrainingError(f"{path}: invalid checkpoint config: {exc}") from exc

    arrays: dict[str, np.ndarray] = {}
    try:
        while stream.tell() < len(blob):
            name, arr = ad.read_named_array(stream)
            arrays[name] = arr
    except IOError as exc:
        raise TrainingError(f"{path}: truncated checkpoint: {exc}") from exc

    if "embedding.values" not in arrays:
        raise TrainingError(f"{path}: checkpoint lacks the embedding matrix")
    embedding = EmbeddingMatrix(arrays["embedding.values"])
    model = ForecastModel(config, embedding, seed=0)
    try:
        model.load_arrays(arrays)
    except ValueError as exc:
        raise TrainingError(f"{path}: {exc}") from exc
    return model
