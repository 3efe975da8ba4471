"""Optimization of the joint objective: Adam with bias correction, global
gradient-norm clipping, early stopping on validation MSE, and bit-exact
checkpointing in the S2IP1 record format."""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from .autodiff import Tape, backward
from .metrics import row_mse_mae
from .model import ForecastModel, ModelConfig, ModelError, check_arrays
from .prompt import EmbeddingMatrix

CHECKPOINT_MAGIC = b"S2IP1\n"
# Adam's moment decay rates and the guard added to the update's denominator
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 10
    batch_size: int = 32
    early_stop_patience: int = 5
    seed: int = 0
    clip_norm: float = 1.0  # 0 disables clipping

    def __post_init__(self):
        # written so that nan fails them
        if not self.learning_rate > 0:
            raise TrainingError("learning_rate must be positive")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.early_stop_patience < 0:
            raise TrainingError("early_stop_patience must be >= 0")
        if self.seed < 0:
            raise TrainingError("seed must be >= 0")
        if not self.clip_norm >= 0:
            raise TrainingError("clip_norm must be >= 0 (0 disables)")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_mses: list[float] = field(default_factory=list)
    best_epoch: int = 0

    def epochs_run(self) -> int:
        return len(self.train_losses)


class AdamState:
    """First/second moment accumulators keyed by parameter name."""

    def __init__(self, named_params):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in named_params}
        self.v = {name: np.zeros_like(t.data) for name, t in named_params}


def clip_gradients(named_params, max_norm: float) -> float:
    """Scale all gradients, in place, so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm."""
    total = 0.0
    for _, t in named_params:
        if t.grad is not None:
            total += float(np.sum(t.grad * t.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, t in named_params:
            if t.grad is not None:
                t.grad *= scale
    return norm


def adam_step(named_params, state: AdamState, config: TrainConfig) -> None:
    """One Adam update over every parameter with a populated gradient;
    gradients are cleared afterwards. Every gradient is checked before any
    parameter or moment moves, so a non-finite one leaves the model and the
    state untouched. The moments are updated in place with one scratch
    buffer, and every value rounds as the textbook expressions do. Each
    updated parameter gets a fresh array and its previous one is never
    written, so a reference to it is a snapshot: :func:`train` keeps its
    best epoch that way."""
    for name, tensor in named_params:
        g = tensor.grad
        if g is not None and not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for {name!r} "
                                f"(norm {float(np.linalg.norm(g))})")
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    for name, tensor in named_params:
        g = tensor.grad
        if g is None:
            continue
        m, v = state.m[name], state.v[name]
        # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g
        scratch = g * (1 - b1)
        m *= b1
        m += scratch
        np.multiply(g, 1 - b2, out=scratch)
        scratch *= g
        v *= b2
        v += scratch
        # data - lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1 - b2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        data = m / (1 - b1 ** t)
        data *= config.learning_rate
        data /= scratch
        np.subtract(tensor.data, data, out=data)
        tensor.data = data
        tensor.grad = None


def _validation_mse(model: ForecastModel, val_windows) -> float:
    """Mean per-window MSE; inf or nan if a forecast is not finite."""
    channels, inputs, targets = zip(*val_windows)
    forecasts = model.forward_forecast(np.stack(inputs), channels).forecast
    return float(np.mean(row_mse_mae(np.stack(targets), forecasts)[0]))


def train(model: ForecastModel, train_windows, val_windows,
          config: TrainConfig) -> TrainReport:
    """Minimize the joint objective with per-epoch shuffling.

    Tracks the best validation MSE, restores the best parameters at the end,
    and stops once the count of consecutive non-improving epochs exceeds the
    patience (an empty validation set disables early stopping). A non-finite
    loss or gradient aborts with the best-so-far parameters restored, and
    so does any other exception. Only the trainable tensors change, and
    :func:`adam_step` never writes into their arrays, so the best epoch is
    kept as references to those arrays and restored by assigning them back.
    """
    if not train_windows:
        raise TrainingError("training set is empty")
    rng = np.random.default_rng(config.seed)
    named = model.named_parameters()
    state = AdamState(named)
    report = TrainReport()
    best = [t.data for _, t in named]
    best_val = np.inf
    stale = 0

    try:
        for epoch in range(config.epochs):
            order = rng.permutation(len(train_windows))
            epoch_losses = []
            for start in range(0, len(order), config.batch_size):
                batch = [train_windows[i]
                         for i in order[start:start + config.batch_size]]
                with Tape():
                    loss = model.joint_loss(batch)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingError(f"non-finite loss ({value}) at epoch "
                                        f"{epoch + 1}")
                backward(loss)
                clip_gradients(named, config.clip_norm)
                adam_step(named, state, config)
                epoch_losses.append(value)
            report.train_losses.append(float(np.mean(epoch_losses)))

            if val_windows:
                val_mse = _validation_mse(model, val_windows)
                report.val_mses.append(val_mse)
                if val_mse < best_val:
                    best_val = val_mse
                    best = [t.data for _, t in named]
                    report.best_epoch = epoch + 1
                    stale = 0
                else:
                    stale += 1
                    if stale > config.early_stop_patience:
                        break
            else:
                best = [t.data for _, t in named]
                report.best_epoch = epoch + 1
    except TrainingError as exc:
        raise TrainingError(f"{exc}; best parameters restored") from exc
    finally:
        for (_, tensor), data in zip(named, best):
            tensor.data, tensor.grad = data, None
    return report


# ---------------------------------------------------------------------------
# the S2IP1 record: a named float64 array, as checkpoints, embedding files
# and exported embeddings hold it. The name's byte length, the name in
# UTF-8, the rank and each dim (all u64), then the values row-major; every
# number is little-endian
# ---------------------------------------------------------------------------

_MAX_RANK = 64  # the most axes a numpy array has


def write_record(fh: BinaryIO, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    arr = np.ascontiguousarray(arr, dtype="<f8")  # a 0-d array becomes (1,)
    fh.write(struct.pack("<Q", len(encoded)) + encoded
             + struct.pack(f"<{arr.ndim + 1}Q", arr.ndim, *arr.shape))
    fh.write(arr.tobytes())


def _take(fh: BinaryIO, size: int, part: str) -> bytes:
    """The next ``size`` bytes of ``fh``, checked against the bytes left
    before the read, so a corrupt length sizes no allocation."""
    pos = fh.tell()
    if size > fh.seek(0, io.SEEK_END) - pos:
        raise IOError(f"truncated {part}")
    fh.seek(pos)
    return fh.read(size)


def read_record_header(fh: BinaryIO) -> tuple[str, tuple[int, ...]]:
    """The name and dims of the next record of ``fh``, which is left at the
    record's values; IOError if they are truncated or malformed."""
    (size,) = struct.unpack("<Q", _take(fh, 8, "named record (name length)"))
    try:
        name = _take(fh, size, "named record (name)").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IOError(f"named record name is not UTF-8: {exc}") from exc
    (rank,) = struct.unpack("<Q", _take(fh, 8, "tensor record (rank)"))
    # refused before any dim is read, so a corrupt rank sizes nothing
    if rank > _MAX_RANK:
        raise IOError(f"invalid tensor record rank {rank}")
    return name, struct.unpack(f"<{rank}Q",
                               _take(fh, 8 * rank, "tensor record (dims)"))


def read_record(fh: BinaryIO) -> tuple[str, np.ndarray]:
    """The next record of ``fh`` as ``(name, array)``; IOError if it is
    truncated or malformed."""
    name, dims = read_record_header(fh)
    # Python ints: a product of u64 dims can wrap around in int64
    raw = _take(fh, 8 * math.prod(dims), "tensor record (data)")
    try:
        return name, np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
    except ValueError as exc:  # an empty record with dims numpy cannot hold
        raise IOError(f"invalid tensor record dims {dims}: {exc}") from exc


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def _check_values(arrays: dict[str, np.ndarray], refusal: str) -> None:
    """TrainingError led by ``refusal`` if an array holds nan or inf, or an
    entry of ``revin.gamma`` lies outside 2^-511 <= |gamma| <= 2^511: within
    them, forecasts divide by gamma and square the result to finite values."""
    # x @ x is finite only if every x is; huge finite values are checked by value
    with np.errstate(over="ignore", invalid="ignore"):
        for name, arr in arrays.items():
            flat = arr.reshape(-1)
            if not math.isfinite(flat @ flat) and not np.isfinite(flat).all():
                raise TrainingError(f"{refusal}: tensor {name!r} holds nan or inf")
    magnitude = np.abs(arrays.get("revin.gamma", 1.0))
    if not ((magnitude >= 2.0 ** -511) & (magnitude <= 2.0 ** 511)).all():
        raise TrainingError(f"{refusal}: revin.gamma holds an entry outside "
                            "2^-511 <= |gamma| <= 2^511")


def save_checkpoint(model: ForecastModel, path) -> None:
    """Versioned checkpoint: magic, JSON config header, then one record per
    named array, sorted by name. Refuses what :func:`load_checkpoint` does."""
    header = json.dumps(model.config.to_dict(), sort_keys=True)
    arrays = model.all_arrays()
    _check_values(arrays, f"{path}: not saved")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        encoded = header.encode("utf-8")
        fh.write(len(encoded).to_bytes(8, "little"))
        fh.write(encoded)
        for name in sorted(arrays):
            write_record(fh, name, arrays[name])


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
            name, arr = read_record(stream)
            if name in arrays:
                raise TrainingError(f"{path}: duplicate tensor {name!r}")
            arrays[name] = arr
    except IOError as exc:
        raise TrainingError(f"{path}: corrupt checkpoint: {exc}") from exc

    _check_values(arrays, f"{path}: corrupt checkpoint")
    if "embedding.values" not in arrays:
        raise TrainingError(f"{path}: checkpoint lacks the embedding matrix")
    embedding = EmbeddingMatrix(arrays["embedding.values"])
    # checked before the model is built, so a header cannot size its allocation
    try:
        check_arrays(config, embedding.vocab_size, arrays)
    except ModelError as exc:
        raise TrainingError(f"{path}: the header claims sizes the records do "
                            f"not hold: {exc}") from exc
    return ForecastModel(config, embedding, arrays=arrays)
