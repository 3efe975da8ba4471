import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import s2ip.autodiff as ad
import s2ip.model as model_module
import s2ip.training as training
from s2ip.autodiff import Tensor
from s2ip.backbone import BackboneConfig
from s2ip.config import RunConfig
from s2ip.harness import build_model, build_pipeline
from s2ip.metrics import mse_mae
from s2ip.model import DecompositionConfig, ModelConfig
from s2ip.model import ForecastModel
from s2ip.preprocess import PatchSpec
from s2ip.prompt import clustered_vocabulary
from s2ip.series import WindowSpec
from s2ip.training import (ADAM_EPS, CHECKPOINT_MAGIC, AdamState, TrainConfig,
                           TrainingError, adam_step, clip_gradients,
                           load_checkpoint, read_record, save_checkpoint,
                           train, write_record)


def tiny_model(seed=0, **overrides):
    defaults = dict(
        window=WindowSpec(32, 8),
        patch=PatchSpec(8, 4),
        decomposition=DecompositionConfig(period=8, trend_window=9),
        backbone=BackboneConfig(embed_dim=16, n_layers=1, n_heads=2,
                                max_seq_len=16),
        prompt_k=2,
        n_anchors=8,
        n_channels=1,
    )
    defaults.update(overrides)
    config = ModelConfig(**defaults)
    return ForecastModel(config, clustered_vocabulary(50, 16, seed=seed),
                         seed=seed)


def sine_windows(n, tau=32, horizon=8, seed=0, channel=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n + tau + horizon, dtype=np.float64)
    series = np.sin(2 * np.pi * t / 8) + 0.02 * t + rng.normal(0, 0.05, t.size)
    out = []
    for start in range(n):
        out.append((channel,
                    series[start:start + tau],
                    series[start + tau:start + tau + horizon]))
    return out


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_grad_is_fixed_point():
    p = Tensor([1.0, 2.0], requires_grad=True)
    p.grad = np.zeros(2)
    named = [("p", p)]
    adam_step(named, AdamState(named), TrainConfig(learning_rate=0.1))
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_first_step_hand_computed():
    # g=1 at step 1: m_hat = v_hat = 1, so the update is -lr / (1 + eps)
    p = Tensor([0.0], requires_grad=True)
    p.grad = np.array([1.0])
    named = [("p", p)]
    config = TrainConfig(learning_rate=0.1)
    adam_step(named, AdamState(named), config)
    expected = -0.1 * 1.0 / (1.0 + ADAM_EPS)
    assert p.data[0] == pytest.approx(expected, abs=1e-15)
    assert p.grad is None  # cleared afterwards


def test_adam_skips_missing_grad():
    p = Tensor([5.0], requires_grad=True)
    named = [("p", p)]
    adam_step(named, AdamState(named), TrainConfig())
    assert p.data[0] == 5.0


def test_adam_step_gives_each_updated_tensor_a_new_array():
    # train keeps its best epoch as references to the arrays it replaces
    model = tiny_model()
    named = model.named_parameters()
    with ad.Tape():
        loss = model.joint_loss(sine_windows(8, seed=3))
    ad.backward(loss)
    before = [(t.data, t.data.copy(), t.grad is not None) for _, t in named]
    assert any(updated for _, _, updated in before)
    adam_step(named, AdamState(named), TrainConfig(learning_rate=0.05))
    for (name, tensor), (old, old_copy, updated) in zip(named, before):
        assert (tensor.data is not old) == updated, name
        assert np.array_equal(old, old_copy), name


def test_adam_aborts_on_nonfinite_grad():
    p = Tensor([0.0], requires_grad=True)
    p.grad = np.array([np.nan])
    named = [("bad.param", p)]
    with pytest.raises(TrainingError, match="bad.param"):
        adam_step(named, AdamState(named), TrainConfig())


def test_adam_checks_every_gradient_before_updating():
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([2.0], requires_grad=True)
    a.grad = np.array([0.5])
    b.grad = np.array([np.inf])
    named = [("a", a), ("b", b)]
    state = AdamState(named)
    with pytest.raises(TrainingError, match="'b'"):
        adam_step(named, state, TrainConfig())
    assert a.data[0] == 1.0 and b.data[0] == 2.0
    assert state.step == 0
    assert not state.m["a"].any()


def test_clip_gradients_global_norm():
    a = Tensor([0.0], requires_grad=True)
    b = Tensor([0.0, 0.0], requires_grad=True)
    a.grad = np.array([3.0])
    b.grad = np.array([0.0, 4.0])
    named = [("a", a), ("b", b)]
    norm = clip_gradients(named, 1.0)
    assert norm == pytest.approx(5.0)
    clipped = np.sqrt(np.sum(a.grad ** 2) + np.sum(b.grad ** 2))
    assert clipped == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_training_reduces_loss():
    model = tiny_model()
    data = sine_windows(60, seed=1)
    config = TrainConfig(learning_rate=3e-3, epochs=8, batch_size=16,
                         early_stop_patience=8, seed=0)
    report = train(model, data, [], config)
    assert report.epochs_run() == 8
    assert report.train_losses[-1] < report.train_losses[0]


def test_training_deterministic():
    losses = []
    params = []
    for _ in range(2):
        model = tiny_model(seed=5)
        data = sine_windows(30, seed=2)
        config = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=8, seed=9)
        report = train(model, data, [], config)
        losses.append(report.train_losses)
        params.append({n: t.data.copy() for n, t in model.named_parameters()})
    assert losses[0] == losses[1]
    for name in params[0]:
        assert np.array_equal(params[0][name], params[1][name]), name


def test_training_empty_train_set_rejected():
    with pytest.raises(TrainingError):
        train(tiny_model(), [], [], TrainConfig())


def test_patience_zero_stops_at_first_non_improvement():
    model = tiny_model()
    data = sine_windows(40, seed=3)
    val = sine_windows(10, seed=4)
    config = TrainConfig(learning_rate=3e-3, epochs=12, batch_size=16,
                         early_stop_patience=0, seed=0)
    report = train(model, data, val, config)
    vals = report.val_mses
    stopped_early = report.epochs_run() < config.epochs
    if stopped_early:
        # the last epoch is exactly the first non-improving one
        assert vals[-1] >= min(vals[:-1])
        for i in range(1, len(vals) - 1):
            assert vals[i] < min(vals[:i])
    else:
        for i in range(1, len(vals)):
            assert vals[i] < min(vals[:i])


def test_empty_val_disables_early_stopping():
    model = tiny_model()
    data = sine_windows(20, seed=5)
    config = TrainConfig(learning_rate=1e-3, epochs=4, batch_size=8,
                         early_stop_patience=0, seed=0)
    report = train(model, data, [], config)
    assert report.epochs_run() == 4
    assert report.val_mses == []


def test_best_parameters_restored(monkeypatch):
    model = tiny_model()
    data = sine_windows(40, seed=6)
    val = sine_windows(12, seed=7)
    config = TrainConfig(learning_rate=5e-3, epochs=6, batch_size=16,
                         early_stop_patience=6, seed=0)
    # each epoch's trainable arrays, copied when that epoch is validated
    epochs, validate = [], training._validation_mse

    def record_and_validate(m, windows):
        epochs.append({n: t.data.copy() for n, t in m.named_parameters()})
        return validate(m, windows)

    monkeypatch.setattr(training, "_validation_mse", record_and_validate)
    report = train(model, data, val, config)
    errors = [np.mean((model.forward_forecast(x, c).forecast - y) ** 2)
              for c, x, y in val]
    assert np.mean(errors) == pytest.approx(min(report.val_mses), abs=1e-9)
    assert report.best_epoch == int(np.argmin(report.val_mses)) + 1
    assert report.best_epoch < len(epochs)  # a later epoch was undone
    best = epochs[report.best_epoch - 1]
    for name, tensor in model.named_parameters():
        assert np.array_equal(tensor.data, best[name]), name


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_validation_forecast_is_a_stale_epoch(bad):
    model = tiny_model()
    data = sine_windows(40, seed=6)
    val = sine_windows(12, seed=7)
    config = TrainConfig(learning_rate=5e-3, epochs=4, batch_size=16,
                         early_stop_patience=4, seed=0)
    # each epoch's trainable arrays, as validation sees them; the second
    # epoch's forecast of one window is not finite
    epochs, forecast = [], model.forward_forecast

    def poisoned(x, channel=0):
        epochs.append([t.data for _, t in model.named_parameters()])
        result = forecast(x, channel)
        if len(epochs) == 2:
            result.forecast[5, 3] = bad
        return result

    model.forward_forecast = poisoned
    report = train(model, data, val, config)
    assert len(report.val_mses) == 4
    assert np.array_equal(report.val_mses[1], bad, equal_nan=True)
    finite = [v if np.isfinite(v) else np.inf for v in report.val_mses]
    assert report.best_epoch == int(np.argmin(finite)) + 1
    assert report.best_epoch != 2
    best = epochs[report.best_epoch - 1]
    for (name, tensor), kept in zip(model.named_parameters(), best):
        assert tensor.data is kept, name


def test_overflowing_validation_windows_never_improve():
    # windows near 1e200 overflow their own variance: every validation MSE
    # is not finite, so training stops after the patience and restores the
    # initial parameters
    model = tiny_model()
    before = [t.data for _, t in model.named_parameters()]
    val = [(c, x * 1e200, y * 1e200) for c, x, y in sine_windows(3, seed=7)]
    config = TrainConfig(learning_rate=5e-3, epochs=5, batch_size=16,
                         early_stop_patience=1, seed=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = train(model, sine_windows(20, seed=6), val, config)
    assert len(report.val_mses) == 2 and not np.isfinite(report.val_mses).any()
    assert report.best_epoch == 0
    for (name, tensor), kept in zip(model.named_parameters(), before):
        assert tensor.data is kept, name


def test_nonfinite_loss_aborts_and_restores():
    model = tiny_model()
    before = {n: t.data.copy() for n, t in model.named_parameters()}
    data = sine_windows(20, seed=8)
    channel, x, y = data[3]
    poisoned = y.copy()
    poisoned[0] = np.inf
    data[3] = (channel, x, poisoned)
    config = TrainConfig(learning_rate=1e-3, epochs=5, batch_size=len(data),
                         seed=0)
    with pytest.raises(TrainingError, match="non-finite"):
        train(model, data, [], config)
    # the poisoned batch is the very first step, so the initial parameters
    # are the last good state
    for name, tensor in model.named_parameters():
        assert np.array_equal(tensor.data, before[name]), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_gradient_aborts_and_restores():
    # from the second step on, the loss gains a term whose value is 0 but
    # whose gradient for the second parameter is NaN: sqrt'(0) * 0
    model = tiny_model()
    before = {n: t.data.copy() for n, t in model.named_parameters()}
    second = model.named_parameters()[1][1]
    joint_loss = model.joint_loss
    steps = []

    def poisoned(batch):
        steps.append(1)
        loss = joint_loss(batch)
        if len(steps) >= 2:
            loss = ad.add(loss, ad.tsum(ad.sqrt(ad.mul(second, 0.0))))
        return loss

    model.joint_loss = poisoned
    config = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=8, seed=0)
    with pytest.raises(TrainingError, match="non-finite gradient"):
        train(model, sine_windows(24, seed=10), [], config)
    assert len(steps) == 2
    # the first step moved every parameter; all are back at the snapshot
    for name, tensor in model.named_parameters():
        assert np.array_equal(tensor.data, before[name]), name
        assert tensor.grad is None


def test_zero_gamma_aborts_with_the_initial_parameters_restored():
    # forward divides by revin.gamma on the tape, so a zero gain makes the
    # first loss infinite; train restores the snapshot it took at the start
    model = tiny_model()
    model.params["revin.gamma"].data[:] = 0.0
    before = {n: t.data.copy() for n, t in model.named_parameters()}
    config = TrainConfig(epochs=2, batch_size=8, seed=0)
    with pytest.raises(TrainingError) as info:
        train(model, sine_windows(20, seed=8), sine_windows(8, seed=5),
              config)
    assert str(info.value) == ("non-finite loss (inf) at epoch 1; best "
                               "parameters restored")
    for name, tensor in model.named_parameters():
        assert np.array_equal(tensor.data, before[name]), name
        assert tensor.grad is None, name


@pytest.mark.parametrize("threads", [1, 2])
def test_a_nonfinite_loss_aborts_before_any_gradient(threads, monkeypatch):
    # the loss is checked before backward, whether its batch was split over
    # threads or not
    monkeypatch.setattr(model_module, "FORECAST_THREADS", threads)
    replayed = []
    monkeypatch.setattr(training, "backward", replayed.append)
    model = tiny_model()
    model.params["revin.gamma"].data[:] = 0.0
    with pytest.raises(TrainingError, match=r"^non-finite loss \(inf\) at "
                                            r"epoch 1; best parameters restored$"):
        train(model, sine_windows(20, seed=8), [],
              TrainConfig(epochs=1, batch_size=8, seed=0))
    assert replayed == []
    assert all(t.grad is None for _, t in model.named_parameters())


def test_constant_window_keeps_loss_and_training_finite():
    # a constant window embeds to the projection bias, zero at
    # initialization, so its pooled embedding and patch rows have zero norm
    model = build_model(RunConfig(), n_channels=1, seed=0)
    rng = np.random.default_rng(16)
    batch = [(0, rng.normal(size=96), rng.normal(size=24)) for _ in range(3)]
    batch.append((0, np.full(96, 2.5), np.full(24, 2.5)))
    with ad.Tape():
        loss = model.joint_loss(batch)
    assert np.isfinite(loss.item())
    report = train(model, batch, [], TrainConfig(epochs=1, batch_size=4))
    assert np.isfinite(report.train_losses[0])
    for _, tensor in model.named_parameters():
        assert np.all(np.isfinite(tensor.data))


# ---------------------------------------------------------------------------
# allocator setting
# ---------------------------------------------------------------------------

def _has_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


# default model, batch 32: warm-up steps, then minor page faults per step
STEP_FAULTS_SCRIPT = """
import resource
import s2ip
import numpy as np
from s2ip.autodiff import Tape, backward
from s2ip.config import RunConfig
from s2ip.harness import build_model, build_pipeline
from s2ip.metrics import mse_mae
from s2ip.training import AdamState, adam_step, clip_gradients

config = RunConfig({})
model = build_model(config, 1, seed=0)
train_config = config.train_config()
named = model.named_parameters()
state = AdamState(named)
rng = np.random.default_rng(0)
batch = [(0, rng.normal(size=96), rng.normal(size=24)) for _ in range(32)]

def step():
    with Tape() as tape:
        loss = model.joint_loss(batch)
    backward(loss)
    tape.nodes.clear()
    clip_gradients(named, train_config.clip_norm)
    adam_step(named, state, train_config)

for _ in range(5):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(30):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)
"""


@pytest.mark.skipif(not _has_glibc(), reason="the setting is glibc-only")
def test_training_step_reuses_heap_pages():
    # with glibc's default thresholds a step faults in ~4000-5000 fresh
    # pages, as its ~1 MiB buffers go back to the OS after every step
    src = str(Path(ad.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", STEP_FAULTS_SCRIPT], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert float(out) < 100


class FakeLibc:
    """Stands in for ``ctypes.CDLL(None)``; records the mallopt calls."""

    def __init__(self, mmap_result=1):
        self.calls = []
        self.mmap_result = mmap_result
        self.mallopt = self

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.mmap_result if param == ad._M_MMAP_THRESHOLD else 1


def test_allocator_setter_without_glibc_does_nothing(monkeypatch):
    def no_glibc(name):
        raise ValueError("unrecognized configuration name")

    libc = FakeLibc()
    monkeypatch.setattr(ad.os, "confstr", no_glibc)
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: libc)
    ad._keep_step_buffers_on_heap()
    assert libc.calls == []


@pytest.mark.parametrize("mmap_result, calls", [
    (1, [(-3, 32 << 20), (-1, 256 << 20)]),
    (0, [(-3, 32 << 20)]),
], ids=["both", "trim_only_after_mmap"])
def test_allocator_setter_sets_trim_only_after_mmap(monkeypatch, mmap_result,
                                                    calls):
    libc = FakeLibc(mmap_result)
    monkeypatch.setattr(ad.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: libc)
    ad._keep_step_buffers_on_heap()
    assert libc.calls == calls


# ---------------------------------------------------------------------------
# freeze soundness
# ---------------------------------------------------------------------------

def test_frozen_backbone_untouched_by_training():
    model = tiny_model()
    before = {name: t.data.copy() for name, t in model.backbone.params.items()}
    trainable_before = {name: t.data.copy()
                        for name, t in model.named_parameters()}
    data = sine_windows(40, seed=9)
    train(model, data, [], TrainConfig(learning_rate=3e-3, epochs=3,
                                       batch_size=8, seed=0))
    changed_norms = 0
    for name, tensor in model.backbone.params.items():
        if ".attn." in name or ".ffn." in name:
            assert np.array_equal(tensor.data, before[name]), name
        elif "ln" in name:
            changed_norms += int(not np.array_equal(tensor.data, before[name]))
    assert not np.array_equal(model.backbone.params["positional"].data,
                              before["positional"])
    assert changed_norms >= 1
    # the updated set is exactly the declared trainable set
    for name, tensor in model.named_parameters():
        assert not np.array_equal(tensor.data, trainable_before[name]), name


def plain_clip_gradients(named_params, max_norm):
    """clip_gradients as plain, allocating expressions."""
    total = 0.0
    for _, t in named_params:
        if t.grad is not None:
            total += float(np.sum(t.grad * t.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        for _, t in named_params:
            if t.grad is not None:
                t.grad = t.grad * (max_norm / norm)
    return norm


def plain_adam_step(named_params, state, config):
    """adam_step's update as the textbook expressions."""
    b1, b2 = 0.9, 0.999
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
            np.sqrt(v_hat) + ADAM_EPS)
        tensor.grad = None


def test_adam_and_clip_bit_identical_to_plain_expressions():
    shapes = {"a": (4, 3), "b": (7,), "c": (2, 3, 5)}

    def params():
        return [(name, Tensor(np.random.default_rng(i).normal(size=shape),
                              requires_grad=True))
                for i, (name, shape) in enumerate(shapes.items())]

    fast, plain = params(), params()
    fast_state, plain_state = AdamState(fast), AdamState(plain)
    config = TrainConfig(learning_rate=0.01)
    rng = np.random.default_rng(40)
    norms = []
    for step, scale in enumerate([0.05, 0.1, 0.3, 0.02, 1.0]):
        for (name, f), (_, p) in zip(fast, plain):
            g = None if (step, name) == (2, "b") else rng.normal(
                0.0, scale, size=f.shape)
            f.grad = None if g is None else g.copy()
            p.grad = None if g is None else g.copy()
        norm = clip_gradients(fast, 1.0)
        assert norm == plain_clip_gradients(plain, 1.0)
        norms.append(norm)
        for (_, f), (_, p) in zip(fast, plain):
            assert (f.grad is None) == (p.grad is None)
            assert f.grad is None or np.array_equal(f.grad, p.grad)
        # a parameter's array may alias a snapshot: it is replaced, not written
        before = [(f.data, f.data.copy()) for _, f in fast]
        adam_step(fast, fast_state, config)
        plain_adam_step(plain, plain_state, config)
        for (name, f), (_, p), (old, old_copy) in zip(fast, plain, before):
            assert np.array_equal(f.data, p.data), (step, name)
            assert np.array_equal(fast_state.m[name], plain_state.m[name])
            assert np.array_equal(fast_state.v[name], plain_state.v[name])
            assert np.array_equal(old, old_copy)
            assert f.grad is None
    assert min(norms) < 1.0 < max(norms)  # some steps clip, some do not


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_record_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    arr = rng.normal(size=(3, 4, 2))
    path = tmp_path / "t.bin"
    with open(path, "wb") as fh:
        write_record(fh, "E", arr)
    with open(path, "rb") as fh:
        name, back = read_record(fh)
    assert name == "E"
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_record_round_trip_keeps_a_dotted_name(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "named.bin"
    with open(path, "wb") as fh:
        write_record(fh, "layer.0.attn.wq", arr)
    with open(path, "rb") as fh:
        name, back = read_record(fh)
    assert name == "layer.0.attn.wq"
    assert np.array_equal(back, arr)


@pytest.mark.parametrize("dims, match", [((2 ** 32, 2 ** 32), "truncated"),
                                         ((11,), "truncated"),
                                         ((0, 2 ** 63), "invalid"),
                                         ((1,) * 65, "invalid")])
def test_record_dims_past_the_stream_raise_ioerror(dims, match):
    # (2**32, 2**32) wraps to a count of 0 in int64; (11,) asks for one value
    # more than the 10 stored; (0, 2**63) is empty but too large for numpy;
    # 65 axes are more than numpy holds
    stream = io.BytesIO()
    stream.write(struct.pack("<Q", 1) + b"E")
    stream.write(struct.pack("<Q", len(dims)))
    for dim in dims:
        stream.write(struct.pack("<Q", dim))
    stream.write(np.arange(10.0).astype("<f8").tobytes())
    stream.seek(0)
    with pytest.raises(IOError, match=match):
        read_record(stream)


@pytest.mark.parametrize("name_record, match", [
    (struct.pack("<Q", 4) + b"ab\xffc", "UTF-8"),
    (struct.pack("<Q", 2 ** 62) + b"E", "truncated"),
], ids=["not_utf8", "length_past_the_end"])
def test_corrupt_record_name_raises_ioerror(name_record, match):
    # a name that is not UTF-8, and a name length far past the stream's end
    # (refused before the read, so nothing of that size is allocated)
    unnamed = io.BytesIO()
    write_record(unnamed, "", np.arange(3.0))
    stream = io.BytesIO(name_record + unnamed.getvalue()[8:])
    with pytest.raises(IOError, match=match):
        read_record(stream)


def test_truncated_record_raises(tmp_path):
    path = tmp_path / "trunc.bin"
    with open(path, "wb") as fh:
        write_record(fh, "E", np.arange(10.0))
    blob = path.read_bytes()[:-8]
    path.write_bytes(blob)
    with open(path, "rb") as fh:
        with pytest.raises(IOError):
            read_record(fh)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = tiny_model(seed=11)
    data = sine_windows(20, seed=10)
    train(model, data, [], TrainConfig(epochs=2, batch_size=8, seed=0))
    x = np.random.default_rng(12).normal(size=32)
    reference = model.forward_forecast(x, 0).forecast
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    again = loaded.forward_forecast(x, 0).forecast
    assert np.array_equal(reference, again)


def test_checkpoint_load_draws_no_parameters(tmp_path, monkeypatch):
    model = tiny_model(seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random parameters")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_checkpoint(path)
    arrays, expected = loaded.all_arrays(), model.all_arrays()
    assert sorted(arrays) == sorted(expected)
    assert all(np.array_equal(arrays[name], expected[name]) for name in arrays)
    assert ([name for name, _ in loaded.named_parameters()]
            == [name for name, _ in model.named_parameters()])


def test_checkpoint_truncated(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(TrainingError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(2 ** 32, 2 ** 32), (2,)])
def test_checkpoint_record_past_the_end_is_truncated(tmp_path, dims):
    # a trailing record whose dims claim more data than the file holds: one
    # whose count wraps to 0 in int64, and one a single value short
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    record = struct.pack("<Q", 5) + b"extra" + struct.pack("<Q", len(dims))
    record += b"".join(struct.pack("<Q", dim) for dim in dims)
    path.write_bytes(path.read_bytes() + record + struct.pack("<d", 1.0))
    with pytest.raises(TrainingError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTHING HERE")
    with pytest.raises(TrainingError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_header_tensor_mismatch(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    # tamper with the header: claim a different embedding width
    header = read_header(path)
    header["backbone.embed_dim"] = 32
    header["backbone.n_heads"] = 2
    write_header(path, header)
    with pytest.raises((TrainingError, ValueError)):
        load_checkpoint(path)


def read_header(path):
    blob = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    size = int.from_bytes(blob[len(CHECKPOINT_MAGIC):start], "little")
    return json.loads(blob[start:start + size])


def write_header(path, header):
    """Replace a checkpoint's JSON header, keeping its tensor records."""
    blob = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    size = int.from_bytes(blob[len(CHECKPOINT_MAGIC):start], "little")
    encoded = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(CHECKPOINT_MAGIC + len(encoded).to_bytes(8, "little")
                     + encoded + blob[start + size:])


@pytest.mark.parametrize("edit", [
    lambda h: [1],
    lambda h: {**h, "window.lookback": None},
    lambda h: {**h, "decomposition.enabled": "false"},
    lambda h: {**h, "prompt_k": True},
    lambda h: {**h, "pooling": 3},
    lambda h: {k: v for k, v in h.items() if k != "n_anchors"},
    lambda h: {**h, "alignment_weight": float("nan")},
    lambda h: {**h, "alignment_weight": float("inf")},
], ids=["not_an_object", "null_int", "str_bool", "bool_int", "int_str",
        "missing_key", "nan_float", "inf_float"])
def test_checkpoint_malformed_header_raises(tmp_path, edit):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    write_header(path, edit(read_header(path)))
    with pytest.raises(TrainingError, match="invalid checkpoint config"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [{"backbone.max_seq_len": 200000},
                                  {"backbone.embed_dim": 4000},
                                  {"backbone.n_layers": 300},
                                  {"backbone.n_layers": 10 ** 9},
                                  {"backbone.ffn_mult": 4000},
                                  {"n_anchors": 25},
                                  {"n_channels": 200000}])
def test_checkpoint_header_cannot_size_the_allocation(tmp_path, edit):
    # each edit claims sizes the records do not hold; the load is refused
    # before the model is built, so the header sizes no allocation
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model(), path)
    write_header(path, {**read_header(path), **edit})
    tracemalloc.start()
    try:
        with pytest.raises(TrainingError, match="header claims"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size


# the header as the first S2IP1 writer spelled it: 23 keys, among them
# ``patch.length`` and two settings the model no longer has
PARENT_HEADER = {
    "window.lookback": 32, "window.horizon": 8, "window.stride": 1,
    "patch.length": 8, "patch.stride": 4,
    "decomposition.enabled": True, "decomposition.period": 8,
    "decomposition.trend_window": 9, "decomposition.method": "classical",
    "decomposition.stl_inner": 2,
    "backbone.embed_dim": 16, "backbone.n_layers": 1, "backbone.n_heads": 2,
    "backbone.max_seq_len": 16, "backbone.ffn_mult": 4,
    "backbone.dropout": 0.0,
    "prompt_k": 2, "n_anchors": 8, "alignment_weight": 0.01,
    "include_prompt_in_output": False, "pooling": "mean", "n_channels": 1,
    "revin_epsilon": 1e-05,
}


def test_checkpoint_with_parent_header_loads_bit_exact(tmp_path):
    model = tiny_model(seed=5)
    train(model, sine_windows(20, seed=6), [],
          TrainConfig(epochs=1, batch_size=8, seed=0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    renamed = {"patch.length": "patch.patch_length"}
    dropped = {"backbone.dropout", "revin_epsilon"}
    assert read_header(path) == {renamed.get(k, k): v
                                 for k, v in PARENT_HEADER.items()
                                 if k not in dropped}
    write_header(path, PARENT_HEADER)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    x = np.random.default_rng(7).normal(size=32)
    assert np.array_equal(loaded.forward_forecast(x, 0).forecast,
                          model.forward_forecast(x, 0).forecast)


def test_checkpoint_duplicate_tensor_rejected(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with open(path, "ab") as fh:
        write_record(fh, "revin.gamma", np.array([7.0]))
    with pytest.raises(TrainingError, match="duplicate tensor 'revin.gamma'"):
        load_checkpoint(path)


def test_checkpoint_tensor_name_not_utf8_is_corrupt(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    start = len(CHECKPOINT_MAGIC) + 8
    first_name = start + int.from_bytes(blob[len(CHECKPOINT_MAGIC):start],
                                        "little") + 8
    blob[first_name] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(TrainingError, match="corrupt checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("tamper", [
    lambda model: model.bank.map_weights.data.__setitem__((3, 5), np.nan),
    lambda model: model.backbone.params["positional"].data.__setitem__(
        (1, 2), -np.inf),
    lambda model: model.params["revin.gamma"].data.__setitem__(0, 0.0),
    lambda model: model.params["revin.gamma"].data.__setitem__(0, -1e-300),
    lambda model: model.params["revin.gamma"].data.__setitem__(0, 2.0 ** -512),
    lambda model: model.params["revin.gamma"].data.__setitem__(0, 2.0 ** 512),
], ids=["nan", "inf", "zero-gamma", "tiny-gamma", "gamma-below-bound",
        "gamma-above-bound"])
def test_checkpoint_with_nonfinite_value_or_zero_gamma_is_corrupt(tmp_path,
                                                                  tamper):
    # save_checkpoint refuses the values before it opens the file, so the
    # file load_checkpoint refuses is written record by record here
    model = tiny_model()
    tamper(model)
    path = tmp_path / "model.ckpt"
    with pytest.raises(TrainingError, match="model.ckpt: not saved: "):
        save_checkpoint(model, path)
    assert not path.exists()
    header = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    arrays = model.all_arrays()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little") + header)
        for name in sorted(arrays):
            write_record(fh, name, arrays[name])
    with pytest.raises(TrainingError, match="corrupt checkpoint"):
        load_checkpoint(path)


def test_a_gamma_driven_toward_0_aborts_with_the_best_parameters_restored(
        tmp_path, monkeypatch):
    # the first step of epoch 2 leaves revin.gamma at 2^-600 of its value,
    # below the bound, where the next loss overflows: train aborts and
    # restores epoch 1, which saves and loads; the driven model is not saved
    model = tiny_model()
    steps, epoch_1 = [], {}

    def driving_step(named, state, config):
        adam_step(named, state, config)
        steps.append(1)
        if len(steps) == 3:  # 20 windows in batches of 8: the end of epoch 1
            epoch_1.update((n, t.data.copy()) for n, t in named)
        if len(steps) == 4:
            gamma = model.params["revin.gamma"]
            gamma.data = gamma.data * 2.0 ** -600
            with pytest.raises(TrainingError, match="revin.gamma holds an entry"):
                save_checkpoint(model, tmp_path / "driven.ckpt")

    monkeypatch.setattr(training, "adam_step", driving_step)
    config = TrainConfig(epochs=3, batch_size=8, seed=0)
    with pytest.raises(TrainingError) as info, np.errstate(over="ignore"):
        train(model, sine_windows(20, seed=8), sine_windows(8, seed=5), config)
    assert str(info.value) == ("non-finite loss (inf) at epoch 2; best "
                               "parameters restored")
    assert len(steps) == 4 and not (tmp_path / "driven.ckpt").exists()
    for name, tensor in model.named_parameters():
        assert np.array_equal(tensor.data, epoch_1[name]), name
    save_checkpoint(model, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    assert np.array_equal(loaded.params["revin.gamma"].data,
                          epoch_1["revin.gamma"])


@pytest.mark.parametrize("gamma", [2.0 ** -511, -(2.0 ** 511), 2.0 ** 511,
                                   1e-150])
def test_checkpoint_gamma_at_its_bounds_loads(tmp_path, gamma):
    model = tiny_model()
    model.params["revin.gamma"].data[0] = gamma
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    assert load_checkpoint(path).params["revin.gamma"].data[0] == gamma


def test_checkpoint_with_huge_finite_values_loads(tmp_path):
    # 1e200 squared overflows; the values themselves are finite
    model = tiny_model()
    model.params["revin.beta"].data[0] = 1e200
    model.bank.map_weights.data[0, :3] = [-1e300, 1e300, 5e-324]
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.all_arrays()["revin.beta"],
                          model.all_arrays()["revin.beta"])
    assert np.array_equal(loaded.bank.map_weights.data,
                          model.bank.map_weights.data)


# ---------------------------------------------------------------------------
# seeded checkpoint fuzz: every corrupt file loads or raises TrainingError,
# and no load allocates more than a few times the file's size
# ---------------------------------------------------------------------------

FUZZ_CASES = 32
FUZZ_KINDS = ("truncate", "flip_structure", "flip_any")


def structure_offsets(blob):
    """Offsets of every byte of a checkpoint that is not tensor data: the
    magic, the header and each record's name length, name, rank and dims."""
    pos = len(CHECKPOINT_MAGIC)
    pos += 8 + int.from_bytes(blob[pos:pos + 8], "little")
    offsets = list(range(pos))
    while pos < len(blob):
        name_len = struct.unpack_from("<Q", blob, pos)[0]
        rank = struct.unpack_from("<Q", blob, pos + 8 + name_len)[0]
        dims = struct.unpack_from(f"<{rank}Q", blob, pos + 16 + name_len)
        end = pos + 16 + name_len + 8 * rank
        offsets.extend(range(pos, end))
        pos = end + 8 * int(np.prod(dims))
    return offsets


@pytest.fixture(scope="module")
def default_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(build_model(RunConfig({}), 1, 0), path)
    return path.read_bytes()


@pytest.mark.parametrize("kind", FUZZ_KINDS)
def test_seeded_checkpoint_fuzz(tmp_path, default_checkpoint, kind):
    blob = default_checkpoint
    structure = structure_offsets(blob)
    rng = np.random.default_rng([15, FUZZ_KINDS.index(kind)])
    path = tmp_path / "case.ckpt"
    for case in range(FUZZ_CASES):
        if kind == "truncate":
            data = blob[:int(rng.integers(len(blob)))]
        else:
            offset = (structure[int(rng.integers(len(structure)))]
                      if kind == "flip_structure"
                      else int(rng.integers(len(blob))))
            data = bytearray(blob)
            data[offset] ^= 1 << int(rng.integers(8))
        path.write_bytes(data)
        refused = False
        tracemalloc.start()
        try:
            load_checkpoint(path)
        except TrainingError:
            refused = True
        except Exception as exc:  # any other type breaks the contract
            pytest.fail(f"{kind} case {case}: {exc!r}")
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= 4 * len(data) + (1 << 20), (kind, case, peak)
        # a prefix lacks at least one record
        assert refused or kind != "truncate", (kind, case)


def test_validation_mse_is_the_mean_of_each_windows_mse_bit_for_bit():
    config = RunConfig({})
    pipeline = build_pipeline(config, 0)
    model = build_model(config, pipeline.frame.n_channels, 0)
    channels, inputs, targets = zip(*pipeline.val_windows)
    forecasts = model.forward_forecast(np.stack(inputs), channels).forecast
    expected = float(np.mean([mse_mae(y, f)[0]
                              for y, f in zip(targets, forecasts)]))
    assert training._validation_mse(model, pipeline.val_windows) == expected
