import numpy as np
import pytest

import s2ip.autodiff as ad
from s2ip.autodiff import Tensor
from s2ip.backbone import BackboneConfig
from s2ip.model import DecompositionConfig, ModelConfig
from s2ip.model import ForecastModel
from s2ip.preprocess import PatchSpec
from s2ip.prompt import clustered_vocabulary
from s2ip.series import WindowSpec
from s2ip.training import (AdamState, TrainConfig, TrainingError, adam_step,
                           clip_gradients, load_checkpoint, save_checkpoint,
                           train)


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
    expected = -0.1 * 1.0 / (1.0 + config.adam_eps)
    assert p.data[0] == pytest.approx(expected, abs=1e-15)
    assert p.grad is None  # cleared afterwards


def test_adam_skips_missing_grad():
    p = Tensor([5.0], requires_grad=True)
    named = [("p", p)]
    adam_step(named, AdamState(named), TrainConfig())
    assert p.data[0] == 5.0


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


def test_best_parameters_restored():
    model = tiny_model()
    data = sine_windows(40, seed=6)
    val = sine_windows(12, seed=7)
    config = TrainConfig(learning_rate=5e-3, epochs=6, batch_size=16,
                         early_stop_patience=6, seed=0)
    report = train(model, data, val, config)
    errors = [np.mean((model.forward_forecast(x, c).forecast - y) ** 2)
              for c, x, y in val]
    assert np.mean(errors) == pytest.approx(min(report.val_mses), abs=1e-9)
    assert report.best_epoch == int(np.argmin(report.val_mses)) + 1


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


def test_checkpoint_truncated(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(TrainingError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTHING HERE")
    with pytest.raises(TrainingError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_header_tensor_mismatch(tmp_path):
    import json

    from s2ip.training import CHECKPOINT_MAGIC

    model = tiny_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    # tamper with the header: claim a different embedding width
    header_len = int.from_bytes(blob[len(CHECKPOINT_MAGIC):
                                     len(CHECKPOINT_MAGIC) + 8], "little")
    start = len(CHECKPOINT_MAGIC) + 8
    header = json.loads(blob[start:start + header_len])
    header["backbone.embed_dim"] = 32
    header["backbone.heads" if "backbone.heads" in header
           else "backbone.n_heads"] = 2
    new_header = json.dumps(header, sort_keys=True).encode()
    tampered = (blob[:len(CHECKPOINT_MAGIC)]
                + len(new_header).to_bytes(8, "little") + new_header
                + blob[start + header_len:])
    path.write_bytes(tampered)
    with pytest.raises((TrainingError, ValueError)):
        load_checkpoint(path)
