import numpy as np
import pytest

import s2ip.autodiff as ad
from s2ip.autodiff import Tape, Tensor, backward
from s2ip.backbone import (Backbone, BackboneConfig, BackboneError,
                           TrainabilityPolicy, default_policy, parameter_count)

SMALL = BackboneConfig(embed_dim=16, n_layers=1, n_heads=2, max_seq_len=12)


def test_init_deterministic():
    a = Backbone(BackboneConfig(embed_dim=64, n_layers=2, n_heads=4), seed=7)
    b = Backbone(BackboneConfig(embed_dim=64, n_layers=2, n_heads=4), seed=7)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_parameter_count_closed_form():
    config = BackboneConfig(embed_dim=64, n_layers=2, n_heads=4,
                            max_seq_len=128, ffn_mult=4)
    model = Backbone(config, seed=0)
    total = sum(t.data.size for t in model.params.values())
    d = 64
    per_layer = (4 * d * d + 4 * d) + (8 * d * d + 5 * d) + 4 * d
    expected = 2 * per_layer + 2 * d + 128 * d
    assert total == expected == parameter_count(config)


def test_config_validation():
    with pytest.raises(BackboneError):
        BackboneConfig(embed_dim=30, n_heads=4)
    with pytest.raises(BackboneError):
        BackboneConfig(embed_dim=16, n_layers=0)


def test_weight_file_round_trip(tmp_path):
    model = Backbone(SMALL, seed=3)
    path = tmp_path / "weights.bin"
    model.save_weights(path)
    other = Backbone(SMALL, seed=99, weights_path=path)
    for name in model.params:
        assert np.array_equal(model.params[name].data, other.params[name].data)


def test_weight_file_wrong_shape_names_tensor(tmp_path):
    model = Backbone(SMALL, seed=3)
    path = tmp_path / "weights.bin"
    model.save_weights(path)
    wrong = Backbone(BackboneConfig(embed_dim=8, n_layers=1, n_heads=2,
                                    max_seq_len=12), seed=0)
    with pytest.raises(BackboneError, match="shape mismatch for '"):
        wrong.load_weights(path)


def test_forward_shape_contract():
    model = Backbone(BackboneConfig(embed_dim=64, n_layers=2, n_heads=4,
                                    max_seq_len=16), seed=1)
    rng = np.random.default_rng(0)
    out = model.forward(Tensor(rng.normal(size=(2, 10, 64))))
    assert out.shape == (2, 10, 64)


def test_forward_length_limit():
    model = Backbone(SMALL, seed=1)
    with pytest.raises(BackboneError):
        model.forward(Tensor(np.zeros((1, 13, 16))))


def test_causality_single_perturbation():
    model = Backbone(SMALL, seed=2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 10, 16))
    base = model.forward(Tensor(x)).data
    bumped = x.copy()
    bumped[0, 9] += rng.normal(size=16)
    out = model.forward(Tensor(bumped)).data
    assert np.max(np.abs(out[0, :9] - base[0, :9])) <= 1e-12


def test_causality_randomized():
    model = Backbone(SMALL, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(25):
        length = int(rng.integers(2, SMALL.max_seq_len + 1))
        pos = int(rng.integers(1, length))
        x = rng.normal(size=(1, length, 16))
        base = model.forward(Tensor(x)).data
        bumped = x.copy()
        bumped[0, pos:] += rng.normal(size=(length - pos, 16))
        out = model.forward(Tensor(bumped)).data
        assert np.max(np.abs(out[0, :pos] - base[0, :pos])) <= 1e-12


def test_zero_input_deterministic():
    model = Backbone(SMALL, seed=6)
    model.params["positional"].data = np.zeros_like(
        model.params["positional"].data)
    x = np.zeros((1, 4, 16))
    first = model.forward(Tensor(x)).data
    second = model.forward(Tensor(x)).data
    assert np.array_equal(first, second)
    # every position sees the same (bias-only) input, so rows agree
    assert np.allclose(first[0, 0], first[0, -1])


def test_policy_selects_positional_and_norms():
    model = Backbone(SMALL, seed=7)
    names = [name for name, _ in model.apply_policy(default_policy())]
    assert "positional" in names
    assert all(("ln" in n) or n == "positional" for n in names)
    expected_norms = {"layer.0.ln1.gain", "layer.0.ln1.bias",
                      "layer.0.ln2.gain", "layer.0.ln2.bias",
                      "final_ln.gain", "final_ln.bias"}
    assert expected_norms.issubset(set(names))
    for name, tensor in model.params.items():
        assert tensor.requires_grad == (name in names)


def test_policy_all_false_is_empty():
    model = Backbone(SMALL, seed=8)
    assert model.apply_policy(
        TrainabilityPolicy(False, False, False, False)) == []


def test_frozen_weights_get_no_gradient():
    model = Backbone(SMALL, seed=9)
    model.apply_policy(default_policy())
    rng = np.random.default_rng(10)
    with Tape():
        out = model.forward(Tensor(rng.normal(size=(1, 6, 16))))
        loss = ad.tsum(ad.mul(out, out))
    backward(loss)
    for name, tensor in model.params.items():
        if ".attn." in name or ".ffn." in name:
            assert tensor.grad is None, name
        else:
            assert tensor.grad is not None, name


def test_forward_gradients_match_finite_differences():
    model = Backbone(SMALL, seed=11)
    trainable = model.apply_policy(default_policy())
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 5, 16))
    weight = rng.normal(size=(1, 5, 16))

    def f():
        out = model.forward(Tensor(x))
        return ad.tsum(ad.mul(out, Tensor(weight)))

    tensors = [t for _, t in trainable]
    assert ad.grad_check(f, tensors, eps=1e-5) <= 1e-6
