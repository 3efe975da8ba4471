import numpy as np
import pytest

import s2ip.autodiff as ad
import s2ip.model as model_module
from s2ip.backbone import BackboneConfig, TrainabilityPolicy
from s2ip.autodiff import Tensor
from s2ip.model import DecompositionConfig, ForecastModel, ModelConfig, ModelError
from s2ip.preprocess import DEFAULT_EPSILON, PatchSpec
from s2ip.prompt import clustered_vocabulary, score_all
from s2ip.series import WindowSpec
from s2ip.training import AdamState, TrainConfig, adam_step


def tiny_config(**overrides):
    defaults = dict(
        window=WindowSpec(32, 8),
        patch=PatchSpec(8, 4),
        decomposition=DecompositionConfig(period=8, trend_window=9),
        backbone=BackboneConfig(embed_dim=16, n_layers=1, n_heads=2,
                                max_seq_len=16),
        prompt_k=2,
        n_anchors=8,
        alignment_weight=0.01,
        n_channels=2,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def tiny_model(seed=0, **overrides):
    config = tiny_config(**overrides)
    embedding = clustered_vocabulary(50, config.backbone.embed_dim, seed=seed)
    return ForecastModel(config, embedding, seed=seed)


def forward_one(model, x, channel):
    """``forward``'s pass over a batch of one window."""
    return model.forward(np.asarray(x)[None], [channel])


def make_batch(model, n, seed=0):
    rng = np.random.default_rng(seed)
    tau = model.config.window.lookback
    horizon = model.config.window.horizon
    batch = []
    for _ in range(n):
        channel = int(rng.integers(model.config.n_channels))
        t = np.arange(tau + horizon)
        series = (np.sin(2 * np.pi * t / 8) + 0.05 * t
                  + rng.normal(0, 0.1, size=t.size))
        batch.append((channel, series[:tau], series[tau:]))
    return batch


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_patch_count():
    config = ModelConfig(window=WindowSpec(96, 24), patch=PatchSpec(16, 8))
    assert config.n_patches == 12
    assert config.meta_width == 48
    assert config.output_dim == 72


def test_config_validation_errors():
    with pytest.raises(ModelError):
        tiny_config(prompt_k=-1)
    with pytest.raises(ModelError):
        tiny_config(prompt_k=9)  # exceeds n_anchors
    with pytest.raises(ModelError):
        tiny_config(alignment_weight=-0.5)
    with pytest.raises(ModelError):
        tiny_config(patch=PatchSpec(64, 8))  # longer than lookback
    with pytest.raises(ModelError):
        tiny_config(backbone=BackboneConfig(embed_dim=16, n_layers=1,
                                            n_heads=2, max_seq_len=8))


def test_config_round_trips_through_dict():
    config = tiny_config()
    assert ModelConfig.from_dict(config.to_dict()) == config


def test_config_from_dict_takes_an_int_for_a_float():
    header = {**tiny_config().to_dict(), "alignment_weight": 1}
    weight = ModelConfig.from_dict(header).alignment_weight
    assert weight == 1.0 and type(weight) is float


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

def test_embedding_shape_96_16_8():
    model = ForecastModel(
        ModelConfig(window=WindowSpec(96, 24), patch=PatchSpec(16, 8),
                    backbone=BackboneConfig(embed_dim=64, n_layers=1,
                                            n_heads=4, max_seq_len=32)),
        clustered_vocabulary(100, 64, seed=0), seed=0)
    x = np.random.default_rng(0).normal(size=(3, 96))
    ts_embed = model.tokenize_and_embed(x, [0, 0, 0])[0]
    assert ts_embed.shape == (3, 12, 64)


def test_constant_window_embeds_to_bias():
    # constant input -> zero normalized series -> zero meta token (beta = 0),
    # so every patch row embeds to the projection bias
    model = tiny_model()
    ts_embed, mean, _ = model.tokenize_and_embed(np.full((1, 32), 7.0), [0])
    bias = model.params["input_projection.bias"].data
    assert np.allclose(ts_embed.data, np.broadcast_to(bias, ts_embed.shape),
                       atol=1e-12)
    assert mean[0] == 7.0


def test_tokenize_deterministic():
    model = tiny_model()
    x = np.random.default_rng(1).normal(size=(2, 32))
    a = model.tokenize_and_embed(x, [1, 0])[0]
    b = model.tokenize_and_embed(x, [1, 0])[0]
    assert np.array_equal(a.data, b.data)


def test_tokenize_rejects_wrong_length():
    model = tiny_model()
    with pytest.raises(ModelError):
        model.tokenize_and_embed(np.zeros((1, 31)), [0])
    with pytest.raises(ModelError):
        model.tokenize_and_embed(np.zeros((1, 32)), [5])
    with pytest.raises(ModelError):
        model.tokenize_and_embed(np.zeros((2, 32)), [0])
    with pytest.raises(ModelError):
        model.forward_forecast(np.zeros(31), 0)


def test_normalized_embedding_invariant_to_affine_input(monkeypatch):
    # (a x + b) has identical z-scores for a > 0 (up to the normalization
    # epsilon, so use a tiny one here); retrieval indices follow suit
    monkeypatch.setattr("s2ip.model.DEFAULT_EPSILON", 1e-12)
    model = tiny_model()
    rng = np.random.default_rng(2)
    x = rng.normal(size=32)
    base_embed = model.tokenize_and_embed(x[None], [0])[0]
    base = forward_one(model, x, 0).selections[0]
    for a, b in ((2.0, 0.0), (0.5, -3.0), (10.0, 100.0)):
        embed = model.tokenize_and_embed((a * x + b)[None], [0])[0]
        assert np.allclose(embed.data, base_embed.data, atol=1e-9)
        result = forward_one(model, a * x + b, 0).selections[0]
        assert result.indices == base.indices


def test_retrieval_indices_invariant_at_default_epsilon():
    model = tiny_model()
    rng = np.random.default_rng(22)
    x = rng.normal(size=32)
    base = forward_one(model, x, 0).selections[0]
    for a, b in ((2.0, 0.0), (0.5, -3.0), (10.0, 100.0)):
        result = forward_one(model, a * x + b, 0).selections[0]
        assert result.indices == base.indices


# ---------------------------------------------------------------------------
# forward forecast
# ---------------------------------------------------------------------------

def test_forecast_shape_contract():
    model = tiny_model()
    x = np.random.default_rng(3).normal(size=32)
    assert model.forward_forecast(x, 0).forecast.shape == (8,)
    out = forward_one(model, x, 0)
    assert out.selections[0].k == 2
    assert out.components.shape == (1, 3 * 8)


def test_forecast_without_prompt():
    model = tiny_model(prompt_k=0)
    x = np.random.default_rng(4).normal(size=32)
    assert model.forward_forecast(x, 0).forecast.shape == (8,)
    assert forward_one(model, x, 0).selections[0].k == 0


def test_forecast_without_decomposition():
    model = tiny_model(decomposition=DecompositionConfig(enabled=False))
    x = np.random.default_rng(5).normal(size=32)
    assert model.forward_forecast(x, 0).forecast.shape == (8,)
    assert forward_one(model, x, 0).components.shape == (1, 8)


def test_forecast_component_recombination():
    model = tiny_model()
    rng = np.random.default_rng(6)
    for _ in range(10):
        out = forward_one(model, rng.normal(size=32), 1)
        summed = out.components.data.reshape(3, 8).sum(axis=0)
        assert np.max(np.abs(summed - out.normalized_forecast.data[0])) <= 1e-12


def test_forecast_prompt_rows_feed_backbone():
    # with include_prompt_in_output the projection consumes K extra positions
    model = tiny_model(include_prompt_in_output=True)
    expected = (model.config.prompt_k + model.config.n_patches) * 16
    assert model.params["output_projection.weight"].shape[0] == expected
    x = np.random.default_rng(7).normal(size=32)
    assert model.forward_forecast(x, 0).forecast.shape == (8,)


# ---------------------------------------------------------------------------
# joint loss
# ---------------------------------------------------------------------------

def test_loss_lambda_zero_is_mse():
    model = tiny_model(alignment_weight=0.0)
    batch = make_batch(model, 4, seed=8)
    loss = model.joint_loss(batch).item()
    per_window = []
    for channel, x, y in batch:
        result = model.forward_forecast(x, channel)
        per_window.append(np.mean((result.forecast - y) ** 2))
    assert loss == pytest.approx(np.mean(per_window), abs=1e-12)


def test_loss_decomposes_into_mse_minus_alignment():
    # the weight does not enter initialization: both models hold the same
    # parameters
    lam = 0.037
    model = tiny_model(alignment_weight=lam)
    batch = make_batch(model, 3, seed=9)
    loss = model.joint_loss(batch).item()
    mse = tiny_model(alignment_weight=0.0).joint_loss(batch).item()
    aligns = []
    for channel, x, _ in batch:
        out = forward_one(model, x, channel)
        scores = score_all(out.ts_embed.data[0], model.bank.anchors())
        aligns.append(sum(scores[i] for i in out.selections[0].indices))
    assert loss == pytest.approx(mse - lam * np.mean(aligns), abs=1e-12)


def test_loss_perfect_forecast_is_minus_lambda_alignment():
    lam = 0.05
    model = tiny_model(alignment_weight=lam)
    rng = np.random.default_rng(10)
    xs = [rng.normal(size=32) for _ in range(2)]
    batch = [(0, x, model.forward_forecast(x, 0).forecast) for x in xs]
    loss = model.joint_loss(batch).item()
    aligns = [sum(forward_one(model, x, 0).selections[0].scores) for x in xs]
    assert loss == pytest.approx(-lam * np.mean(aligns), abs=1e-10)


def test_loss_empty_batch_rejected():
    with pytest.raises(ModelError):
        tiny_model().joint_loss([])


def test_loss_differentiable_end_to_end():
    model = tiny_model(n_channels=1)
    batch = make_batch(model, 2, seed=11)
    params = [t for _, t in model.named_parameters()]

    def f():
        return model.joint_loss(batch)

    err = ad.grad_check(f, [params[0], params[-1]], eps=1e-5)
    assert err <= 1e-4


def test_loss_grad_check_with_every_backbone_group_trainable():
    # attention and feed-forward weights are frozen by default, so only
    # this policy checks their gradients through the whole model
    config = tiny_config(backbone=BackboneConfig(embed_dim=8, n_layers=1,
                                                 n_heads=2, max_seq_len=16,
                                                 ffn_mult=2))
    model = ForecastModel(config, clustered_vocabulary(50, 8, seed=1), seed=1,
                          policy=TrainabilityPolicy(True, True, True, True))
    batch = make_batch(model, 2, seed=13)
    weights = [t for name, t in model.named_parameters()
               if ".attn." in name or ".ffn." in name]
    assert len(weights) == 11  # every attention and FFN array but attn.bk

    def f():
        return model.joint_loss(batch)

    assert ad.grad_check(f, weights, eps=1e-5) <= 1e-4


def test_an_all_trainable_step_leaves_the_attention_key_bias():
    # softmax cancels the key bias, whose exact gradient is 0: checkpoints
    # keep it, but no policy trains it
    config = tiny_config()
    model = ForecastModel(config, clustered_vocabulary(50, 16), seed=0,
                          policy=TrainabilityPolicy(True, True, True, True))
    names = [name for name, _ in model.named_parameters()]
    assert "backbone.layer.0.attn.bk" not in names
    assert "backbone.layer.0.attn.bk" in model.all_arrays()
    params = model.backbone.params
    params["layer.0.attn.bk"].data[:] = np.linspace(-0.1, 0.1, 16)
    before = {name: params[name].data.copy()
              for name in ("layer.0.attn.bk", "layer.0.attn.bq")}
    named = model.named_parameters()
    state = AdamState(named)
    for seed in range(2):
        with ad.Tape():
            loss = model.joint_loss(make_batch(model, 3, seed=seed))
        ad.backward(loss)
        adam_step(named, state, TrainConfig(learning_rate=0.05))
    assert params["layer.0.attn.bk"].grad is None
    assert np.array_equal(params["layer.0.attn.bk"].data,
                          before["layer.0.attn.bk"])
    assert not np.array_equal(params["layer.0.attn.bq"].data,
                              before["layer.0.attn.bq"])


@pytest.mark.parametrize("pooling, nodes", [("mean", 62), ("per_patch", 62)])
def test_step_computes_no_frozen_gradient(pooling, nodes, monkeypatch):
    # one training step's backward computes a gradient for no tensor that
    # does not require one, on tapes of a fixed size: one per share, the
    # caller's also holding the sum of the shares' parts
    for threads in (1, 2):
        monkeypatch.setattr(model_module, "FORECAST_THREADS", threads)
        check_no_frozen_gradient(pooling, [nodes] if threads == 1
                                 else [nodes + 1, nodes])


def check_no_frozen_gradient(pooling, nodes):
    model = tiny_model(pooling=pooling)
    with ad.Tape() as tape:
        loss = model.joint_loss(make_batch(model, 4, seed=12))
    tapes = [tape] + [part.tape for part in (tape.shares or (0, ()))[1]]
    assert [len(t) for t in tapes] == nodes
    targets = []

    def spy(fn):
        def backward_fn(g):
            pairs = fn(g)
            targets.extend(tensor for tensor, _ in pairs)
            return pairs
        return backward_fn

    for node in (node for t in tapes for node in t.nodes):
        node.backward_fn = spy(node.backward_fn)
    ad.backward(loss)
    assert targets and all(tensor.requires_grad for tensor in targets)
    frozen = [name for name, t in model.backbone.params.items()
              if not t.requires_grad]
    assert frozen and all(model.backbone.params[name].grad is None
                          for name in frozen)
    for _, tensor in model.named_parameters():
        assert tensor.grad is not None


def test_trainable_parameter_listing():
    model = tiny_model()
    names = [name for name, _ in model.named_parameters()]
    assert "input_projection.weight" in names
    assert "output_projection.weight" in names
    assert "anchor_map.weight" in names
    assert "revin.gamma" in names and "revin.beta" in names
    assert "backbone.positional" in names
    assert any("final_ln" in n for n in names)
    assert not any(".attn." in n or ".ffn." in n for n in names)
    assert len(names) == len(set(names))
    for _, tensor in model.named_parameters():
        assert tensor.requires_grad


# ---------------------------------------------------------------------------
# recombination
# ---------------------------------------------------------------------------

def test_recombine_zero_components():
    model = tiny_model(window=WindowSpec(32, 2))
    y = np.array([[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(model._recombine(Tensor(y)).data, [[1.0, 2.0]])


def test_recombine_sums_segments():
    model = tiny_model(window=WindowSpec(32, 2))
    y = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                  [0.5, 0.0, 0.5, 0.0, 0.5, 0.0]])
    assert np.array_equal(model._recombine(Tensor(y)).data,
                          [[9.0, 12.0], [1.5, 0.0]])


def test_recombine_matches_oracle():
    # the forecast is the summed components mapped back through each
    # channel's affine pair and the window's own statistics
    model = tiny_model()
    rng = np.random.default_rng(12)
    model.params["revin.gamma"].data = rng.uniform(0.5, 2.0, size=2)
    model.params["revin.beta"].data = rng.normal(size=2)
    eps = DEFAULT_EPSILON
    for _ in range(20):
        channel = int(rng.integers(2))
        x = rng.normal(rng.normal(), rng.uniform(0.1, 4.0), size=32)
        result = model.forward_forecast(x, channel)
        combined = forward_one(model, x, channel).components.data.reshape(
            3, 8).sum(axis=0)
        expected = ((combined - model.params["revin.beta"].data[channel])
                    / model.params["revin.gamma"].data[channel]
                    * np.sqrt(x.var() + eps) + x.mean())
        assert np.max(np.abs(result.forecast - expected)) <= 1e-12


@pytest.mark.parametrize("method", ["classical", "stl"])
def test_tokenization_matches_direct_pipeline(method):
    # the model scales the decomposed z-scores by (gamma, beta) through the
    # linearity of decomposition and patching; that must agree with running
    # normalize -> decompose -> patch -> concatenate directly
    from s2ip.preprocess import decompose, patch, revin_normalize

    model = tiny_model(decomposition=DecompositionConfig(
        period=8, trend_window=9, method=method))
    rng = np.random.default_rng(13)
    for trial in range(5):
        gamma = float(rng.uniform(0.5, 2.0))
        beta = float(rng.normal())
        model.params["revin.gamma"].data = np.full(2, gamma)
        model.params["revin.beta"].data = np.full(2, beta)
        x = rng.normal(size=32) * 3.0 + 1.0

        normalized, _ = revin_normalize(x, gamma=gamma, beta=beta,
                                        epsilon=DEFAULT_EPSILON)
        dec = decompose(normalized, 8, 9, method=method)
        spec = model.config.patch
        meta = np.hstack([patch(dec.trend, spec), patch(dec.seasonal, spec),
                          patch(dec.residual, spec)])
        expected = (meta @ model.params["input_projection.weight"].data
                    + model.params["input_projection.bias"].data)
        ts_embed = model.tokenize_and_embed(x[None], [0])[0]
        assert np.max(np.abs(ts_embed.data[0] - expected)) <= 1e-12
