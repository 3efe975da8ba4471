"""The batch-first forward against a per-window reference.

The reference below is the model's forward written one window at a time:
each window is tokenized, scored and prompted on its own, the
normalization is inverted row by row, and the alignment bonus is one term
per window. The batched path must reproduce its forecasts, losses and
gradients.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import s2ip.autodiff as ad
from s2ip import harness, prompt
from s2ip.autodiff import Tape, Tensor, active_tape, backward
from s2ip.backbone import BackboneConfig
from s2ip.config import RunConfig
from s2ip.model import (FORECAST_CHUNK, DecompositionConfig, ForecastModel,
                        ModelConfig, ModelError)
from s2ip.preprocess import DEFAULT_EPSILON, PatchSpec, decompose, patch
from s2ip.prompt import clustered_vocabulary
from s2ip.series import WindowSpec
from s2ip.training import AdamState, TrainConfig, adam_step

DEGENERATE_NORM = 1e-12


# ---------------------------------------------------------------------------
# per-window reference
# ---------------------------------------------------------------------------

def ref_tokenize(model, x, channel):
    cfg = model.config
    mean, var = float(x.mean()), float(x.var())
    scale = float(np.sqrt(var + DEFAULT_EPSILON))
    gamma = ad.gather_rows(model.params["revin.gamma"], [channel])
    beta = ad.gather_rows(model.params["revin.beta"], [channel])
    z = (x - mean) / scale
    lp = cfg.patch.patch_length
    if cfg.decomposition.enabled:
        extra = ({"inner_iterations": cfg.decomposition.stl_inner}
                 if cfg.decomposition.method == "stl" else {})
        dec = decompose(z, cfg.decomposition.period,
                        cfg.decomposition.trend_window,
                        method=cfg.decomposition.method, **extra)
        meta_z = np.hstack([patch(dec.trend, cfg.patch),
                            patch(dec.seasonal, cfg.patch),
                            patch(dec.residual, cfg.patch)])
        shift_mask = np.hstack([np.ones((meta_z.shape[0], lp)),
                                np.zeros((meta_z.shape[0], 2 * lp))])
    else:
        meta_z = patch(z, cfg.patch)
        shift_mask = np.ones_like(meta_z)
    meta = ad.add(ad.mul(Tensor(meta_z), gamma), ad.mul(Tensor(shift_mask), beta))
    ts_embed = ad.add(ad.matmul(meta, model.params["input_projection.weight"]),
                      model.params["input_projection.bias"])
    return ts_embed, mean, scale


def ref_scores(ts_embed, anchors, pooling):
    anchor_norms = np.linalg.norm(anchors, axis=1)
    if pooling == "mean":
        pooled = ts_embed.mean(axis=0)
        p_norm = np.linalg.norm(pooled)
        if p_norm < DEGENERATE_NORM:
            return np.zeros(anchors.shape[0])
        scores = anchors @ pooled / (anchor_norms * p_norm)
    else:
        row_norms = np.linalg.norm(ts_embed, axis=1, keepdims=True)
        cosines = (ts_embed / row_norms) @ (anchors / anchor_norms[:, None]).T
        scores = cosines.mean(axis=0)
    return scores


def ref_alignment(ts_embed, indices, anchors, pooling):
    selected = ad.gather_rows(anchors, indices)
    if pooling == "mean":
        pooled = ad.tmean(ts_embed, axis=0)
        d = pooled.shape[0]
        num = ad.matmul(selected, ad.reshape(pooled, (d, 1)))
        row_sq = ad.tsum(ad.mul(selected, selected), axis=1, keepdims=True)
        pooled_sq = ad.tsum(ad.mul(pooled, pooled))
        denom = ad.mul(ad.sqrt(row_sq), ad.sqrt(pooled_sq))
        return ad.tsum(ad.div(num, denom))
    num = ad.matmul(ts_embed, ad.transpose(selected))
    row_norm = ad.sqrt(ad.tsum(ad.mul(ts_embed, ts_embed), axis=1, keepdims=True))
    row_norms = ad.matmul(row_norm, Tensor(np.ones((1, len(indices)))))
    anchor_norm = ad.sqrt(ad.tsum(ad.mul(selected, selected), axis=1))
    cosines = ad.div(ad.div(num, row_norms), anchor_norm)
    return ad.tsum(ad.tmean(cosines, axis=0))


def ref_window(model, x, channel, anchors):
    """One window up to the backbone input: (ts_embed, mean, scale,
    selected indices, backbone input of shape (L, D))."""
    ts_embed, mean, scale = ref_tokenize(model, x, channel)
    k = model.config.prompt_k
    if k == 0:
        return ts_embed, mean, scale, [], ts_embed
    scores = ref_scores(ts_embed.data, anchors.data, model.config.pooling)
    indices = [int(i) for i in np.argsort(-scores, kind="stable")[:k]]
    z_in = ad.concat([ad.gather_rows(anchors, indices), ts_embed], axis=0)
    return ts_embed, mean, scale, indices, z_in


def ref_head(model, z_out):
    cfg = model.config
    batch = z_out.shape[0]
    if cfg.prompt_k > 0 and not cfg.include_prompt_in_output:
        start, length = cfg.prompt_k, cfg.n_patches
    else:
        start, length = 0, z_out.shape[1]
    flat = ad.reshape(ad.narrow(z_out, 1, start, length),
                      (batch, length * cfg.backbone.embed_dim))
    y_out = ad.add(ad.matmul(flat, model.params["output_projection.weight"]),
                   model.params["output_projection.bias"])
    if not cfg.decomposition.enabled:
        return y_out, y_out
    h = cfg.window.horizon
    parts = [ad.narrow(y_out, 1, i * h, h) for i in range(3)]
    return y_out, ad.add(ad.add(parts[0], parts[1]), parts[2])


def ref_denormalize(model, y_norm, channels, means, scales):
    rows = []
    for i, (channel, mean, scale) in enumerate(zip(channels, means, scales)):
        gamma = ad.gather_rows(model.params["revin.gamma"], [channel])
        beta = ad.gather_rows(model.params["revin.beta"], [channel])
        row = ad.div(ad.sub(ad.narrow(y_norm, 0, i, 1), beta), gamma)
        rows.append(ad.add(ad.mul(row, scale), mean))
    return rows[0] if len(rows) == 1 else ad.concat(rows, axis=0)


def ref_forecast(model, x, channel):
    anchors = model.bank.anchors_tensor() if model.config.prompt_k else None
    ts_embed, mean, scale, indices, z_in = ref_window(model, x, channel, anchors)
    z_out = model.backbone.forward(ad.reshape(z_in, (1,) + z_in.shape))
    y_out, y_norm = ref_head(model, z_out)
    yhat = ref_denormalize(model, y_norm, [channel], [mean], [scale])
    return yhat.data[0], y_norm.data[0], y_out.data[0], ts_embed.data, indices


def ref_joint_loss(model, batch, lam):
    cfg = model.config
    anchors = model.bank.anchors_tensor() if cfg.prompt_k else None
    windows = [ref_window(model, x, channel, anchors) for channel, x, _ in batch]
    z_in = ad.concat([ad.reshape(w[4], (1,) + w[4].shape) for w in windows],
                     axis=0)
    _, y_norm = ref_head(model, model.backbone.forward(z_in))
    yhat = ref_denormalize(model, y_norm, [c for c, _, _ in batch],
                           [w[1] for w in windows], [w[2] for w in windows])
    err = ad.sub(yhat, Tensor(np.stack([y for _, _, y in batch])))
    loss = ad.tmean(ad.mul(err, err))
    if cfg.prompt_k > 0:
        terms = [ad.reshape(ref_alignment(w[0], w[3], anchors, cfg.pooling), (1,))
                 for w in windows]
        bonus = ad.tmean(ad.concat(terms, axis=0))
        loss = ad.sub(loss, ad.mul(bonus, lam))
    return loss


# ---------------------------------------------------------------------------
# models and data
# ---------------------------------------------------------------------------

STL = DecompositionConfig(period=8, trend_window=9, method="stl")
CONFIGS = {
    "classical-mean": {},
    "classical-per_patch": {"pooling": "per_patch"},
    "stl-mean": {"decomposition": STL},
    "stl-per_patch": {"decomposition": STL, "pooling": "per_patch"},
    "no-decomposition": {"decomposition": DecompositionConfig(enabled=False)},
    "no-prompt": {"prompt_k": 0},
    "prompt-in-output": {"include_prompt_in_output": True},
}


def make_model(seed=0, **overrides):
    settings = dict(
        window=WindowSpec(32, 8),
        patch=PatchSpec(8, 4),
        decomposition=DecompositionConfig(period=8, trend_window=9),
        backbone=BackboneConfig(embed_dim=16, n_layers=1, n_heads=2,
                                max_seq_len=16),
        prompt_k=2,
        n_anchors=8,
        alignment_weight=0.05,
        n_channels=2,
    )
    settings.update(overrides)
    model = ForecastModel(ModelConfig(**settings),
                          clustered_vocabulary(50, 16, seed=seed), seed=seed)
    # distinct affine pairs per channel, so a wrong channel gather shows
    rng = np.random.default_rng(seed + 100)
    model.params["revin.gamma"].data = rng.uniform(0.6, 1.6, size=2)
    model.params["revin.beta"].data = rng.normal(0.0, 0.3, size=2)
    return model


def make_batch(n, seed=0, tau=32, horizon=8):
    rng = np.random.default_rng(seed)
    t = np.arange(tau + horizon, dtype=np.float64)
    batch = []
    for i in range(n):
        series = (rng.uniform(0.5, 3.0) * np.sin(2 * np.pi * t / 8 + i)
                  + rng.normal(0.0, 0.2) * t + rng.normal(0, 0.3, size=t.size)
                  + rng.normal(0.0, 5.0))
        batch.append((i % 2, series[:tau], series[tau:]))
    return batch


def gradients(model, loss_fn):
    for _, tensor in model.named_parameters():
        tensor.grad = None
    with Tape():
        loss = loss_fn()
    backward(loss)
    grads = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
             for name, t in model.named_parameters()}
    for _, tensor in model.named_parameters():
        tensor.grad = None
    return loss.item(), grads


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(CONFIGS))
def test_forward_forecast_matches_per_window_reference(name):
    model = make_model(**CONFIGS[name])
    for channel, x, _ in make_batch(6, seed=1):
        forecast, y_norm, y_out, ts_embed, indices = ref_forecast(model, x, channel)
        result = model.forward_forecast(x, channel)
        assert list(result.selection.indices) == indices
        assert np.max(np.abs(result.forecast - forecast)) <= 1e-12
        assert np.max(np.abs(result.normalized_forecast - y_norm)) <= 1e-12
        assert np.max(np.abs(result.normalized_components.reshape(-1)
                             - y_out)) <= 1e-12
        assert np.max(np.abs(result.ts_embed - ts_embed)) <= 1e-12


@pytest.mark.parametrize("name", list(CONFIGS))
def test_joint_loss_and_gradients_match_per_window_reference(name):
    model = make_model(seed=3, **CONFIGS[name])
    batch = make_batch(6, seed=2)
    lam = model.config.alignment_weight
    ref_value, ref_grads = gradients(model, lambda: ref_joint_loss(model, batch,
                                                                   lam))
    value, grads = gradients(model, lambda: model.joint_loss(batch))
    assert abs(value - ref_value) <= 1e-12
    for param, expected in ref_grads.items():
        assert np.max(np.abs(grads[param] - expected)) <= 1e-10, param


# one window, short and full chunks, and two full chunks and a short one
PREDICT_SIZES = sorted({1, 8, 19, FORECAST_CHUNK, 2 * FORECAST_CHUNK + 3})


@pytest.mark.parametrize("n", PREDICT_SIZES)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_predict_matches_per_window_forecasts(name, n):
    model = make_model(**CONFIGS[name])
    batch = make_batch(n, seed=4)
    forecasts = model.predict(np.stack([x for _, x, _ in batch]),
                              [channel for channel, _, _ in batch])
    assert forecasts.shape == (n, model.config.window.horizon)
    for row, (channel, x, _) in zip(forecasts, batch):
        expected = model.forward_forecast(x, channel).forecast
        assert np.max(np.abs(row - expected)) <= 1e-12


def test_predict_runs_tape_free_chunks():
    model = make_model()
    batch = make_batch(2 * FORECAST_CHUNK + 3, seed=5)
    x = np.stack([x for _, x, _ in batch])
    passes, forward = [], model.forward
    model.forward = lambda *args: passes.append(forward(*args)) or passes[-1]
    model.predict(x, [channel for channel, _, _ in batch])
    assert [p.forecast.shape[0] for p in passes] == [FORECAST_CHUNK,
                                                     FORECAST_CHUNK, 3]
    assert all(p.forecast.tape is None and not p.forecast.requires_grad
               for p in passes)
    assert active_tape() is None
    with pytest.raises(ModelError, match="one channel per window"):
        model.predict(x, [0] * (len(batch) + 1))


@pytest.mark.parametrize("name", ["classical-mean", "no-prompt"])
def test_predict_derives_the_anchors_once_per_call(name, monkeypatch):
    """Tape-free, the bank derives the anchors on a cold cache, reuses them
    while the map is unchanged, and derives again after an in-place write."""
    model = make_model(**CONFIGS[name])
    batch = make_batch(2 * FORECAST_CHUNK + 3, seed=6)
    x = np.stack([x for _, x, _ in batch])
    channels = np.array([channel for channel, _, _ in batch])
    # what predict computes when each chunk's forward derives its own anchors
    with Tape():
        expected = np.concatenate([
            model.forward(x[start:start + FORECAST_CHUNK],
                          channels[start:start + FORECAST_CHUNK]).forecast.data
            for start in range(0, len(x), FORECAST_CHUNK)])
    calls, derive = [], prompt.derive_anchors
    monkeypatch.setattr(prompt, "derive_anchors",
                        lambda *args: calls.append(args) or derive(*args))
    prompted = model.config.prompt_k > 0
    assert np.array_equal(model.predict(x, channels), expected)
    assert len(calls) == (1 if prompted else 0)
    assert np.array_equal(model.predict(x, channels), expected)
    assert len(calls) == (1 if prompted else 0)
    model.bank.map_weights.data[0, 0] += 0.5
    model.predict(x, channels)
    assert len(calls) == (2 if prompted else 0)


def cold_forecast(model, x):
    """``forward_forecast`` of a fresh model holding ``model``'s arrays, so
    no anchors are reused."""
    fresh = make_model()
    fresh.load_arrays({name: arr.copy() for name, arr in model.all_arrays().items()})
    return fresh.forward_forecast(x).forecast


def test_in_place_map_write_changes_the_next_forecast():
    model = make_model()
    x = make_batch(1, seed=7)[0][1]
    model.bank.map_weights.data[0, 0] = -0.5
    before = model.forward_forecast(x).forecast
    model.bank.map_weights.data *= -1.0     # in place: the array is the same
    after = model.forward_forecast(x).forecast
    assert not np.array_equal(before, after)
    assert np.array_equal(after, cold_forecast(model, x))


def test_load_arrays_and_adam_step_invalidate_the_anchors():
    model = make_model()
    x = make_batch(1, seed=8)[0][1]
    model.forward_forecast(x)
    arrays = {name: arr.copy() for name, arr in model.all_arrays().items()}
    arrays["anchor_map.weight"] = -arrays["anchor_map.weight"]
    model.load_arrays(arrays)
    loaded = model.forward_forecast(x).forecast
    assert np.array_equal(loaded, cold_forecast(model, x))

    with Tape() as tape:
        loss = model.joint_loss(make_batch(4, seed=9))
    backward(loss)
    assert len(tape) > 0
    named = model.named_parameters()
    adam_step(named, AdamState(named), TrainConfig(learning_rate=0.05))
    stepped = model.forward_forecast(x).forecast
    assert not np.array_equal(stepped, loaded)
    assert np.array_equal(stepped, cold_forecast(model, x))


def test_anchors_on_an_active_tape_are_derived_and_train(monkeypatch):
    model = make_model()
    batch = make_batch(4, seed=10)
    model.forward_forecast(batch[0][1])     # warms the tape-free cache
    calls, derive = [], prompt.derive_anchors
    monkeypatch.setattr(prompt, "derive_anchors",
                        lambda *args: calls.append(args) or derive(*args))
    with Tape():
        out = model.forward(np.stack([x for _, x, _ in batch]), [0, 1, 0, 1])
        loss = model.joint_loss(batch)
    assert len(calls) == 2
    assert out.anchors.tape is not None and out.anchors.requires_grad
    model.bank.map_weights.grad = None
    backward(loss)
    assert model.bank.map_weights.grad is not None
    assert np.any(model.bank.map_weights.grad != 0.0)


def test_grad_check_of_the_anchor_map_through_a_tape_free_forward():
    """grad_check perturbs the map in place and evaluates tape-free, so a
    cache that missed in-place writes would read a zero numeric gradient."""
    model = make_model()
    batch = make_batch(3, seed=11)
    x = np.stack([x for _, x, _ in batch])
    target = Tensor(np.stack([y for _, _, y in batch]))

    def loss():
        err = ad.sub(model.forward(x, [0, 1, 0]).forecast, target)
        return ad.tmean(ad.mul(err, err))

    full = model.bank.map_weights
    model.forward_forecast(x[0])            # warms the tape-free cache
    assert ad.grad_check(loss, [full]) < 1e-3


def tape_nodes(model, batch):
    with Tape() as tape:
        model.joint_loss(batch)
    return len(tape)


@pytest.mark.parametrize("name", ["classical-mean", "stl-per_patch"])
def test_tape_nodes_do_not_depend_on_batch_size(name):
    model = make_model(**CONFIGS[name])
    assert tape_nodes(model, make_batch(2)) == tape_nodes(model, make_batch(16))


def load_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_step_tape_size_and_node_buckets():
    # the traced benchmark's span coverage needs a backward node in every
    # bucket but "other"; a fusion that empties one fails that check
    spans = load_spans()
    config = RunConfig({})
    pipeline = harness.build_pipeline(config, 0)
    model = harness.build_model(config, pipeline.frame.n_channels, 0)
    batch = pipeline.train_windows[:config.train_config(0).batch_size]
    with Tape() as tape:
        model.joint_loss(batch)
    assert len(tape) == 76
    buckets = {spans.node_bucket(node.kind) for node in tape.nodes}
    assert set(spans.NODE_BUCKETS) - {"other"} <= buckets


def test_default_step_memory():
    # each node keeps only what its backward reads and drops it once run:
    # a tape that kept every activation read 17.4 MiB live and 21.3 MiB at
    # the backward's peak on this step
    path = Path(__file__).resolve().parent.parent / "scripts" / "step_memory.py"
    spec = importlib.util.spec_from_file_location("step_memory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result = module.step_memory(RunConfig({}))
    assert result["tape_nodes"] == 76
    assert result["live_mib"] <= 10.0
    assert result["peak_mib"] <= 14.0


def test_tape_free_forward_holds_only_what_is_still_read():
    # a chunk's peak is a few of its feed-forward hidden activations: GELU
    # works in one buffer and each block's activations are freed on return
    config = RunConfig({})
    pipeline = harness.build_pipeline(config, 0)
    model = harness.build_model(config, pipeline.frame.n_channels, 0)
    channels, inputs, _ = zip(*pipeline.test_windows[:FORECAST_CHUNK])
    x, channels = np.stack(inputs), np.array(channels)
    model.forward(x[:1], channels[:1])  # derives the anchors
    cfg = model.config
    hidden = (FORECAST_CHUNK * (cfg.prompt_k + cfg.n_patches)
              * cfg.backbone.ffn_mult * cfg.backbone.embed_dim * 8)
    assert active_tape() is None
    tracemalloc.start()
    try:
        model.forward(x, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * hidden


# ---------------------------------------------------------------------------
# bit identity of the tokenization with the expressions it replaced
# ---------------------------------------------------------------------------

def old_tokenize(model, x, channels):
    """np.mean / np.var statistics, one patch call per component joined by
    concatenate, and a shift mask built per call."""
    cfg = model.config
    mean, variance = x.mean(axis=1), x.var(axis=1)
    scale = np.sqrt(variance + DEFAULT_EPSILON)
    z = (x - mean[:, None]) / scale[:, None]
    lp = cfg.patch.patch_length
    if cfg.decomposition.enabled:
        dec = decompose(z, cfg.decomposition.period,
                        cfg.decomposition.trend_window,
                        method=cfg.decomposition.method,
                        **({"inner_iterations": cfg.decomposition.stl_inner}
                           if cfg.decomposition.method == "stl" else {}))
        meta_z = np.concatenate([patch(dec.trend, cfg.patch),
                                 patch(dec.seasonal, cfg.patch),
                                 patch(dec.residual, cfg.patch)], axis=-1)
        shift_mask = np.zeros(meta_z.shape[1:])
        shift_mask[:, :lp] = 1.0
    else:
        meta_z = patch(z, cfg.patch)
        shift_mask = np.ones(meta_z.shape[1:])
    gamma = model.params["revin.gamma"].data[channels][:, None, None]
    beta = model.params["revin.beta"].data[channels][:, None, None]
    meta = meta_z * gamma + shift_mask * beta
    embed = (meta @ model.params["input_projection.weight"].data
             + model.params["input_projection.bias"].data)
    return embed, mean, variance


TOKENIZE_CASES = {
    "classical-96": dict(window=WindowSpec(96, 24), patch=PatchSpec(16, 8),
                         decomposition=DecompositionConfig(period=24,
                                                           trend_window=25),
                         backbone=BackboneConfig(embed_dim=16, n_layers=1,
                                                 n_heads=2, max_seq_len=16)),
    "plain-96": dict(window=WindowSpec(96, 24), patch=PatchSpec(16, 8),
                     decomposition=DecompositionConfig(enabled=False),
                     backbone=BackboneConfig(embed_dim=16, n_layers=1,
                                             n_heads=2, max_seq_len=16)),
    "stl-40": dict(window=WindowSpec(40, 8), patch=PatchSpec(8, 4),
                   decomposition=STL),
}


@pytest.mark.parametrize("name, batch", [("classical-96", 1),
                                         ("classical-96", 32),
                                         ("plain-96", 32), ("stl-40", 5)])
def test_tokenize_bit_identical_to_per_component_patching(name, batch):
    model = make_model(**TOKENIZE_CASES[name])
    lookback = model.config.window.lookback
    x = np.cumsum(np.random.default_rng(batch).normal(size=(batch, lookback)),
                  axis=1)
    channels = np.arange(batch) % 2
    embed, mean, variance = old_tokenize(model, x, channels)
    for _ in range(2):  # the second call reads the tables the first built
        ts_embed, state = model.tokenize_and_embed(x, channels)
        assert np.array_equal(ts_embed.data, embed)
        assert np.array_equal(state.mean, mean)
        assert np.array_equal(state.variance, variance)
