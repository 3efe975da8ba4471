"""The batch-first forward against a per-window reference.

The reference below is the model's forward written one window at a time:
each window is tokenized, scored and prompted on its own, the
normalization is inverted row by row, and the alignment bonus is one term
per window. The batched path must reproduce its forecasts, losses and
gradients.
"""

import numpy as np
import pytest

import s2ip.autodiff as ad
from s2ip.autodiff import Tape, Tensor, backward
from s2ip.backbone import BackboneConfig
from s2ip.model import DecompositionConfig, ForecastModel, ModelConfig
from s2ip.preprocess import PatchSpec, decompose, patch
from s2ip.prompt import clustered_vocabulary
from s2ip.series import WindowSpec

DEGENERATE_NORM = 1e-12


# ---------------------------------------------------------------------------
# per-window reference
# ---------------------------------------------------------------------------

def ref_tokenize(model, x, channel):
    cfg = model.config
    mean, var = float(x.mean()), float(x.var())
    scale = float(np.sqrt(var + cfg.revin_epsilon))
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


def tape_nodes(model, batch):
    with Tape() as tape:
        model.joint_loss(batch)
    return len(tape)


@pytest.mark.parametrize("name", ["classical-mean", "stl-per_patch"])
def test_tape_nodes_do_not_depend_on_batch_size(name):
    model = make_model(**CONFIGS[name])
    assert tape_nodes(model, make_batch(2)) == tape_nodes(model, make_batch(16))
