"""The batch-first forward against a per-window reference.

The reference below is the model's forward written one window at a time:
each window is tokenized, scored and prompted on its own, the
normalization is inverted row by row, and the alignment bonus is one term
per window. The batched path must reproduce its forecasts, losses and
gradients.
"""

import copy
import importlib.util
import threading
import tracemalloc
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import s2ip.autodiff as ad
import s2ip.model as model_module
import s2ip.training as training
from s2ip import harness, prompt
from s2ip.autodiff import Tape, Tensor, active_tape, backward
from s2ip.backbone import BackboneConfig
from s2ip.config import RunConfig
from s2ip.metrics import mse_mae
from s2ip.model import (FORECAST_CHUNK, DecompositionConfig, ForecastModel,
                        ModelConfig, ModelError)
from s2ip.preprocess import DEFAULT_EPSILON, PatchSpec, decompose, patch
from s2ip.prompt import clustered_vocabulary, retrieve_topk, score_all
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


def untrimmed(backbone):
    """``backbone`` with the same parameter tensors, returning every
    position, so the reference computes the prompt rows and ``ref_head``
    drops them."""
    full = copy.copy(backbone)
    full.drop_prefix = 0
    return full


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
    z_out = untrimmed(model.backbone).forward(
        ad.reshape(z_in, (1,) + z_in.shape))
    y_out, y_norm = ref_head(model, z_out)
    yhat = ref_denormalize(model, y_norm, [channel], [mean], [scale])
    return yhat.data[0], y_norm.data[0], y_out.data[0], ts_embed.data, indices


def ref_joint_loss(model, batch, lam):
    cfg = model.config
    anchors = model.bank.anchors_tensor() if cfg.prompt_k else None
    windows = [ref_window(model, x, channel, anchors) for channel, x, _ in batch]
    z_in = ad.concat([ad.reshape(w[4], (1,) + w[4].shape) for w in windows],
                     axis=0)
    _, y_norm = ref_head(model, untrimmed(model.backbone).forward(z_in))
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
    # the prompt rows are dropped after the last of several blocks
    "two-layers": {"backbone": BackboneConfig(embed_dim=16, n_layers=2,
                                              n_heads=2, max_seq_len=16)},
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
        assert np.max(np.abs(result.forecast - forecast)) <= 1e-12
        out = model.forward(x[None], [channel])
        assert list(out.selections[0].indices) == indices
        assert np.max(np.abs(out.normalized_forecast.data[0] - y_norm)) <= 1e-12
        assert np.max(np.abs(out.components.data[0] - y_out)) <= 1e-12
        assert np.max(np.abs(out.ts_embed.data[0] - ts_embed)) <= 1e-12


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


def two_pass_forward(model, x, channels):
    """:meth:`ForecastModel.forward` with the selection scored apart, by
    ``score_all`` on arrays with no tape: the forecast, the window
    embeddings, the selections and the anchors."""
    cfg = model.config
    ts_embed, mean, scale = model.tokenize_and_embed(x, channels)
    anchors = model.bank.anchors_tensor()
    scores = score_all(ts_embed.data, anchors.data, cfg.pooling)
    selections = retrieve_topk(ts_embed.data, model.bank, cfg.prompt_k,
                               scores=scores)
    indices = np.array([s.indices for s in selections])
    z_in = ad.concat([ad.gather_rows(anchors, indices), ts_embed], axis=-2)
    y_norm = model._recombine(model._head(model.backbone.forward(z_in)))
    gamma, beta = model._revin_affine(np.asarray(channels), (len(x), 1))
    yhat = ad.div(ad.sub(y_norm, beta), gamma)
    yhat = ad.add(ad.mul(yhat, scale[:, None]), mean[:, None])
    return yhat, ts_embed, selections, anchors


def two_pass_joint_loss(model, batch):
    """The joint loss with the alignment bonus from a second scoring pass,
    a separate ``_cosines`` call on the tape."""
    channels, inputs, targets = zip(*batch)
    yhat, ts_embed, selections, anchors = two_pass_forward(
        model, np.stack(inputs), channels)
    err = ad.sub(yhat, Tensor(np.stack(targets)))
    loss = ad.tmean(ad.mul(err, err))
    cosines = prompt._cosines(ts_embed, anchors, model.config.pooling)[0]
    chosen = np.zeros(cosines.shape)
    np.put_along_axis(chosen, np.array([s.indices for s in selections]), 1.0,
                      axis=1)
    bonus = ad.tmean(ad.tsum(ad.mul(cosines, chosen), axis=1))
    return ad.sub(loss, ad.mul(bonus, model.config.alignment_weight))


@pytest.mark.parametrize("name", ["classical-mean", "classical-per_patch",
                                  "stl-mean", "stl-per_patch"])
def test_one_score_tensor_matches_the_two_pass_oracle(name):
    # the selection and the bonus read one score tensor: the loss is the
    # same bit for bit, and the gradients differ only in the order the
    # anchors' contributions are summed
    model = make_model(seed=5, **CONFIGS[name])
    batch = make_batch(6, seed=6)
    ref_value, ref_grads = gradients(model,
                                     lambda: two_pass_joint_loss(model, batch))
    value, grads = gradients(model, lambda: model.joint_loss(batch))
    assert value == ref_value
    for param, expected in ref_grads.items():
        assert np.all(np.isfinite(grads[param])), param
        assert (np.max(np.abs(grads[param] - expected))
                <= 1e-12 * np.max(np.abs(expected))), param
    channels, inputs, _ = zip(*batch)
    assert active_tape() is None
    assert np.array_equal(
        model.forward_forecast(np.stack(inputs), channels).forecast,
        two_pass_forward(model, np.stack(inputs), channels)[0].data)


def test_one_scoring_pass_per_forward(monkeypatch):
    model = make_model()
    calls, cosines = [], prompt._cosines
    monkeypatch.setattr(prompt, "_cosines",
                        lambda *args: calls.append(args) or cosines(*args))
    for threads in (1, 2):
        monkeypatch.setattr(model_module, "FORECAST_THREADS", threads)
        calls.clear()
        with Tape():
            model.joint_loss(make_batch(4, seed=7))
        assert len(calls) == threads  # one per share of the batch
        batch = make_batch(FORECAST_CHUNK + 1, seed=8)
        model.forward_forecast(np.stack([x for _, x, _ in batch]),
                               [channel for channel, _, _ in batch])
        assert len(calls) == threads + 2  # one per chunk


def test_trimmed_backbone_equals_the_untrimmed_rows_it_keeps():
    config = RunConfig({})
    pipeline = harness.build_pipeline(config, 0)
    model = harness.build_model(config, pipeline.frame.n_channels, 0)
    channels, inputs, _ = zip(*pipeline.train_windows[:32])
    ts_embed = model.tokenize_and_embed(np.stack(inputs), channels)[0]
    z_in = model.prompt(ts_embed)[0]
    k = model.config.prompt_k
    assert k > 0 and model.backbone.drop_prefix == k
    full = untrimmed(model.backbone).forward(z_in).data
    assert np.array_equal(model.backbone.forward(z_in).data, full[:, k:])


@pytest.mark.parametrize("name", ["classical-mean", "prompt-in-output",
                                  "no-prompt"])
def test_backbone_returns_the_positions_the_head_reads(name):
    """The seeded model and one built from its arrays drop the K prompt
    rows, unless the head reads them too."""
    model = make_model(**CONFIGS[name])
    cfg = model.config
    loaded = ForecastModel(cfg, model.embedding, arrays=model.all_arrays())
    batch = make_batch(3, seed=12)
    ts_embed = model.tokenize_and_embed(np.stack([x for _, x, _ in batch]),
                                        [c for c, _, _ in batch])[0]
    z_in = model.prompt(ts_embed)[0]
    kept = cfg.n_patches + (cfg.prompt_k if cfg.include_prompt_in_output else 0)
    for m in (model, loaded):
        assert m.backbone.forward(z_in).shape == (3, kept,
                                                  cfg.backbone.embed_dim)


# one window, short and full chunks, and two full chunks and a short one;
# 16 and 35 are the full and the two-and-a-bit chunks of the old chunk size
PREDICT_SIZES = sorted({1, 8, 16, 19, 35, FORECAST_CHUNK,
                        2 * FORECAST_CHUNK + 3})


@pytest.mark.parametrize("n", PREDICT_SIZES)
@pytest.mark.parametrize("name", list(CONFIGS))
def test_predict_matches_per_window_forecasts(name, n):
    """``forward_forecast`` of a batch against one call per window."""
    model = make_model(**CONFIGS[name])
    batch = make_batch(n, seed=4)
    forecasts = model.forward_forecast(np.stack([x for _, x, _ in batch]),
                                       [channel for channel, _, _ in batch]
                                       ).forecast
    assert forecasts.shape == (n, model.config.window.horizon)
    for row, (channel, x, _) in zip(forecasts, batch):
        expected = model.forward_forecast(x, channel).forecast
        assert np.max(np.abs(row - expected)) <= 1e-12


@pytest.mark.parametrize("n", sorted({1, 16, 19, FORECAST_CHUNK}))
@pytest.mark.parametrize("name", list(CONFIGS))
def test_batched_validation_matches_the_per_window_mean(name, n):
    model = make_model(**CONFIGS[name])
    windows = make_batch(n, seed=13)
    per_window = np.mean([mse_mae(y, model.forward_forecast(x, c).forecast)[0]
                          for c, x, y in windows])
    assert abs(training._validation_mse(model, windows) - per_window) <= 1e-12


OLD_CHUNK = 16  # windows per forward before the in-place GELU


@pytest.mark.parametrize("name", list(CONFIGS))
def test_forecast_chunks_match_the_old_partition(name):
    """BLAS may round a row differently with the number of rows it gets,
    so chunks of another size agree to rounding, not bit for bit."""
    model = make_model(**CONFIGS[name])
    x, channels = split_inputs(2 * FORECAST_CHUNK + 3, seed=17)
    old = np.concatenate([
        model.forward(x[start:start + OLD_CHUNK],
                      channels[start:start + OLD_CHUNK]).forecast.data
        for start in range(0, len(x), OLD_CHUNK)])
    new = model.forward_forecast(x, channels).forecast
    assert np.max(np.abs(new - old)) <= 1e-12


def test_predict_runs_tape_free_chunks():
    model = make_model()
    batch = make_batch(2 * FORECAST_CHUNK + 3, seed=5)
    x = np.stack([x for _, x, _ in batch])
    passes, forward = [], model.forward
    model.forward = lambda *args: passes.append(forward(*args)) or passes[-1]
    model.forward_forecast(x, [channel for channel, _, _ in batch])
    # threads run the chunks in no fixed order
    assert sorted(p.forecast.shape[0] for p in passes) == [3, FORECAST_CHUNK,
                                                           FORECAST_CHUNK]
    assert all(p.forecast.tape is None and not p.forecast.requires_grad
               for p in passes)
    assert active_tape() is None
    for channels in ([0] * (len(batch) + 1), [0] * FORECAST_CHUNK, 0):
        with pytest.raises(ModelError, match="one channel per window"):
            model.forward_forecast(x, channels)
    with pytest.raises(ModelError, match="one channel per window"):
        model.forward_forecast(x[0], [0, 1])


def split_inputs(n, seed):
    batch = make_batch(n, seed=seed)
    return (np.stack([x for _, x, _ in batch]),
            np.array([channel for channel, _, _ in batch]))


def record_threads(model):
    """Make ``model.forward`` note the thread each chunk runs on."""
    idents, forward = [], model.forward

    def noted(*args):
        idents.append(threading.get_ident())
        return forward(*args)
    model.forward = noted
    return idents


@pytest.mark.parametrize("n", [1, 15, 16, 17, 35, 162])
@pytest.mark.parametrize("pooling", ["mean", "per_patch"])
def test_split_forecast_equals_the_serial_one(pooling, n, monkeypatch):
    """Two threads give the serial forecasts bit for bit, and split only a
    call of several chunks."""
    model = make_model(pooling=pooling)
    x, channels = split_inputs(n, seed=14)
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 1)
    serial = model.forward_forecast(x, channels).forecast
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 2)
    idents = record_threads(model)
    assert np.array_equal(model.forward_forecast(x, channels).forecast, serial)
    assert len(set(idents)) == (2 if n > FORECAST_CHUNK else 1)
    assert threading.get_ident() in idents


# rows of the second chunk, of the first and second, and of the second
# and third
@pytest.mark.parametrize("bad_rows", [
    (FORECAST_CHUNK + 4,), (5, FORECAST_CHUNK + 4),
    (FORECAST_CHUNK + 4, 2 * FORECAST_CHUNK + 1)])
def test_a_failing_chunk_raises_the_serial_error(bad_rows, monkeypatch):
    """The first failing chunk's error, raised once every thread is
    joined, whichever thread ran it (two threads: the caller runs the
    first and third chunks, the worker the second)."""
    model = make_model()
    x, channels = split_inputs(2 * FORECAST_CHUNK + 3, seed=15)
    channels[list(bad_rows)] = model.config.n_channels
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 1)
    with pytest.raises(ModelError, match="channel out of range") as serial:
        model.forward_forecast(x, channels)
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 2)
    before = threading.active_count()
    with pytest.raises(ModelError) as split:
        model.forward_forecast(x, channels)
    assert str(split.value) == str(serial.value)
    assert threading.active_count() == before


def test_a_forecast_on_a_tape_starts_no_thread(monkeypatch):
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 2)
    model = make_model()
    x, channels = split_inputs(2 * FORECAST_CHUNK + 3, seed=16)
    idents = record_threads(model)
    with Tape():
        model.forward_forecast(x, channels)
    assert set(idents) == {threading.get_ident()} and len(idents) == 3


def test_split_counts_degenerate_scores_as_the_serial_path(monkeypatch):
    """With no RevIN shift, constant windows embed to the zero projection
    bias, so each scores as one degenerate event, on either thread."""
    model = make_model()
    model.params["revin.beta"].data[:] = 0.0
    x = np.repeat(np.arange(35.0)[:, None], model.config.window.lookback, 1)
    channels = np.zeros(35, dtype=np.int64)
    counts = []
    for threads in (1, 2):
        monkeypatch.setattr(model_module, "FORECAST_THREADS", threads)
        before = prompt.degenerate_score_events()
        model.forward_forecast(x, channels)
        counts.append(prompt.degenerate_score_events() - before)
    assert counts == [35, 35]


def test_split_forecast_keeps_the_callers_errstate(monkeypatch):
    """The worker threads run under the caller's ``np.errstate``: an
    overflowing forecast warns on none of them."""
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 2)
    model = make_model()
    model.params["output_projection.weight"].data[...] = 1e308
    x, channels = split_inputs(35, seed=17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            forecast = model.forward_forecast(x, channels).forecast
    assert not np.isfinite(forecast).all()


def split_step(model, batch, threads, monkeypatch):
    """The loss and every gradient of one step on ``threads`` threads."""
    monkeypatch.setattr(model_module, "FORECAST_THREADS", threads)
    return gradients(model, lambda: model.joint_loss(batch))


@pytest.mark.parametrize("name, n", [("classical-mean", 32),
                                     ("stl-per_patch", 32), ("no-prompt", 32),
                                     ("no-decomposition", 32),
                                     ("classical-mean", 33)])
def test_split_step_equals_the_serial_one(name, n, monkeypatch):
    """Two shares give the serial loss within 1e-12 relative and every
    gradient within 1e-12 of its largest entry, and two runs agree bit for
    bit."""
    model = make_model(**CONFIGS[name])
    batch = make_batch(n, seed=18)
    serial_loss, serial = split_step(model, batch, 1, monkeypatch)
    loss, grads = split_step(model, batch, 2, monkeypatch)
    assert abs(loss - serial_loss) <= 1e-12 * abs(serial_loss)
    for key, g in serial.items():
        assert np.max(np.abs(grads[key] - g)) <= 1e-12 * np.max(np.abs(g)), key
    again_loss, again = split_step(model, batch, 2, monkeypatch)
    assert again_loss == loss
    assert all(np.array_equal(again[key], g) for key, g in grads.items())


def test_a_split_step_runs_one_share_per_thread(monkeypatch):
    """Each share's forward runs on a thread of its own, the caller's
    among them, and each worker tape is replayed through ``autodiff.backward`` as
    looked up when called; a batch of one stays serial."""
    model = make_model()
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 2)
    replayed, backward_fn = [], ad.backward
    monkeypatch.setattr(ad, "backward", lambda loss, *args: (
        replayed.append(threading.get_ident()), backward_fn(loss, *args))[1])
    idents = record_threads(model)
    before = threading.active_count()
    with Tape() as tape:
        loss = model.joint_loss(make_batch(5, seed=19))
    assert len(set(idents)) == 2 and threading.get_ident() in idents
    assert tape.shares[0] == len(tape) - 1 and len(tape.shares[1]) == 1
    ad.backward(loss)
    assert len(replayed) == 2 and replayed[1] != threading.get_ident()
    assert all(t.grad is not None for _, t in model.named_parameters())
    assert threading.active_count() == before
    idents.clear()
    with Tape() as tape:
        model.joint_loss(make_batch(1, seed=19))
    assert idents == [threading.get_ident()] and tape.shares is None


def test_a_second_loss_on_a_split_tape_runs_serially(monkeypatch):
    """A tape keeps one split: a second ``joint_loss`` on it runs on the
    caller's thread, and the sum of both still backpropagates in full."""
    model = make_model()
    first, second = make_batch(8, seed=22), make_batch(6, seed=23)

    def both():
        return ad.add(model.joint_loss(first), model.joint_loss(second))

    monkeypatch.setattr(model_module, "FORECAST_THREADS", 1)
    serial_loss, serial = gradients(model, both)
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 2)
    idents = record_threads(model)
    loss, grads = gradients(model, both)
    assert len(idents) == 3 and idents[-1] == threading.get_ident()
    assert abs(loss - serial_loss) <= 1e-12 * abs(serial_loss)
    for key, g in serial.items():
        assert np.max(np.abs(grads[key] - g)) <= 1e-12 * np.max(np.abs(g)), key


@pytest.mark.parametrize("bad_rows", [(5,), (20,), (5, 20)])
def test_a_failing_share_raises_the_serial_error(bad_rows, monkeypatch):
    """A bad channel is refused for the whole batch before it is split; an
    overflow under ``np.errstate(over="raise")`` is raised by its share,
    once the other thread is joined."""
    model = make_model()
    batch = make_batch(32, seed=20)
    bad_channel = [(model.config.n_channels if i in bad_rows else c, x, y)
                   for i, (c, x, y) in enumerate(batch)]
    huge = [(c, x * 1e200 if i in bad_rows else x, y)
            for i, (c, x, y) in enumerate(batch)]
    for bad, error in ((bad_channel, ModelError),
                       (huge, FloatingPointError)):
        errors = []
        for threads in (1, 2):
            monkeypatch.setattr(model_module, "FORECAST_THREADS", threads)
            before = threading.active_count()
            with pytest.raises(error) as caught, np.errstate(over="raise"):
                with Tape():
                    model.joint_loss(bad)
            assert threading.active_count() == before
            errors.append(str(caught.value))
        assert errors[0] == errors[1]


def test_a_split_step_keeps_the_callers_errstate(monkeypatch):
    """The share threads run the forward and the backward under the
    caller's ``np.errstate``: an overflowing step warns on none of them."""
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 2)
    model = make_model()
    model.params["output_projection.weight"].data[...] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            with Tape():
                loss = model.joint_loss(make_batch(32, seed=21))
            backward(loss)
    assert not np.isfinite(loss.item())


@pytest.mark.parametrize("name", ["classical-mean", "no-prompt"])
def test_predict_derives_the_anchors_once_per_call(name, monkeypatch):
    """Tape-free, the bank derives the anchors on a cold cache, reuses them
    while the map is unchanged, and derives again after an in-place write."""
    model = make_model(**CONFIGS[name])
    batch = make_batch(2 * FORECAST_CHUNK + 3, seed=6)
    x = np.stack([x for _, x, _ in batch])
    channels = np.array([channel for channel, _, _ in batch])
    # the forecasts when each chunk's forward derives its own anchors
    with Tape():
        expected = np.concatenate([
            model.forward(x[start:start + FORECAST_CHUNK],
                          channels[start:start + FORECAST_CHUNK]).forecast.data
            for start in range(0, len(x), FORECAST_CHUNK)])
    calls, derive = [], prompt.derive_anchors
    monkeypatch.setattr(prompt, "derive_anchors",
                        lambda *args: calls.append(args) or derive(*args))
    prompted = model.config.prompt_k > 0
    assert np.array_equal(model.forward_forecast(x, channels).forecast,
                          expected)
    assert len(calls) == (1 if prompted else 0)
    assert np.array_equal(model.forward_forecast(x, channels).forecast,
                          expected)
    assert len(calls) == (1 if prompted else 0)
    model.bank.map_weights.data[0, 0] += 0.5
    model.forward_forecast(x, channels)
    assert len(calls) == (2 if prompted else 0)


def cold_forecast(model, x):
    """``forward_forecast`` of a fresh model holding ``model``'s arrays, so
    no anchors are reused."""
    copies = {name: arr.copy() for name, arr in model.all_arrays().items()}
    fresh = ForecastModel(model.config, model.embedding, arrays=copies)
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


def test_assigning_the_map_and_adam_step_invalidate_the_anchors():
    # train's restore assigns each parameter an earlier array
    model = make_model()
    x = make_batch(1, seed=8)[0][1]
    model.forward_forecast(x)
    model.bank.map_weights.data = -model.bank.map_weights.data
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
    for threads in (1, 2):
        monkeypatch.setattr(model_module, "FORECAST_THREADS", threads)
        calls.clear()
        with Tape():
            out = model.forward(np.stack([x for _, x, _ in batch]), [0, 1, 0, 1])
            loss = model.joint_loss(batch)
        assert len(calls) == 1 + threads  # the forward, then one per share
        assert out.scores.tape is not None and out.scores.requires_grad
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


def test_default_step_tape_size_and_node_buckets(monkeypatch):
    # the traced benchmark's span coverage needs a backward node in every
    # bucket but "other"; a fusion that empties one fails that check. On
    # two threads the caller's tape holds its share and the sum of the parts
    monkeypatch.setattr(model_module, "FORECAST_THREADS", 2)
    spans = load_spans()
    config = RunConfig({})
    pipeline = harness.build_pipeline(config, 0)
    model = harness.build_model(config, pipeline.frame.n_channels, 0)
    batch = pipeline.train_windows[:config.train_config(0).batch_size]
    with Tape() as tape:
        model.joint_loss(batch)
    assert [len(tape)] + [len(part.tape) for part in tape.shares[1]] == [77, 76]
    buckets = {spans.node_bucket(node.kind) for node in tape.nodes}
    assert set(spans.NODE_BUCKETS) - {"other"} <= buckets


@cache
def default_step_memory() -> dict:
    """``scripts/step_memory.py``'s figures for a default step."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "step_memory.py"
    spec = importlib.util.spec_from_file_location("step_memory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.step_memory(RunConfig({}))


def test_default_step_memory():
    # each node keeps only what its backward reads and drops it once run:
    # a tape that kept every activation read 17.4 MiB live and 21.3 MiB at
    # the backward's peak on this step
    result = default_step_memory()
    assert result["tape_nodes"] == 76
    assert result["split_tape_nodes"] == [77, 76]
    for prefix in ("", "split_"):   # the serial step, and two shares
        assert result[prefix + "live_mib"] <= 10.0
        assert result[prefix + "peak_mib"] <= 14.0
    # two threads hold two chunks' activations at once, and no more
    assert result["split_forecast_peak_mib"] <= 2.5 * result["forecast_peak_mib"]
    # a tape-free forward, at the chunk size and at 16 windows
    for prefix in ("chunk_", "chunk16_"):
        assert result[prefix + "peak_hidden"] <= 2.4
        assert result[prefix + "peak_per_window_kib"] > 0.0


def test_default_step_forward_peak():
    # the forward peaks at the second block's GELU; forming its slope in
    # full-size buffers read 7.98 MiB
    result = default_step_memory()
    assert result["forward_peak_mib"] <= 7.5
    assert result["split_forward_peak_mib"] <= 7.5


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
    # GELU written over the w1 product, and each activation dropped once
    # read: 2.09 hidden activations at 16 windows, against 2.71 before
    assert peak <= 2.4 * hidden


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
    return embed, mean, scale


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
    expected = old_tokenize(model, x, channels)
    for _ in range(2):  # the second call reads the tables the first built
        for got, want in zip(model.tokenize_and_embed(x, channels), expected):
            assert np.array_equal(getattr(got, "data", got), want)
