"""End-to-end forecasting model.

One batch-first forward (:meth:`ForecastModel.forward`) serves training,
forecasting and export. Over a ``(B, lookback)`` batch of windows it
instance-normalizes, decomposes, patches each component, concatenates the
patches into meta tokens, projects them into the backbone width, retrieves
each window's top-K anchors as a prefix, runs the frozen backbone, projects
the patch positions onto per-component horizons, sums the components, and
inverts each window's normalization. A single-window forecast is the same
forward on a batch of one.

The trainable set is: input projection, output projection, anchor map,
per-channel normalization affine parameters, and whatever the backbone
policy allows (positional embeddings and layer norms by default).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Backbone, BackboneConfig, TrainabilityPolicy
from .backbone import parameter_shapes as backbone_shapes
from .preprocess import DEFAULT_EPSILON, PatchSpec, decompose, patch, patch_count
from .prompt import (AnchorBank, EmbeddingMatrix, PromptSelection,
                     alignment_term, retrieve_topk, score)
from .series import WindowSpec


# windows per forward in ``ForecastModel.forward_forecast``. A tape-free
# forward holds only what is still read (GELU written over the w1 product,
# each activation and the prompt-joined input dropped once read), so 32
# windows peak at 1.77 MiB, 1.76 feed-forward hidden activations
# (tracemalloc, default config, CPython 3.11+, untraced: see
# ``ForecastModel.forward``), below the 2.04 of 24 windows that held
# the prompt-joined input. Larger chunks make fewer NumPy calls per window
FORECAST_CHUNK = 32

# threads per tape-free ``forward_forecast`` call of several chunks, and per
# ``joint_loss`` batch on a tape, one per usable core: NumPy's ufuncs and
# BLAS release the GIL
FORECAST_THREADS = (len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# checkpoint header keys of older S2IP1 writers -> the dotted field name now
_HEADER_ALIASES = {"patch.length": "patch.patch_length"}

# resolving the string annotations costs ~0.4 ms per class and call
_type_hints = cache(get_type_hints)


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class DecompositionConfig:
    enabled: bool = True
    period: int = 24
    trend_window: int = 25
    method: str = "classical"
    stl_inner: int = 2

    def __post_init__(self):
        if self.method not in ("classical", "stl"):
            raise ModelError(f"unknown decomposition method {self.method!r}")
        if min(self.period, self.trend_window, self.stl_inner) < 1:
            raise ModelError("decomposition period, trend_window and stl_inner "
                             "must be positive integers")


@dataclass(frozen=True)
class ModelConfig:
    window: WindowSpec = field(default_factory=lambda: WindowSpec(96, 24))
    patch: PatchSpec = field(default_factory=lambda: PatchSpec(16, 8))
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    prompt_k: int = 4
    n_anchors: int = 32
    alignment_weight: float = 0.01
    include_prompt_in_output: bool = False
    pooling: str = "mean"
    n_channels: int = 1

    def __post_init__(self):
        if self.prompt_k < 0:
            raise ModelError("prompt_k must be >= 0 (0 disables prompting)")
        if self.n_anchors < 1:
            raise ModelError("n_anchors must be positive")
        if self.prompt_k > self.n_anchors:
            raise ModelError(f"prompt_k {self.prompt_k} exceeds n_anchors "
                             f"{self.n_anchors}")
        if not self.alignment_weight >= 0:
            raise ModelError("alignment_weight must be >= 0")
        if self.pooling not in ("mean", "per_patch"):
            raise ModelError(f"unknown pooling mode {self.pooling!r}")
        if self.n_channels < 1:
            raise ModelError("n_channels must be positive")
        if self.patch.patch_length > self.window.lookback:
            raise ModelError(f"patch.patch_length {self.patch.patch_length} "
                             f"exceeds window.lookback {self.window.lookback}")
        if self.decomposition.enabled:
            tau = self.window.lookback
            if not 2 <= self.decomposition.period <= tau // 2:
                raise ModelError(f"decomposition.period must lie in [2, {tau // 2}] "
                                 f"for window.lookback {tau}")
            tw = self.decomposition.trend_window
            if tw % 2 == 0 or tw > tau:
                raise ModelError(f"decomposition.trend_window {tw} must be odd and <= {tau}")
        if self.prompt_k + self.n_patches > self.backbone.max_seq_len:
            raise ModelError(f"prompt_k + n_patches = "
                             f"{self.prompt_k + self.n_patches} exceeds "
                             f"backbone.max_seq_len {self.backbone.max_seq_len}")

    @property
    def n_patches(self) -> int:
        return patch_count(self.window.lookback, self.patch)

    @property
    def n_components(self) -> int:
        return 3 if self.decomposition.enabled else 1

    @property
    def meta_width(self) -> int:
        return self.n_components * self.patch.patch_length

    @property
    def output_dim(self) -> int:
        return self.n_components * self.window.horizon

    @property
    def flattened_width(self) -> int:
        positions = self.n_patches
        if self.include_prompt_in_output:
            positions += self.prompt_k
        return positions * self.backbone.embed_dim

    def to_dict(self) -> dict:
        """The checkpoint header: every field under its dotted name, with
        the nested config dataclasses flattened (``window.lookback``)."""
        return flatten_dataclass(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Rebuild a config from :meth:`to_dict`'s header, checking each
        value's type. Keys the config no longer has are ignored, so older
        S2IP1 headers load; their ``patch.length`` is read as
        ``patch.patch_length``."""
        if not isinstance(d, dict):
            raise ModelError(f"expected a JSON object, got {type(d).__name__}")
        d = {_HEADER_ALIASES.get(key, key): value for key, value in d.items()}
        return build_dataclass(cls, d)


def flatten_dataclass(obj, prefix: str = "") -> dict:
    """Every field under its dotted name (``window.lookback``)."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(flatten_dataclass(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


def build_dataclass(cls, d: dict, prefix: str = ""):
    """Build ``cls`` from :func:`flatten_dataclass`'s dotted keys, each
    value checked by :func:`typed_value` against the field's type."""
    hints = _type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key, kind = prefix + f.name, hints[f.name]
        if is_dataclass(kind):
            kwargs[f.name] = build_dataclass(kind, d, key + ".")
            continue
        kwargs[f.name] = typed_value(key, kind, d[key])
    try:
        return cls(**kwargs)
    except ValueError as exc:  # name fields by dotted key ("decomposition period")
        names = rf"\b(?:{prefix.replace('.', ' ')})?({'|'.join(kwargs)})\b"
        raise type(exc)(re.sub(names, prefix + r"\1", str(exc))) from None


def typed_value(key: str, kind: type, value):
    """``value`` as ``kind``; ModelError for another type or non-finite float."""
    # an int is a valid float; a bool is not a valid int
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise ModelError(f"{key}: expected {kind.__name__}, got {value!r}")
    # json reads NaN and Infinity, and inf passes most range checks
    if kind is float and not np.isfinite(value):
        raise ModelError(f"{key}: expected a finite float, got {value!r}")
    return kind(value)


def parameter_shapes(config: ModelConfig, vocab_size: int
                     ) -> dict[str, tuple[int, ...]]:
    """The shape of every array in :meth:`ForecastModel.all_arrays`, for a
    ``vocab_size``-row embedding; nothing is allocated."""
    d = config.backbone.embed_dim
    return {
        "input_projection.weight": (config.meta_width, d),
        "input_projection.bias": (d,),
        "output_projection.weight": (config.flattened_width, config.output_dim),
        "output_projection.bias": (config.output_dim,),
        "revin.gamma": (config.n_channels,),
        "revin.beta": (config.n_channels,),
        "anchor_map.weight": (config.n_anchors, vocab_size),
        "embedding.values": (vocab_size, d),
        **{f"backbone.{name}": shape
           for name, shape in backbone_shapes(config.backbone).items()},
    }


def check_arrays(config: ModelConfig, vocab_size: int, arrays: dict) -> None:
    """ModelError unless ``arrays`` matches :func:`parameter_shapes`."""
    # every layer holds arrays, so this bounds the table of shapes
    if config.backbone.n_layers > len(arrays):
        raise ModelError(f"{config.backbone.n_layers} backbone layers in "
                         f"{len(arrays)} tensors")
    expected = parameter_shapes(config, vocab_size)
    missing = sorted(set(expected) - set(arrays))
    if missing:
        raise ModelError(f"checkpoint is missing tensors: {missing}")
    extra = sorted(set(arrays) - set(expected))
    if extra:
        raise ModelError(f"checkpoint has unexpected tensors: {extra}")
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise ModelError(f"checkpoint tensor {name!r} has shape "
                             f"{arr.shape}, expected {expected[name]}")


@dataclass
class ForecastResult:
    """What :meth:`ForecastModel.forward_forecast` returns."""

    forecast: np.ndarray    # denormalized, (horizon,) or (N, horizon)


@dataclass
class ForwardPass:
    """What :meth:`ForecastModel.forward` computed for a batch of B windows,
    as tensors on the active tape."""

    forecast: Tensor                    # (B, horizon), denormalized
    normalized_forecast: Tensor         # (B, horizon)
    components: Tensor                  # (B, n_components * horizon)
    ts_embed: Tensor                    # (B, N_P, D)
    selections: list[PromptSelection]   # one per window
    scores: Tensor | None               # (B, n_anchors); None without prompts


class ForecastModel:
    def __init__(self, config: ModelConfig, embedding: EmbeddingMatrix,
                 seed: int = 0, policy: TrainabilityPolicy | None = None,
                 arrays: dict[str, np.ndarray] | None = None):
        """Draw every parameter from ``seed``, or, given ``arrays`` as
        :meth:`all_arrays` returns them, take each parameter's values from
        there and draw nothing."""
        if embedding.dim != config.backbone.embed_dim:
            raise ModelError(f"embedding width {embedding.dim} != backbone width "
                             f"{config.backbone.embed_dim}")
        if config.n_anchors > embedding.vocab_size // 2:  # before a map is drawn
            raise ModelError(f"n_anchors must be << vocab size (at most "
                             f"{embedding.vocab_size // 2}), got {config.n_anchors}")
        self.config = config
        self.embedding = embedding
        self.policy = policy if policy is not None else TrainabilityPolicy()
        # the model holds the projections and the affine pair itself
        own = [(name, shape) for name, shape
               in parameter_shapes(config, embedding.vocab_size).items()
               if name.startswith(("input_projection.", "output_projection.",
                                   "revin."))]
        # the head reads the patch positions only, unless configured to
        # read the prompt positions too, so the backbone may skip the rest
        head_skips = 0 if config.include_prompt_in_output else config.prompt_k
        if arrays is None:
            rng = np.random.default_rng(seed)
            self.backbone = Backbone(config.backbone,
                                     seed=int(rng.integers(2 ** 31)),
                                     drop_prefix=head_skips)
            # the anchor map is drawn first, then the model's own weights
            values = {"anchor_map.weight": rng.normal(0.0, 0.02, size=(
                          config.n_anchors, embedding.vocab_size)),
                      **{name: rng.normal(0.0, 0.02, size=shape)
                         if len(shape) == 2 else np.ones(shape)
                         if name == "revin.gamma" else np.zeros(shape)
                         for name, shape in own}}
        else:
            check_arrays(config, embedding.vocab_size, arrays)
            self.backbone = Backbone(config.backbone, arrays={
                name: arrays[f"backbone.{name}"]
                for name in backbone_shapes(config.backbone)},
                drop_prefix=head_skips)
            values = arrays
        self.bank = AnchorBank(embedding, config.n_anchors,
                               values["anchor_map.weight"])
        self._backbone_trainable = self.backbone.apply_policy(self.policy)
        self.params: dict[str, Tensor] = {
            name: Tensor(values[name], requires_grad=True) for name, _ in own}
        # the RevIN shift lands on the first patch_length columns of each
        # (N_P, meta_width) token block: the trend patches, or the whole
        # block without decomposition
        mask = np.zeros((config.n_patches, config.meta_width))
        mask[:, :config.patch.patch_length] = 1.0
        self._shift_mask = Tensor(mask)

    # -- parameter bookkeeping ----------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every trainable tensor, exactly once, in a stable order."""
        out = [(name, t) for name, t in sorted(self.params.items())]
        out.append(("anchor_map.weight", self.bank.map_weights))
        out.extend((f"backbone.{name}", t) for name, t in self._backbone_trainable)
        return out

    def all_arrays(self) -> dict[str, np.ndarray]:
        """Every array needed to reproduce the model bit-for-bit."""
        out = {name: t.data for name, t in self.params.items()}
        out["anchor_map.weight"] = self.bank.map_weights.data
        for name, t in self.backbone.params.items():
            out[f"backbone.{name}"] = t.data
        out["embedding.values"] = self.embedding.values
        return out

    def _revin_affine(self, channels: np.ndarray, shape: tuple[int, ...]
                      ) -> tuple[Tensor, Tensor]:
        """Each window's (gamma, beta), gathered by channel and shaped to
        broadcast against a ``(B, ...)`` tensor."""
        return tuple(ad.reshape(ad.gather_rows(self.params[name], channels), shape)
                     for name in ("revin.gamma", "revin.beta"))

    # -- tokenization --------------------------------------------------------

    def _checked(self, x, channels) -> tuple[np.ndarray, np.ndarray]:
        """A ``(B, lookback)`` float64 batch and its ``(B,)`` channels;
        ModelError for another shape or a channel out of range."""
        x = np.asarray(x, dtype=np.float64)
        channels = np.asarray(channels, dtype=np.int64)
        lookback, n_channels = self.config.window.lookback, self.config.n_channels
        if x.ndim != 2 or x.shape[1] != lookback:
            raise ModelError(f"expected (B, {lookback}) windows, "
                             f"got shape {x.shape}")
        if channels.shape != (x.shape[0],):
            raise ModelError(f"need one channel per window, got shape "
                             f"{channels.shape} for {x.shape[0]} windows")
        if channels.min() < 0 or channels.max() >= n_channels:
            raise ModelError(f"channel out of range [0, {n_channels}): "
                             f"{channels.tolist()}")
        return x, channels

    def tokenize_and_embed(self, x: np.ndarray, channels
                           ) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """Normalize, decompose, patch, and project a ``(B, lookback)``
        batch of windows, one channel per row; returns the ``(B, N_P, D)``
        embedding and each window's mean and scale, ``sqrt(var + eps)``,
        both ``(B,)``.

        The data-dependent part of the normalization (z-scoring by instance
        statistics) commutes with the linear decomposition and patching, so
        those run on plain arrays; the trainable affine pair is applied on
        the tape afterwards, which keeps the whole map differentiable.
        """
        cfg = self.config
        x, channels = self._checked(x, channels)
        # np.mean and np.var, written out as the reductions they run, so
        # the centered windows are formed once
        mean = np.add.reduce(x, axis=1) / x.shape[1]
        centered = x - mean[:, None]
        scale = np.sqrt(np.add.reduce(centered * centered, axis=1) / x.shape[1]
                        + DEFAULT_EPSILON)
        z = centered / scale[:, None]

        if cfg.decomposition.enabled:
            dec = decompose(z, cfg.decomposition.period,
                            cfg.decomposition.trend_window,
                            method=cfg.decomposition.method,
                            **({"inner_iterations": cfg.decomposition.stl_inner}
                               if cfg.decomposition.method == "stl" else {}))
            # one patch call for the three components: (3, B, N_P, L_P) ->
            # (B, N_P, 3 * L_P), trend block first
            patches = patch(np.stack([dec.trend, dec.seasonal, dec.residual]),
                            cfg.patch)
            meta_z = patches.transpose(1, 2, 0, 3).reshape(
                len(x), cfg.n_patches, cfg.meta_width)
        else:
            meta_z = patch(z, cfg.patch)

        gamma_t, beta_t = self._revin_affine(channels, (len(channels), 1, 1))
        meta = ad.add(ad.mul(Tensor(meta_z), gamma_t),
                      ad.mul(self._shift_mask, beta_t))
        ts_embed = ad.linear(meta, self.params["input_projection.weight"],
                             self.params["input_projection.bias"])
        return ts_embed, mean, scale

    # -- forward -------------------------------------------------------------

    def _head(self, z_out: Tensor) -> Tensor:
        """Project the backbone outputs the head reads, (B, positions, D),
        to per-component horizons. The backbone already dropped the prompt
        positions unless configured otherwise, so by default the projection
        width does not depend on K."""
        flat = ad.reshape(z_out, (z_out.shape[0],
                                  self.config.flattened_width))
        return ad.linear(flat, self.params["output_projection.weight"],
                         self.params["output_projection.bias"])

    def _recombine(self, y_out: Tensor) -> Tensor:
        """Sum the trend, seasonal and residual horizon segments."""
        cfg = self.config
        if not cfg.decomposition.enabled:
            return y_out
        h = cfg.window.horizon
        parts = [ad.narrow(y_out, 1, i * h, h) for i in range(3)]
        return ad.add(ad.add(parts[0], parts[1]), parts[2])

    def prompt(self, ts_embed: Tensor
               ) -> tuple[Tensor, list[PromptSelection], Tensor | None]:
        """Score the windows against every anchor once, keep each window's
        top-K and prepend them to its patch embeddings: the backbone's input
        sequence, one selection per window, and the ``(B, n_anchors)``
        scores the selections were ranked by, on the active tape, for the
        alignment bonus (None without prompts). The anchors and their norms
        come from :meth:`AnchorBank.scoring_anchors`: derived on the active
        tape, or reused with no tape while the anchor map is unchanged."""
        k = self.config.prompt_k
        if k == 0:
            return ts_embed, [PromptSelection((), ())] * ts_embed.shape[0], None
        anchors, anchor_norms = self.bank.scoring_anchors()
        scores = score(ts_embed, anchors, self.config.pooling, anchor_norms)
        selections = retrieve_topk(ts_embed.data, self.bank, k,
                                   scores=scores.data)
        indices = np.array([s.indices for s in selections])
        return (ad.concat([ad.gather_rows(anchors, indices), ts_embed], axis=-2),
                selections, scores)

    def forward(self, x: np.ndarray, channels) -> ForwardPass:
        """Forecast a ``(B, lookback)`` batch of windows, one channel per
        row: tokenize, :meth:`prompt`, run the backbone, project, recombine
        the components, and invert each window's normalization."""
        ts_embed, mean, scale = self.tokenize_and_embed(x, channels)
        prompted = list(self.prompt(ts_embed))
        selections, scores = prompted[1:]
        # the backbone input is handed over, not kept: nothing here holds it
        # once the backbone has added the positions to it. That rests on the
        # interpreter: CPython 3.11+ moves a call's arguments into the
        # callee's frame, where 3.10 kept them on the caller's stack, and a
        # wrapper around ``Backbone.forward`` (a tracer's) holds it anyway
        components = self._head(self.backbone.forward(prompted.pop(0)))
        y_norm = self._recombine(components)
        gamma_t, beta_t = self._revin_affine(channels, (ts_embed.shape[0], 1))
        yhat = ad.div(ad.sub(y_norm, beta_t), gamma_t)
        yhat = ad.add(ad.mul(yhat, scale[:, None]), mean[:, None])
        return ForwardPass(forecast=yhat, normalized_forecast=y_norm,
                           components=components, ts_embed=ts_embed,
                           selections=selections, scores=scores)

    def forward_forecast(self, x: np.ndarray, channel=0) -> ForecastResult:
        """Denormalized forecasts: a ``(lookback,)`` window of ``channel``
        gives ``(horizon,)``, an ``(N, lookback)`` batch with one channel per
        row gives ``(N, horizon)``. Runs :meth:`forward` over consecutive
        chunks of :data:`FORECAST_CHUNK` windows from the first; with no
        active tape it records nothing, the chunks share one derivation of
        the anchors, and each chunk's activations are freed before the next.

        With no active tape, several chunks are spread over up to
        :data:`FORECAST_THREADS` threads, the caller's among them; each
        chunk writes its own rows, so the output is bit for bit the serial
        one. An error is raised once every thread has finished: that of
        the first chunk that failed, as the serial loop would."""
        single = np.ndim(x) == 1
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        channels = np.atleast_1d(np.asarray(channel, dtype=np.int64))
        if channels.shape != (len(x),):
            raise ModelError(f"need one channel per window, got shape "
                             f"{channels.shape} for {len(x)} windows")
        out = np.empty((len(x), self.config.window.horizon))
        starts = range(0, len(x), FORECAST_CHUNK)
        errors = {}

        def run(share):
            for start in share:
                stop = start + FORECAST_CHUNK
                try:
                    out[start:stop] = self.forward(
                        x[start:stop], channels[start:stop]).forecast.data
                except Exception as exc:
                    errors[start] = exc
                    return

        # a tape records one thread's operations, so it keeps the call serial
        n = min(FORECAST_THREADS, len(starts))
        if n < 2 or ad.active_tape() is not None:
            run(starts)
        else:
            if self.config.prompt_k > 0:
                self.bank.scoring_anchors()  # derived once, for every thread
            ad.in_threads(run, [starts[i::n] for i in range(n)])
        if errors:
            raise errors[min(errors)]
        return ForecastResult(out[0] if single else out)

    def joint_loss(self, batch) -> Tensor:
        """Mean-squared forecast error minus ``config.alignment_weight``
        times the batch-mean alignment bonus over a batch of (channel, input,
        target) windows; the training objective.

        On a tape, a batch of several windows is split into one contiguous
        share per thread, up to :data:`FORECAST_THREADS`. The caller runs
        the first share on its tape, each other thread one on a tape of its
        own, and the loss is the sum of the shares' parts
        (:func:`autodiff.sum_shares`): a share's squared errors summed over
        ``B * horizon`` minus the weight times its bonuses summed over
        ``B``. A share's error is raised once every thread has finished:
        that of the first share that failed."""
        if not batch:
            raise ModelError("joint_loss needs a nonempty batch")
        channels, inputs, targets = zip(*batch)
        x, targets = np.stack(inputs), np.stack(targets)
        n = min(FORECAST_THREADS, len(x))
        tape = ad.active_tape()
        if n < 2 or tape is None or tape.shares:
            return self._loss_part(x, channels, targets, len(x))
        x, channels = self._checked(x, channels)  # the serial errors, first
        bounds = [len(x) * i // n for i in range(n + 1)]

        def part(i):
            rows = slice(bounds[i], bounds[i + 1])
            args = (x[rows], channels[rows], targets[rows], len(x))
            if i == 0:
                return self._loss_part(*args)
            with ad.Tape():
                return self._loss_part(*args)

        return ad.sum_shares(ad.in_threads(part, range(n)))

    def _loss_part(self, x, channels, targets, batch_size: int) -> Tensor:
        """The part of :meth:`joint_loss` over a batch of ``batch_size``
        windows that the windows ``x`` contribute: all of it when they are
        the batch."""
        out = self.forward(x, channels)
        err = ad.sub(out.forecast, Tensor(targets))
        loss = ad.tmean(ad.mul(err, err), count=batch_size * err.shape[1])
        if out.scores is not None:
            bonus = ad.tmean(alignment_term(out.scores, out.selections),
                             count=batch_size)
            loss = ad.sub(loss, ad.mul(bonus, self.config.alignment_weight))
        return loss
