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

import re
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Backbone, BackboneConfig, TrainabilityPolicy
from .backbone import parameter_shapes as backbone_shapes
from .preprocess import (DEFAULT_EPSILON, PatchSpec, RevInState, decompose,
                         patch, patch_count)
from .prompt import (AnchorBank, EmbeddingMatrix, PromptSelection,
                     alignment_term, prefix_concat, retrieve_topk)
from .series import WindowSpec


# windows per tape-free forward in ``ForecastModel.predict``. A tape-free
# forward holds only what is still read (GELU in one buffer, each block's
# activations freed on return), so 16 windows peak at 1.35 MiB (tracemalloc,
# default config) and run ~20% faster than 8 on the evaluation benchmark at
# the same peak RSS; 32 added 2.3-2.8 MiB (5-6%) to it, over its 5% bound
FORECAST_CHUNK = 16

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
    """One window's forecast, unpacked from a batch of one."""

    forecast: np.ndarray                # denormalized, length horizon
    selection: PromptSelection
    ts_embed: np.ndarray                # (N_P, D)
    normalized_forecast: np.ndarray     # pre-denormalization, length horizon
    normalized_components: np.ndarray   # (n_components, horizon)


@dataclass
class ForwardPass:
    """What :meth:`ForecastModel.forward` computed for a batch of B windows,
    as tensors on the active tape."""

    forecast: Tensor                    # (B, horizon), denormalized
    normalized_forecast: Tensor         # (B, horizon)
    components: Tensor                  # (B, n_components * horizon)
    ts_embed: Tensor                    # (B, N_P, D)
    selections: list[PromptSelection]   # one per window
    anchors: Tensor | None              # the step's anchors; None without prompts


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
        self.config = config
        self.embedding = embedding
        self.policy = policy if policy is not None else TrainabilityPolicy()
        # the model holds the projections and the affine pair itself
        own = [(name, shape) for name, shape
               in parameter_shapes(config, embedding.vocab_size).items()
               if name.startswith(("input_projection.", "output_projection.",
                                   "revin."))]
        if arrays is None:
            rng = np.random.default_rng(seed)
            self.backbone = Backbone(config.backbone,
                                     seed=int(rng.integers(2 ** 31)))
            self.bank = AnchorBank(embedding, config.n_anchors, rng=rng)
            values = {name: rng.normal(0.0, 0.02, size=shape) if len(shape) == 2
                      else np.ones(shape) if name == "revin.gamma"
                      else np.zeros(shape) for name, shape in own}
        else:
            check_arrays(config, embedding.vocab_size, arrays)
            self.backbone = Backbone(config.backbone, arrays={
                name: arrays[f"backbone.{name}"]
                for name in backbone_shapes(config.backbone)})
            self.bank = AnchorBank(embedding, config.n_anchors,
                                   map_weights=arrays["anchor_map.weight"])
            values = arrays
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

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        check_arrays(self.config, self.embedding.vocab_size, arrays)
        for name, tensor in self.params.items():
            tensor.data = np.ascontiguousarray(arrays[name])
        self.bank.map_weights.data = np.ascontiguousarray(arrays["anchor_map.weight"])
        for name, tensor in self.backbone.params.items():
            tensor.data = np.ascontiguousarray(arrays[f"backbone.{name}"])

    def _revin_affine(self, channels: np.ndarray, shape: tuple[int, ...]
                      ) -> tuple[Tensor, Tensor]:
        """Each window's (gamma, beta), gathered by channel and shaped to
        broadcast against a ``(B, ...)`` tensor."""
        return tuple(ad.reshape(ad.gather_rows(self.params[name], channels), shape)
                     for name in ("revin.gamma", "revin.beta"))

    # -- tokenization --------------------------------------------------------

    def tokenize_and_embed(self, x: np.ndarray, channels
                           ) -> tuple[Tensor, RevInState]:
        """Normalize, decompose, patch, and project a ``(B, lookback)``
        batch of windows, one channel per row; returns the ``(B, N_P, D)``
        embedding and the ``(B,)`` normalization statistics.

        The data-dependent part of the normalization (z-scoring by instance
        statistics) commutes with the linear decomposition and patching, so
        those run on plain arrays; the trainable affine pair is applied on
        the tape afterwards, which keeps the whole map differentiable.
        """
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        channels = np.asarray(channels, dtype=np.int64)
        if x.ndim != 2 or x.shape[1] != cfg.window.lookback:
            raise ModelError(f"expected (B, {cfg.window.lookback}) windows, "
                             f"got shape {x.shape}")
        if channels.shape != (x.shape[0],):
            raise ModelError(f"need one channel per window, got shape "
                             f"{channels.shape} for {x.shape[0]} windows")
        if channels.min() < 0 or channels.max() >= cfg.n_channels:
            raise ModelError(f"channel out of range [0, {cfg.n_channels}): "
                             f"{channels.tolist()}")
        # np.mean and np.var, written out as the reductions they run, so
        # the centered windows are formed once
        mean = np.add.reduce(x, axis=1) / x.shape[1]
        centered = x - mean[:, None]
        state = RevInState(mean=mean,
                           variance=np.add.reduce(centered * centered, axis=1)
                           / x.shape[1],
                           gamma=self.params["revin.gamma"].data[channels],
                           beta=self.params["revin.beta"].data[channels],
                           epsilon=DEFAULT_EPSILON)
        z = centered / state.scale[:, None]

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
        return ts_embed, state

    # -- forward -------------------------------------------------------------

    def _head(self, z_out: Tensor) -> Tensor:
        """Project backbone outputs to per-component horizons.

        Prompt positions are dropped before flattening unless configured
        otherwise, so the projection width does not depend on K.
        """
        cfg = self.config
        batch = z_out.shape[0]
        k = cfg.prompt_k
        if k > 0 and not cfg.include_prompt_in_output:
            start, length = k, cfg.n_patches
        else:
            start, length = 0, z_out.shape[1]
        kept = ad.narrow(z_out, 1, start, length)
        flat = ad.reshape(kept, (batch, length * cfg.backbone.embed_dim))
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
        """Retrieve each window's top-K anchors and prepend them to its
        patch embeddings: the backbone's input sequence, one selection per
        window, and the anchors (None without prompts). The anchors come
        from :meth:`AnchorBank.anchors_tensor`: derived on the active tape,
        or reused with no tape while the anchor map is unchanged."""
        k = self.config.prompt_k
        if k == 0:
            return ts_embed, [PromptSelection((), ())] * ts_embed.shape[0], None
        anchors = self.bank.anchors_tensor()
        selections = retrieve_topk(ts_embed.data, self.bank, k,
                                   pooling=self.config.pooling,
                                   anchors=anchors.data)
        indices = np.array([s.indices for s in selections])
        return (prefix_concat(ad.gather_rows(anchors, indices), ts_embed),
                selections, anchors)

    def forward(self, x: np.ndarray, channels) -> ForwardPass:
        """Forecast a ``(B, lookback)`` batch of windows, one channel per
        row: tokenize, :meth:`prompt`, run the backbone, project, recombine
        the components, and invert each window's normalization."""
        channels = np.asarray(channels, dtype=np.int64)
        ts_embed, state = self.tokenize_and_embed(x, channels)
        batch = ts_embed.shape[0]
        z_in, selections, anchors = self.prompt(ts_embed)
        components = self._head(self.backbone.forward(z_in))
        y_norm = self._recombine(components)
        gamma_t, beta_t = self._revin_affine(channels, (batch, 1))
        yhat = ad.div(ad.sub(y_norm, beta_t), gamma_t)
        yhat = ad.add(ad.mul(yhat, state.scale[:, None]), state.mean[:, None])
        return ForwardPass(forecast=yhat, normalized_forecast=y_norm,
                           components=components, ts_embed=ts_embed,
                           selections=selections, anchors=anchors)

    def forward_forecast(self, x: np.ndarray, channel: int = 0) -> ForecastResult:
        """Forecast one window: :meth:`forward` on a batch of one, unpacked
        with the intermediate pieces tests and exports need."""
        out = self.forward(np.asarray(x, dtype=np.float64)[None], [channel])
        return ForecastResult(
            forecast=out.forecast.data[0],
            selection=out.selections[0],
            ts_embed=out.ts_embed.data[0],
            normalized_forecast=out.normalized_forecast.data[0],
            normalized_components=out.components.data[0].reshape(
                self.config.n_components, self.config.window.horizon),
        )

    def predict(self, x: np.ndarray, channels) -> np.ndarray:
        """Denormalized ``(N, horizon)`` forecasts of an ``(N, lookback)``
        batch of windows, one channel per row: :meth:`forward` over
        consecutive chunks of :data:`FORECAST_CHUNK` windows. Called with no
        active tape, as evaluation does, it records nothing, the chunks
        share one derivation of the anchors, and each chunk's activations
        are freed before the next chunk runs."""
        x = np.asarray(x, dtype=np.float64)
        channels = np.asarray(channels, dtype=np.int64)
        if channels.shape != (len(x),):
            raise ModelError(f"need one channel per window, got shape "
                             f"{channels.shape} for {len(x)} windows")
        out = np.empty((len(x), self.config.window.horizon))
        for start in range(0, len(x), FORECAST_CHUNK):
            stop = start + FORECAST_CHUNK
            out[start:stop] = self.forward(x[start:stop],
                                           channels[start:stop]).forecast.data
        return out

    def joint_loss(self, batch, alignment_weight: float | None = None) -> Tensor:
        """Mean-squared forecast error minus the (weighted) batch-mean
        alignment bonus over a batch of (channel, input, target) windows;
        the training objective."""
        if not batch:
            raise ModelError("joint_loss needs a nonempty batch")
        lam = (self.config.alignment_weight if alignment_weight is None
               else float(alignment_weight))
        if lam < 0:
            raise ModelError("alignment weight must be >= 0")
        channels, inputs, targets = zip(*batch)
        out = self.forward(np.stack(inputs), channels)
        err = ad.sub(out.forecast, Tensor(np.stack(targets)))
        loss = ad.tmean(ad.mul(err, err))
        if out.anchors is not None:
            bonus = ad.tmean(alignment_term(out.ts_embed, out.selections,
                                            self.bank, pooling=self.config.pooling,
                                            anchors=out.anchors))
            loss = ad.sub(loss, ad.mul(bonus, lam))
        return loss
