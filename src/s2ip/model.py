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

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import Backbone, BackboneConfig, TrainabilityPolicy, default_policy
from .preprocess import (DEFAULT_EPSILON, PatchSpec, RevInState, decompose,
                         patch, patch_count)
from .prompt import (AnchorBank, EmbeddingMatrix, PromptSelection,
                     alignment_term, prefix_concat, retrieve_topk)
from .series import WindowSpec


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
    revin_epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.prompt_k < 0:
            raise ModelError("prompt_k must be >= 0 (0 disables prompting)")
        if self.n_anchors < 1:
            raise ModelError("n_anchors must be positive")
        if self.prompt_k > self.n_anchors:
            raise ModelError(f"prompt_k {self.prompt_k} exceeds n_anchors "
                             f"{self.n_anchors}")
        if self.alignment_weight < 0:
            raise ModelError("alignment_weight must be >= 0")
        if self.pooling not in ("mean", "per_patch"):
            raise ModelError(f"unknown pooling mode {self.pooling!r}")
        if self.n_channels < 1:
            raise ModelError("n_channels must be positive")
        if self.revin_epsilon <= 0:
            raise ModelError("revin_epsilon must be positive")
        if self.patch.patch_length > self.window.lookback:
            raise ModelError(f"patch_length {self.patch.patch_length} exceeds "
                             f"lookback {self.window.lookback}")
        if self.decomposition.enabled:
            tau = self.window.lookback
            if not 2 <= self.decomposition.period <= tau // 2:
                raise ModelError(f"decomposition period must lie in [2, {tau // 2}] "
                                 f"for lookback {tau}")
            tw = self.decomposition.trend_window
            if tw % 2 == 0 or tw > tau:
                raise ModelError(f"trend_window must be odd and <= {tau}, got {tw}")
        if self.prompt_k + self.n_patches > self.backbone.max_seq_len:
            raise ModelError(f"prompt_k + n_patches = "
                             f"{self.prompt_k + self.n_patches} exceeds "
                             f"max_seq_len {self.backbone.max_seq_len}")

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
        return {
            "window.lookback": self.window.lookback,
            "window.horizon": self.window.horizon,
            "window.stride": self.window.stride,
            "patch.length": self.patch.patch_length,
            "patch.stride": self.patch.stride,
            "decomposition.enabled": self.decomposition.enabled,
            "decomposition.period": self.decomposition.period,
            "decomposition.trend_window": self.decomposition.trend_window,
            "decomposition.method": self.decomposition.method,
            "decomposition.stl_inner": self.decomposition.stl_inner,
            "backbone.embed_dim": self.backbone.embed_dim,
            "backbone.n_layers": self.backbone.n_layers,
            "backbone.n_heads": self.backbone.n_heads,
            "backbone.max_seq_len": self.backbone.max_seq_len,
            "backbone.ffn_mult": self.backbone.ffn_mult,
            "backbone.dropout": self.backbone.dropout,
            "prompt_k": self.prompt_k,
            "n_anchors": self.n_anchors,
            "alignment_weight": self.alignment_weight,
            "include_prompt_in_output": self.include_prompt_in_output,
            "pooling": self.pooling,
            "n_channels": self.n_channels,
            "revin_epsilon": self.revin_epsilon,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(
            window=WindowSpec(int(d["window.lookback"]), int(d["window.horizon"]),
                              int(d["window.stride"])),
            patch=PatchSpec(int(d["patch.length"]), int(d["patch.stride"])),
            decomposition=DecompositionConfig(
                enabled=bool(d["decomposition.enabled"]),
                period=int(d["decomposition.period"]),
                trend_window=int(d["decomposition.trend_window"]),
                method=str(d["decomposition.method"]),
                stl_inner=int(d["decomposition.stl_inner"])),
            backbone=BackboneConfig(
                embed_dim=int(d["backbone.embed_dim"]),
                n_layers=int(d["backbone.n_layers"]),
                n_heads=int(d["backbone.n_heads"]),
                max_seq_len=int(d["backbone.max_seq_len"]),
                ffn_mult=int(d["backbone.ffn_mult"]),
                dropout=float(d["backbone.dropout"])),
            prompt_k=int(d["prompt_k"]),
            n_anchors=int(d["n_anchors"]),
            alignment_weight=float(d["alignment_weight"]),
            include_prompt_in_output=bool(d["include_prompt_in_output"]),
            pooling=str(d["pooling"]),
            n_channels=int(d["n_channels"]),
            revin_epsilon=float(d["revin_epsilon"]),
        )


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
                 seed: int = 0, policy: TrainabilityPolicy | None = None):
        if embedding.dim != config.backbone.embed_dim:
            raise ModelError(f"embedding width {embedding.dim} != backbone width "
                             f"{config.backbone.embed_dim}")
        self.config = config
        self.embedding = embedding
        self.policy = policy if policy is not None else default_policy()
        rng = np.random.default_rng(seed)
        self.backbone = Backbone(config.backbone, seed=int(rng.integers(2 ** 31)))
        self._backbone_trainable = self.backbone.apply_policy(self.policy)
        self.bank = AnchorBank(embedding, config.n_anchors, rng=rng)
        d = config.backbone.embed_dim
        self.params: dict[str, Tensor] = {
            "input_projection.weight": Tensor(
                rng.normal(0.0, 0.02, size=(config.meta_width, d)),
                requires_grad=True),
            "input_projection.bias": Tensor(np.zeros(d), requires_grad=True),
            "output_projection.weight": Tensor(
                rng.normal(0.0, 0.02, size=(config.flattened_width,
                                            config.output_dim)),
                requires_grad=True),
            "output_projection.bias": Tensor(np.zeros(config.output_dim),
                                             requires_grad=True),
            "revin.gamma": Tensor(np.ones(config.n_channels), requires_grad=True),
            "revin.beta": Tensor(np.zeros(config.n_channels), requires_grad=True),
        }

    # -- parameter bookkeeping ----------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every trainable tensor, exactly once, in a stable order."""
        out = [(name, t) for name, t in sorted(self.params.items())]
        out.append(("anchor_map.weight", self.bank.map_weights))
        out.extend((f"backbone.{name}", t) for name, t in self._backbone_trainable)
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def all_arrays(self) -> dict[str, np.ndarray]:
        """Every array needed to reproduce the model bit-for-bit."""
        out = {name: t.data for name, t in self.params.items()}
        out["anchor_map.weight"] = self.bank.map_weights.data
        for name, t in self.backbone.params.items():
            out[f"backbone.{name}"] = t.data
        out["embedding.values"] = self.embedding.values
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        expected = self.all_arrays()
        missing = sorted(set(expected) - set(arrays))
        if missing:
            raise ModelError(f"checkpoint is missing tensors: {missing}")
        extra = sorted(set(arrays) - set(expected))
        if extra:
            raise ModelError(f"checkpoint has unexpected tensors: {extra}")
        for name, arr in arrays.items():
            if arr.shape != expected[name].shape:
                raise ModelError(f"checkpoint tensor {name!r} has shape "
                                 f"{arr.shape}, expected {expected[name].shape}")
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
        state = RevInState(mean=x.mean(axis=1), variance=x.var(axis=1),
                           gamma=self.params["revin.gamma"].data[channels],
                           beta=self.params["revin.beta"].data[channels],
                           epsilon=cfg.revin_epsilon)
        z = (x - state.mean[:, None]) / state.scale[:, None]

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
            # the shift parameter lands on the trend block only
            shift_mask = np.zeros(meta_z.shape[1:])
            shift_mask[:, :lp] = 1.0
        else:
            meta_z = patch(z, cfg.patch)
            shift_mask = np.ones(meta_z.shape[1:])

        gamma_t, beta_t = self._revin_affine(channels, (len(channels), 1, 1))
        meta = ad.add(ad.mul(Tensor(meta_z), gamma_t),
                      ad.mul(Tensor(shift_mask), beta_t))
        ts_embed = ad.add(ad.matmul(meta, self.params["input_projection.weight"]),
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
        return ad.add(ad.matmul(flat, self.params["output_projection.weight"]),
                      self.params["output_projection.bias"])

    def _recombine(self, y_out: Tensor) -> Tensor:
        """Sum the trend, seasonal and residual horizon segments."""
        cfg = self.config
        if not cfg.decomposition.enabled:
            return y_out
        h = cfg.window.horizon
        parts = [ad.narrow(y_out, 1, i * h, h) for i in range(3)]
        return ad.add(ad.add(parts[0], parts[1]), parts[2])

    def forward(self, x: np.ndarray, channels) -> ForwardPass:
        """Forecast a ``(B, lookback)`` batch of windows, one channel per
        row: tokenize, retrieve and prepend the top-K anchors, run the
        backbone, project, recombine the components, and invert each
        window's normalization."""
        cfg = self.config
        channels = np.asarray(channels, dtype=np.int64)
        ts_embed, state = self.tokenize_and_embed(x, channels)
        batch = ts_embed.shape[0]
        z_in, anchors = ts_embed, None
        selections = [PromptSelection((), ())] * batch
        if cfg.prompt_k > 0:
            anchors = self.bank.anchors_tensor()
            selections = retrieve_topk(ts_embed.data, self.bank, cfg.prompt_k,
                                       pooling=cfg.pooling, anchors=anchors.data)
            indices = np.array([s.indices for s in selections])
            z_in = prefix_concat(ad.gather_rows(anchors, indices), ts_embed)
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
