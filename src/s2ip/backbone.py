"""Miniature causal pre-norm transformer used as a frozen backbone.

Only the positional embeddings and the layer-norm parameters are trainable
under the default policy; attention and feed-forward weights stay at their
(seeded or loaded) initial values throughout training.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

MASK_FILL = -1e30  # underflows to an exact zero attention weight after softmax


class BackboneError(ValueError):
    pass


@dataclass(frozen=True)
class BackboneConfig:
    embed_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_seq_len: int = 128
    ffn_mult: int = 4
    dropout: float = 0.0

    def __post_init__(self):
        if self.embed_dim < 1 or self.n_layers < 1 or self.n_heads < 1:
            raise BackboneError("embed_dim, n_layers, and n_heads must be positive")
        if self.embed_dim % self.n_heads != 0:
            raise BackboneError(f"embed_dim {self.embed_dim} not divisible by "
                                f"n_heads {self.n_heads}")
        if self.max_seq_len < 1:
            raise BackboneError("max_seq_len must be positive")
        if self.ffn_mult < 1:
            raise BackboneError("ffn_mult must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise BackboneError("dropout must lie in [0, 1)")


@dataclass(frozen=True)
class TrainabilityPolicy:
    """Which backbone parameter groups receive optimizer updates."""

    positional_embedding: bool = True
    layer_norms: bool = True
    attention: bool = False
    ffn: bool = False


def default_policy() -> TrainabilityPolicy:
    """Positional embeddings and layer norms train; everything else stays frozen."""
    return TrainabilityPolicy(True, True, False, False)


class Backbone:
    """Stack of pre-norm blocks (causal multi-head attention, then a GELU
    feed-forward), with learned positional embeddings and a final layer norm."""

    def __init__(self, config: BackboneConfig, seed: int = 0,
                 weights_path=None):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(seed))
        if weights_path is not None:
            self.load_weights(weights_path)

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.config
        d, hidden = cfg.embed_dim, cfg.ffn_mult * cfg.embed_dim

        def weight(shape):
            return Tensor(rng.normal(0.0, 0.02, size=shape))

        self.params["positional"] = weight((cfg.max_seq_len, d))
        for i in range(cfg.n_layers):
            p = f"layer.{i}"
            self.params[f"{p}.ln1.gain"] = Tensor(np.ones(d))
            self.params[f"{p}.ln1.bias"] = Tensor(np.zeros(d))
            for name in ("wq", "wk", "wv", "wo"):
                self.params[f"{p}.attn.{name}"] = weight((d, d))
            for name in ("bq", "bk", "bv", "bo"):
                self.params[f"{p}.attn.{name}"] = Tensor(np.zeros(d))
            self.params[f"{p}.ln2.gain"] = Tensor(np.ones(d))
            self.params[f"{p}.ln2.bias"] = Tensor(np.zeros(d))
            self.params[f"{p}.ffn.w1"] = weight((d, hidden))
            self.params[f"{p}.ffn.b1"] = Tensor(np.zeros(hidden))
            self.params[f"{p}.ffn.w2"] = weight((hidden, d))
            self.params[f"{p}.ffn.b2"] = Tensor(np.zeros(d))
        self.params["final_ln.gain"] = Tensor(np.ones(d))
        self.params["final_ln.bias"] = Tensor(np.zeros(d))

    # -- persistence --------------------------------------------------------

    def save_weights(self, path) -> None:
        with open(path, "wb") as fh:
            for name in sorted(self.params):
                ad.write_named_array(fh, name, self.params[name].data)

    def load_weights(self, path) -> None:
        with open(path, "rb") as fh:
            blob = fh.read()
        loaded: dict[str, np.ndarray] = {}
        stream = io.BytesIO(blob)
        while stream.tell() < len(blob):
            name, arr = ad.read_named_array(stream)
            loaded[name] = arr
        missing = sorted(set(self.params) - set(loaded))
        if missing:
            raise BackboneError(f"weight file is missing tensors: {missing}")
        for name, arr in loaded.items():
            if name not in self.params:
                raise BackboneError(f"unexpected tensor {name!r} in weight file")
            if arr.shape != self.params[name].shape:
                raise BackboneError(
                    f"shape mismatch for {name!r}: file has {arr.shape}, "
                    f"model expects {self.params[name].shape}")
            self.params[name].data = np.ascontiguousarray(arr)

    # -- trainability -------------------------------------------------------

    def apply_policy(self, policy: TrainabilityPolicy) -> list[tuple[str, Tensor]]:
        """Set requires_grad per the policy; returns the trainable tensors."""
        trainable = []
        for name, tensor in self.params.items():
            if name == "positional":
                flag = policy.positional_embedding
            elif ".ln1." in name or ".ln2." in name or name.startswith("final_ln"):
                flag = policy.layer_norms
            elif ".attn." in name:
                flag = policy.attention
            elif ".ffn." in name:
                flag = policy.ffn
            else:  # pragma: no cover - every parameter matches a group above
                raise BackboneError(f"unclassified parameter {name!r}")
            tensor.requires_grad = flag
            if flag:
                trainable.append((name, tensor))
        return trainable

    # -- forward ------------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        """Run (B, L, D) embeddings through the stack; output has the same
        shape. Position t only attends to positions <= t."""
        if x.ndim != 3:
            raise BackboneError(f"expected (B, L, D) input, got shape {x.shape}")
        b, length, d = x.shape
        cfg = self.config
        if d != cfg.embed_dim:
            raise BackboneError(f"embedding width {d} != configured {cfg.embed_dim}")
        if length > cfg.max_seq_len:
            raise BackboneError(f"sequence length {length} exceeds max_seq_len "
                                f"{cfg.max_seq_len}")
        heads, head_dim = cfg.n_heads, d // cfg.n_heads

        # the (L, D) positional table and the (L, L) causal mask broadcast
        # over the batch (and the heads)
        x = ad.add(x, ad.narrow(self.params["positional"], 0, 0, length))
        mask = Tensor(np.triu(np.full((length, length), MASK_FILL), k=1))

        for i in range(cfg.n_layers):
            p = f"layer.{i}"
            h = ad.layer_norm(x, self.params[f"{p}.ln1.gain"],
                              self.params[f"{p}.ln1.bias"])
            qkv = []
            for w, bias in (("wq", "bq"), ("wk", "bk"), ("wv", "bv")):
                proj = ad.add(ad.matmul(h, self.params[f"{p}.attn.{w}"]),
                              self.params[f"{p}.attn.{bias}"])
                proj = ad.transpose(ad.reshape(proj, (b, length, heads, head_dim)),
                                    (0, 2, 1, 3))
                qkv.append(proj)
            q, k, v = qkv
            scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                            1.0 / np.sqrt(head_dim))
            weights = ad.softmax(ad.add(scores, mask), axis=-1)
            context = ad.matmul(weights, v)
            context = ad.reshape(ad.transpose(context, (0, 2, 1, 3)),
                                 (b, length, d))
            attn_out = ad.add(ad.matmul(context, self.params[f"{p}.attn.wo"]),
                              self.params[f"{p}.attn.bo"])
            x = ad.add(x, attn_out)

            h = ad.layer_norm(x, self.params[f"{p}.ln2.gain"],
                              self.params[f"{p}.ln2.bias"])
            inner = ad.gelu(ad.add(ad.matmul(h, self.params[f"{p}.ffn.w1"]),
                                   self.params[f"{p}.ffn.b1"]))
            ffn_out = ad.add(ad.matmul(inner, self.params[f"{p}.ffn.w2"]),
                             self.params[f"{p}.ffn.b2"])
            x = ad.add(x, ffn_out)

        return ad.layer_norm(x, self.params["final_ln.gain"],
                             self.params["final_ln.bias"])


def parameter_count(config: BackboneConfig) -> int:
    """Closed-form parameter total: per layer 4D^2+4D attention, 8D^2+5D
    feed-forward (hidden = 4D), 4D layer norms; plus the final norm and the
    positional table."""
    d = config.embed_dim
    hidden = config.ffn_mult * d
    per_layer = (4 * d * d + 4 * d) + (2 * d * hidden + hidden + d) + 4 * d
    return config.n_layers * per_layer + 2 * d + config.max_seq_len * d
