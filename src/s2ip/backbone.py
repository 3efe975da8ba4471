"""Miniature causal pre-norm transformer used as a frozen backbone.

Only the positional embeddings and the layer-norm parameters are trainable
under the default policy; attention and feed-forward weights stay at their
(seeded or loaded) initial values throughout training.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class TrainabilityPolicy:
    """Which backbone parameter groups receive optimizer updates."""

    positional_embedding: bool = True
    layer_norms: bool = True
    attention: bool = False
    ffn: bool = False


def parameter_shapes(config: BackboneConfig) -> dict[str, tuple[int, ...]]:
    """Every backbone parameter's shape, in initialization order."""
    d, hidden = config.embed_dim, config.ffn_mult * config.embed_dim
    shapes = {"positional": (config.max_seq_len, d)}
    for p in (f"layer.{i}" for i in range(config.n_layers)):
        shapes.update({f"{p}.ln1.gain": (d,), f"{p}.ln1.bias": (d,)})
        shapes.update({f"{p}.attn.w{n}": (d, d) for n in "qkvo"})
        shapes.update({f"{p}.attn.b{n}": (d,) for n in "qkvo"})
        shapes.update({f"{p}.ln2.gain": (d,), f"{p}.ln2.bias": (d,),
                       f"{p}.ffn.w1": (d, hidden), f"{p}.ffn.b1": (hidden,),
                       f"{p}.ffn.w2": (hidden, d), f"{p}.ffn.b2": (d,)})
    shapes.update({"final_ln.gain": (d,), "final_ln.bias": (d,)})
    return shapes


class Backbone:
    """Stack of pre-norm blocks (causal multi-head attention, then a GELU
    feed-forward), with learned positional embeddings and a final layer norm."""

    def __init__(self, config: BackboneConfig, seed: int = 0,
                 arrays: dict[str, np.ndarray] | None = None,
                 drop_prefix: int = 0):
        """Draw the parameters from ``seed``, or take them from ``arrays``,
        keyed by :func:`parameter_shapes`' names. :meth:`forward` leaves
        the first ``drop_prefix`` positions out of its output."""
        self.config = config
        self.drop_prefix = drop_prefix
        self.params: dict[str, Tensor] = {}
        self._masks: dict[int, Tensor] = {}
        rng = np.random.default_rng(seed) if arrays is None else None
        for name, shape in parameter_shapes(config).items():
            if arrays is not None:
                value = arrays[name]
            elif len(shape) == 2:  # a weight matrix
                value = rng.normal(0.0, 0.02, size=shape)
            else:  # gains start at one, biases at zero
                value = np.ones(shape) if name.endswith("gain") else np.zeros(shape)
            self.params[name] = Tensor(value)

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
                # softmax cancels the key bias, so its gradient is exactly 0
                flag = policy.attention and not name.endswith(".bk")
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
        """Run (B, L, D) embeddings through the stack; returns the
        (B, L - drop_prefix, D) outputs of the positions after the dropped
        prefix. Position t only attends to positions <= t.

        The dropped rows are cut right after the last attention block: they
        still supply that block's keys and values, so every kept row is
        exact, but the last feed-forward and the final norm skip them."""
        if x.ndim != 3:
            raise BackboneError(f"expected (B, L, D) input, got shape {x.shape}")
        _, length, d = x.shape
        cfg = self.config
        if d != cfg.embed_dim:
            raise BackboneError(f"embedding width {d} != configured {cfg.embed_dim}")
        if length > cfg.max_seq_len:
            raise BackboneError(f"sequence length {length} exceeds max_seq_len "
                                f"{cfg.max_seq_len}")
        heads = cfg.n_heads

        # the (L, D) positional table and the (L, L) causal mask broadcast
        # over the batch (and the heads); the mask is built once per length
        # (threads of one forecast that race here build equal masks, and
        # the dict keeps one of them)
        x = ad.add(x, ad.narrow(self.params["positional"], 0, 0, length))
        mask = self._masks.get(length)
        if mask is None:
            mask = Tensor(np.triu(np.full((length, length), MASK_FILL), k=1))
            self._masks[length] = mask

        for i in range(cfg.n_layers):
            x = self._attention_block(x, f"layer.{i}", mask, heads)
            if i == cfg.n_layers - 1:
                x = ad.narrow(x, 1, self.drop_prefix, length - self.drop_prefix)
            x = self._ffn_block(x, f"layer.{i}")

        return ad.layer_norm(x, self.params["final_ln.gain"],
                             self.params["final_ln.bias"])

    # each block returns its residual sum and drops each activation once
    # the next op has read it, so only what is still read stays live
    # (unless a tape node saved it)

    def _attention_block(self, x: Tensor, p: str, mask: Tensor,
                         heads: int) -> Tensor:
        h = ad.layer_norm(x, self.params[f"{p}.ln1.gain"],
                          self.params[f"{p}.ln1.bias"])
        q, k, v = (ad.linear(h, self.params[f"{p}.attn.w{n}"],
                             self.params[f"{p}.attn.b{n}"]) for n in "qkv")
        del h
        scores = ad.attention_scores(q, k, mask, heads)
        del q, k
        weights = ad.softmax(scores, axis=-1)
        del scores
        context = ad.attention_context(weights, v, heads)
        del weights, v
        out = ad.linear(context, self.params[f"{p}.attn.wo"],
                        self.params[f"{p}.attn.bo"])
        del context
        return ad.add(x, out)

    def _ffn_block(self, x: Tensor, p: str) -> Tensor:
        h = ad.layer_norm(x, self.params[f"{p}.ln2.gain"],
                          self.params[f"{p}.ln2.bias"])
        inner = ad.linear(h, self.params[f"{p}.ffn.w1"],
                          self.params[f"{p}.ffn.b1"])
        del h
        # tape-free, GELU writes over the w1 product, read by nothing else
        inner = ad.gelu(inner, overwrite=True)
        out = ad.linear(inner, self.params[f"{p}.ffn.w2"],
                        self.params[f"{p}.ffn.b2"])
        del inner
        return ad.add(x, out)
