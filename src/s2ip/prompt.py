"""Semantic anchors and prefix prompting.

A trainable linear map compresses a (large) reference embedding matrix into
a small bank of anchor vectors. Window embeddings are scored against every
anchor by cosine similarity; the top-K anchors are prepended to the patch
sequence, and the sum of the selected cosines doubles as a differentiable
alignment bonus in the training objective. The discrete selection itself
carries no gradient (straight-through): indices are fixed, scores stay
differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DEGENERATE_NORM = 1e-12

_degenerate_events = 0


def degenerate_score_events() -> int:
    """How many cosine scores were forced to 0 because a pooled embedding or
    anchor had (numerically) zero norm."""
    return _degenerate_events


def reset_degenerate_score_events() -> None:
    global _degenerate_events
    _degenerate_events = 0


class PromptError(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Reference vocabulary embeddings, one row per entry."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise PromptError(f"embedding matrix must be (V, D) with V >= 1, "
                              f"got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise PromptError("embedding matrix contains non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def vocab_size(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


class AnchorBank:
    """Trainable compression of an embedding matrix into a few anchors.

    ``map_weights`` is a (V', V) tensor; the anchors are map_weights @ E and
    are re-derived whenever needed so they track the trained map.
    """

    def __init__(self, embedding: EmbeddingMatrix, n_anchors: int,
                 rng: np.random.Generator | None = None,
                 map_weights: np.ndarray | None = None):
        if n_anchors < 1:
            raise PromptError("need at least one anchor")
        if n_anchors > embedding.vocab_size // 2:
            raise PromptError(f"n_anchors must be << vocab size (at most "
                              f"{embedding.vocab_size // 2}), got {n_anchors}")
        self.embedding = embedding
        self.n_anchors = n_anchors
        if map_weights is None:
            rng = rng or np.random.default_rng(0)
            map_weights = rng.normal(0.0, 0.02,
                                     size=(n_anchors, embedding.vocab_size))
        map_weights = np.asarray(map_weights, dtype=np.float64)
        if map_weights.shape != (n_anchors, embedding.vocab_size):
            raise PromptError(f"map_weights must be ({n_anchors}, "
                              f"{embedding.vocab_size}), got {map_weights.shape}")
        self.map_weights = Tensor(map_weights, requires_grad=True)

    def anchors_tensor(self) -> Tensor:
        return derive_anchors(self.embedding, self.map_weights)

    def anchors(self) -> np.ndarray:
        return self.map_weights.data @ self.embedding.values


def derive_anchors(embedding: EmbeddingMatrix, map_weights: Tensor) -> Tensor:
    """Anchors = map_weights @ E, on the tape so the map can train."""
    if map_weights.shape[1] != embedding.vocab_size:
        raise ad.ShapeError(f"map_weights width {map_weights.shape[1]} != vocab "
                            f"size {embedding.vocab_size}")
    return ad.matmul(map_weights, Tensor(embedding.values))


@dataclass(frozen=True)
class PromptSelection:
    """Top-K anchor indices in descending score order (ties broken by lower
    index), with the matching cosine scores."""

    indices: tuple[int, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.scores):
            raise PromptError("indices and scores length mismatch")
        if len(set(self.indices)) != len(self.indices):
            raise PromptError("selection contains duplicate indices")
        for a, b in zip(self.scores, self.scores[1:]):
            if b > a + 1e-12:
                raise PromptError("scores must be non-increasing")

    @property
    def k(self) -> int:
        return len(self.indices)


def score_all(ts_embed: np.ndarray, anchors: np.ndarray,
              pooling: str = "mean") -> np.ndarray:
    """Cosine score of each window embedding against every anchor row.

    ``ts_embed`` is one ``(N_P, D)`` window or a ``(B, N_P, D)`` batch; the
    scores are ``(A,)`` or ``(B, A)``. A score whose pooled embedding (or,
    under per-patch pooling, whose patch row) or anchor is numerically zero
    is 0, and each such window or anchor counts as a degenerate event.
    """
    global _degenerate_events
    ts_embed = np.asarray(ts_embed, dtype=np.float64)
    if ts_embed.ndim not in (2, 3):
        raise PromptError(f"expected an (N_P, D) or (B, N_P, D) embedding, "
                          f"got {ts_embed.shape}")
    anchors = np.asarray(anchors, dtype=np.float64)
    anchor_norms = np.linalg.norm(anchors, axis=1)
    degenerate = anchor_norms < DEGENERATE_NORM
    safe_anchor = np.where(degenerate, 1.0, anchor_norms)
    if pooling == "mean":
        pooled = ts_embed.mean(axis=-2)
        p_norm = np.linalg.norm(pooled, axis=-1, keepdims=True)
        flat = p_norm < DEGENERATE_NORM
        scores = pooled @ anchors.T / (safe_anchor * np.where(flat, 1.0, p_norm))
        scores = np.where(flat, 0.0, scores)
        # a flat window scores 0 everywhere and counts once
        _degenerate_events += int(flat.sum())
        windows_scored = int(flat.size - flat.sum())
    elif pooling == "per_patch":
        row_norms = np.linalg.norm(ts_embed, axis=-1, keepdims=True)
        flat = row_norms < DEGENERATE_NORM
        cosines = ((ts_embed / np.where(flat, 1.0, row_norms))
                   @ (anchors / safe_anchor[:, None]).T)
        scores = np.where(flat, 0.0, cosines).mean(axis=-2)
        windows_scored = int(np.prod(ts_embed.shape[:-2]))
    else:
        raise PromptError(f"unknown pooling mode {pooling!r}")
    if degenerate.any():
        _degenerate_events += windows_scored * int(degenerate.sum())
        scores = np.where(degenerate, 0.0, scores)
    return scores


def retrieve_topk(ts_embed: np.ndarray, bank: AnchorBank, k: int,
                  pooling: str = "mean", anchors: np.ndarray | None = None
                  ) -> PromptSelection | list[PromptSelection]:
    """Score every anchor and keep the k best, lower index first on ties.

    An ``(N_P, D)`` window gives one selection, a ``(B, N_P, D)`` batch one
    per window. ``anchors`` is the bank's current anchor matrix when the
    caller already holds it; by default it is derived from the bank.
    """
    if not 1 <= k <= bank.n_anchors:
        raise PromptError(f"k must lie in [1, {bank.n_anchors}], got {k}")
    if anchors is None:
        anchors = bank.anchors()
    scores = score_all(ts_embed, anchors, pooling=pooling)
    # stable sort on negated scores: equal scores keep ascending index order
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    top = np.take_along_axis(scores, order, axis=-1)
    if scores.ndim == 1:
        return PromptSelection(tuple(order.tolist()), tuple(top.tolist()))
    return [PromptSelection(tuple(i), tuple(s))
            for i, s in zip(order.tolist(), top.tolist())]


def prefix_concat(selected_anchors: Tensor, ts_embed: Tensor) -> Tensor:
    """Prepend the selected anchor rows (score order) to the patch rows,
    along the sequence axis of one window or of a batch."""
    if selected_anchors.shape[-2] == 0:
        return ts_embed
    if selected_anchors.shape[-1] != ts_embed.shape[-1]:
        raise ad.ShapeError(f"anchor width {selected_anchors.shape[-1]} != "
                            f"embedding width {ts_embed.shape[-1]}")
    return ad.concat([selected_anchors, ts_embed], axis=-2)


def _norms(rows: Tensor) -> Tensor:
    """Differentiable L2 norm over the last axis, kept as a size-1 axis."""
    return ad.sqrt(ad.tsum(ad.mul(rows, rows), axis=-1, keepdims=True))


def alignment_term(ts_embed: Tensor, selection, bank: AnchorBank,
                   pooling: str = "mean", anchors: Tensor | None = None
                   ) -> Tensor:
    """Sum of the selected anchors' scores, as a differentiable value.

    ``ts_embed`` is one ``(N_P, D)`` window with one ``PromptSelection``
    (the result is a scalar), or a ``(B, N_P, D)`` batch with one selection
    per window (the result has shape ``(B,)``). Gradients flow into the
    window embeddings and the anchor map, never into the discrete index
    choice. Each value is bounded in [-K, K]. A pre-derived ``anchors``
    tensor may be passed to share one derivation across a step.
    """
    single = ts_embed.ndim == 2
    selections = [selection] if single else list(selection)
    indices = np.array([s.indices for s in selections], dtype=np.int64)
    if indices.size == 0:
        return Tensor(0.0 if single else np.zeros(len(selections)))
    if indices.max() >= bank.n_anchors:
        raise PromptError("selection indices exceed the anchor bank")
    if anchors is None:
        anchors = bank.anchors_tensor()
    if single:
        ts_embed = ad.reshape(ts_embed, (1,) + ts_embed.shape)
    selected = ad.gather_rows(anchors, indices)                # (B, K, D)
    if pooling == "mean":
        pooled = ad.tmean(ts_embed, axis=1, keepdims=True)                # (B, 1, D)
        num = ad.tsum(ad.mul(selected, pooled), axis=2, keepdims=True)   # (B, K, 1)
        cosines = ad.div(num, ad.mul(_norms(selected), _norms(pooled)))
        terms = ad.tsum(cosines, axis=(1, 2))
    elif pooling == "per_patch":
        num = ad.matmul(ts_embed, ad.transpose(selected, (0, 2, 1)))  # (B, N_P, K)
        anchor_norms = ad.transpose(_norms(selected), (0, 2, 1))      # (B, 1, K)
        cosines = ad.div(ad.div(num, _norms(ts_embed)), anchor_norms)
        terms = ad.tsum(ad.tmean(cosines, axis=1), axis=1)
    else:
        raise PromptError(f"unknown pooling mode {pooling!r}")
    return ad.reshape(terms, ()) if single else terms


def clustered_vocabulary(vocab_size: int, dim: int, n_clusters: int = 8,
                         seed: int = 0, spread: float = 0.1) -> EmbeddingMatrix:
    """Synthetic vocabulary: a Gaussian mixture with ``n_clusters`` centers,
    for tests and the self-contained harness."""
    if vocab_size < 1 or dim < 1 or n_clusters < 1:
        raise PromptError("vocab_size, dim, and n_clusters must be positive")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(n_clusters, dim))
    assignments = rng.integers(0, n_clusters, size=vocab_size)
    points = centers[assignments] + rng.normal(0.0, spread, size=(vocab_size, dim))
    return EmbeddingMatrix(points)
