"""Semantic anchors and prefix prompting.

A trainable linear map compresses a (large) reference embedding matrix into
a small bank of anchor vectors. Window embeddings are scored against every
anchor by cosine similarity, once per forward; the top-K anchors are
prepended to the patch sequence, and the sum of the selected scores doubles
as a differentiable alignment bonus in the training objective. The discrete
selection itself carries no gradient (straight-through): indices are fixed,
scores stay differentiable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DEGENERATE_NORM = 1e-12

_degenerate_events = 0
_degenerate_lock = threading.Lock()   # forecast threads score concurrently


def degenerate_score_events() -> int:
    """How many cosine scores were forced to 0 because a pooled embedding or
    anchor had (numerically) zero norm."""
    return _degenerate_events


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

    ``map_weights`` is a (V', V) tensor; the anchors are map_weights @ E.
    On a tape they are derived afresh, so the map trains; with no tape they
    are reused while the map holds the contents they were derived from.
    """

    def __init__(self, embedding: EmbeddingMatrix, n_anchors: int,
                 map_weights: np.ndarray):
        if n_anchors < 1:
            raise PromptError("need at least one anchor")
        if n_anchors > embedding.vocab_size // 2:
            raise PromptError(f"n_anchors must be << vocab size (at most "
                              f"{embedding.vocab_size // 2}), got {n_anchors}")
        self.embedding = embedding
        self.n_anchors = n_anchors
        map_weights = np.asarray(map_weights, dtype=np.float64)
        if map_weights.shape != (n_anchors, embedding.vocab_size):
            raise PromptError(f"map_weights must be ({n_anchors}, "
                              f"{embedding.vocab_size}), got {map_weights.shape}")
        self.map_weights = Tensor(map_weights, requires_grad=True)
        # the last tape-free derivation: the anchors, their norms and
        # degenerate mask, and a copy of the map they were derived from,
        # replaced as one tuple so a reader never mixes two derivations
        self._tape_free: tuple[Tensor, tuple[Tensor, np.ndarray],
                               np.ndarray] | None = None

    def anchors_tensor(self) -> Tensor:
        """The anchors as a tensor, as :meth:`scoring_anchors` gives them."""
        return self.scoring_anchors()[0]

    def scoring_anchors(self) -> tuple[Tensor, tuple[Tensor, np.ndarray] | None]:
        """The anchors as a tensor, and their ``(A,)`` norms and degenerate
        mask for :func:`score`. With a tape active the anchors are derived on
        it and the norms are None, for :func:`score` to derive on the tape.
        Without one, the last tape-free derivation and its norms are
        returned while the map's contents equal those it was derived from;
        the contents are compared, not the array's identity, because
        ``grad_check`` perturbs the map in place."""
        if ad.active_tape() is not None:
            return derive_anchors(self.embedding, self.map_weights), None
        weights = self.map_weights.data
        cached = self._tape_free
        if cached is None or not np.array_equal(cached[2], weights):
            anchors = derive_anchors(self.embedding, self.map_weights)
            norms = _norms(anchors, keepdims=False)
            for arr in (anchors.data, norms[0].data, norms[1]):
                arr.flags.writeable = False     # every caller shares them
            cached = self._tape_free = (anchors, norms, weights.copy())
        return cached[0], cached[1]

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
        if any(i < 0 for i in self.indices):
            raise PromptError("selection contains a negative index")
        for a, b in zip(self.scores, self.scores[1:]):
            if b > a + 1e-12:
                raise PromptError("scores must be non-increasing")

    @property
    def k(self) -> int:
        return len(self.indices)


def _norms(rows: Tensor, keepdims: bool) -> tuple[Tensor, np.ndarray]:
    """L2 norm over the last axis, and the mask of rows whose norm is below
    ``DEGENERATE_NORM``. A degenerate row's norm reads about 1, so dividing
    by it and its gradient stay finite."""
    squares = ad.tsum(ad.mul(rows, rows), axis=-1, keepdims=keepdims)
    flat = np.sqrt(squares.data) < DEGENERATE_NORM
    if flat.any():
        squares = ad.add(squares, flat.astype(np.float64))
    return ad.sqrt(squares), flat


def _cosines(ts_embed: Tensor, anchors: Tensor, pooling: str,
             anchor_norms: tuple[Tensor, np.ndarray] | None = None
             ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Cosine of each window embedding against every anchor row: the
    ``(B, A)`` scores of ``(B, N_P, D)`` windows and ``(A, D)`` anchors,
    the mask of degenerate window rows (``(B,)`` pooled rows under mean
    pooling, ``(B, N_P)`` patch rows under per-patch pooling) and the
    ``(A,)`` mask of degenerate anchors. A cosine with a degenerate row or
    anchor is 0, with a zero gradient. Built from ``ad`` ops, so it records
    on the active tape when an input does and runs tape-free otherwise.
    ``anchor_norms`` are the anchors' ``(A,)`` :func:`_norms`, when the
    caller holds them; by default they are formed here."""
    if pooling == "mean":
        pooled = ad.tmean(ts_embed, axis=1)                           # (B, D)
        norms, flat = _norms(pooled, keepdims=True)                   # (B, 1)
        anchor_norms, anchor_flat = (anchor_norms                     # (A,)
                                     or _norms(anchors, keepdims=False))
        cosines = ad.div(ad.matmul(pooled, anchors, transpose_b=True),
                         ad.mul(anchor_norms, norms))
    elif pooling == "per_patch":
        norms, flat = _norms(ts_embed, keepdims=True)                 # (B, N_P, 1)
        if anchor_norms is None:
            anchor_norms, anchor_flat = _norms(anchors, keepdims=True)  # (A, 1)
        else:
            anchor_norms, anchor_flat = anchor_norms
            anchor_norms = ad.reshape(anchor_norms, (-1, 1))
        cosines = ad.matmul(ad.div(ts_embed, norms),
                            ad.div(anchors, anchor_norms), transpose_b=True)
    else:
        raise PromptError(f"unknown pooling mode {pooling!r}")
    anchor_flat = anchor_flat.reshape(-1)
    keep = ~(flat | anchor_flat)
    if not keep.all():
        cosines = ad.mul(cosines, keep)
    if pooling == "per_patch":
        cosines = ad.tmean(cosines, axis=1)
    return cosines, flat[..., 0], anchor_flat


def score(ts_embed: Tensor, anchors: Tensor, pooling: str = "mean",
          anchor_norms: tuple[Tensor, np.ndarray] | None = None) -> Tensor:
    """The ``(B, A)`` cosine scores of ``(B, N_P, D)`` windows against
    ``(A, D)`` anchors, recorded on the active tape when an input is.
    ``anchor_norms`` are the anchors' norms and degenerate mask as
    :meth:`AnchorBank.scoring_anchors` gives them, or None to form them.

    A score whose pooled embedding (or, under per-patch pooling, whose patch
    row) or anchor is numerically zero is 0. Each window with such a row
    counts once as a degenerate event, and each such anchor once per other
    window.
    """
    global _degenerate_events
    scores, flat, anchor_flat = _cosines(ts_embed, anchors, pooling,
                                         anchor_norms)
    flat = flat.reshape(len(flat), -1).any(axis=1)
    events = int(flat.sum() + (flat.size - flat.sum()) * anchor_flat.sum())
    with _degenerate_lock:
        _degenerate_events += events
    return scores


def score_all(ts_embed: np.ndarray, anchors: np.ndarray,
              pooling: str = "mean") -> np.ndarray:
    """:func:`score` on arrays: ``ts_embed`` is one ``(N_P, D)`` window or
    a ``(B, N_P, D)`` batch, and the scores are ``(A,)`` or ``(B, A)``."""
    ts_embed = np.asarray(ts_embed, dtype=np.float64)
    if ts_embed.ndim not in (2, 3):
        raise PromptError(f"expected an (N_P, D) or (B, N_P, D) embedding, "
                          f"got {ts_embed.shape}")
    scores = score(Tensor(ts_embed.reshape((-1,) + ts_embed.shape[-2:])),
                   Tensor(anchors), pooling)
    return scores.data.reshape(ts_embed.shape[:-2] + scores.shape[-1:])


def retrieve_topk(ts_embed: np.ndarray, bank: AnchorBank, k: int,
                  pooling: str = "mean", scores: np.ndarray | None = None
                  ) -> PromptSelection | list[PromptSelection]:
    """Keep each window's k best-scored anchors, lower index first on ties.

    An ``(N_P, D)`` window gives one selection, a ``(B, N_P, D)`` batch one
    per window. ``scores`` are the windows' scores against the bank's
    anchors when the caller already holds them, as :meth:`ForecastModel.prompt`
    does from :func:`score`; by default :func:`score_all` computes them.
    Given scores must be ``(n_anchors,)`` for one window and
    ``(B, n_anchors)`` for a batch; ``pooling`` is then not read.
    """
    if not 1 <= k <= bank.n_anchors:
        raise PromptError(f"k must lie in [1, {bank.n_anchors}], got {k}")
    if scores is None:
        scores = score_all(ts_embed, bank.anchors(), pooling=pooling)
    elif scores.shape != np.shape(ts_embed)[:-2] + (bank.n_anchors,):
        raise PromptError(f"scores of shape {scores.shape} do not fit windows "
                          f"of shape {np.shape(ts_embed)}: expected "
                          f"{np.shape(ts_embed)[:-2] + (bank.n_anchors,)}")
    # stable sort on negated scores: equal scores keep ascending index order
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    top = np.take_along_axis(scores, order, axis=-1)
    if scores.ndim == 1:
        return PromptSelection(tuple(order.tolist()), tuple(top.tolist()))
    return [PromptSelection(tuple(i), tuple(s))
            for i, s in zip(order.tolist(), top.tolist())]


def alignment_term(scores: Tensor, selections) -> Tensor:
    """Each window's sum of its selected anchors' scores, as a
    differentiable ``(B,)`` value, from the ``(B, A)`` :func:`score` tensor
    the selections were ranked by and one ``PromptSelection`` per window.

    When the scores are on the tape, gradients flow into the window
    embeddings and the anchor map, never into the discrete index choice.
    Each value is bounded in [-K, K]; a degenerate row or anchor contributes
    a cosine of 0, with a finite gradient.
    """
    indices = np.array([s.indices for s in selections], dtype=np.int64)
    if indices.size == 0:
        return Tensor(np.zeros(len(selections)))
    # checked here too: a negative index would wrap to the last anchors
    if indices.min() < 0 or indices.max() >= scores.shape[1]:
        raise PromptError("selection indices outside the anchor bank")
    chosen = np.zeros(scores.shape)
    np.put_along_axis(chosen, indices, 1.0, axis=1)
    return ad.tsum(ad.mul(scores, chosen), axis=1)


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
