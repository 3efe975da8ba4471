import numpy as np
import pytest

import s2ip.autodiff as ad
import s2ip.prompt as pr
from s2ip.autodiff import Tensor
from s2ip.prompt import (AnchorBank, EmbeddingMatrix, PromptError,
                         PromptSelection, alignment_term, clustered_vocabulary,
                         derive_anchors, prefix_concat, retrieve_topk,
                         score_all)


def brute_force_topk(ts_embed, anchors, k):
    """Reference: score every anchor with plain loops, sort by score then
    index."""
    pooled = np.mean(ts_embed, axis=0)
    scored = []
    for i, anchor in enumerate(anchors):
        na, np_ = np.linalg.norm(anchor), np.linalg.norm(pooled)
        score = 0.0 if min(na, np_) < 1e-12 else float(pooled @ anchor / (na * np_))
        scored.append((i, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [i for i, _ in scored[:k]], [s for _, s in scored[:k]]


def make_bank(v=20, d=4, n_anchors=6, seed=0):
    rng = np.random.default_rng(seed)
    emb = EmbeddingMatrix(rng.normal(size=(v, d)))
    return AnchorBank(emb, n_anchors, rng=rng)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_derive_anchors_one_hot_selects_rows():
    emb = EmbeddingMatrix(np.arange(20.0).reshape(5, 4))
    weights = np.zeros((2, 5))
    weights[0, 0] = 1.0
    weights[1, 3] = 1.0
    anchors = derive_anchors(emb, Tensor(weights))
    assert np.array_equal(anchors.data[0], emb.values[0])
    assert np.array_equal(anchors.data[1], emb.values[3])


def test_derive_anchors_uniform_is_centroid():
    emb = EmbeddingMatrix(np.random.default_rng(1).normal(size=(6, 3)))
    weights = np.full((1, 6), 1.0 / 6.0)
    anchors = derive_anchors(emb, Tensor(weights))
    assert np.allclose(anchors.data[0], emb.values.mean(axis=0))


def test_derive_anchors_matches_manual_product():
    rng = np.random.default_rng(2)
    emb = EmbeddingMatrix(rng.normal(size=(10, 3)))
    weights = rng.normal(size=(4, 10))
    anchors = derive_anchors(emb, Tensor(weights))
    manual = np.array([[sum(weights[r, i] * emb.values[i, c] for i in range(10))
                        for c in range(3)] for r in range(4)])
    assert np.allclose(anchors.data, manual, atol=1e-12)


def test_bank_rejects_too_many_anchors():
    emb = EmbeddingMatrix(np.zeros((10, 4)) + 1.0)
    with pytest.raises(PromptError):
        AnchorBank(emb, 6)  # > V/2


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_parallel():
    ts = np.tile([1.0, 0.0], (3, 1))
    assert score_all(ts, np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)


def test_score_orthogonal():
    ts = np.tile([1.0, 0.0], (3, 1))
    assert score_all(ts, np.array([[0.0, 1.0]]))[0] == pytest.approx(0.0)


def test_score_hand_computed():
    ts = np.tile([1.0, 1.0], (2, 1))
    score = score_all(ts, np.array([[2.0, 0.0]]))[0]
    assert score == pytest.approx(2.0 / (np.sqrt(2.0) * 2.0))
    assert score == pytest.approx(0.70711, abs=1e-5)


def test_score_degenerate_flagged():
    pr.reset_degenerate_score_events()
    ts = np.zeros((3, 2))
    assert score_all(ts, np.array([[1.0, 0.0]]))[0] == 0.0
    assert pr.degenerate_score_events() == 1
    # a batch counts each flat window once, and each zero anchor once per
    # window it is scored against
    batch = np.stack([np.zeros((3, 2)), np.ones((3, 2))])
    scores = score_all(batch, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(scores, [[0.0, 0.0], [np.sqrt(0.5), 0.0]], atol=1e-15)
    assert pr.degenerate_score_events() == 3
    pr.reset_degenerate_score_events()


@pytest.mark.parametrize("pooling", ["mean", "per_patch"])
def test_score_batch_matches_rows(pooling):
    rng = np.random.default_rng(14)
    anchors = rng.normal(size=(6, 4))
    batch = rng.normal(size=(5, 3, 4))
    scores = score_all(batch, anchors, pooling=pooling)
    for row, ts in zip(scores, batch):
        assert np.max(np.abs(row - score_all(ts, anchors, pooling=pooling))) <= 1e-15


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def test_retrieve_topk_small_example():
    emb = EmbeddingMatrix(np.eye(6)[:, :2] + 0.0)
    bank = AnchorBank(emb, 3, map_weights=np.zeros((3, 6)))
    bank.map_weights.data[0] = [1, 0, 0, 0, 0, 0]   # anchor (1, 0)
    bank.map_weights.data[1] = [0, 1, 0, 0, 0, 0]   # anchor (0, 1)
    bank.map_weights.data[2] = [0.6, 0.8, 0, 0, 0, 0]  # anchor (0.6, 0.8)
    ts = np.tile([1.0, 0.0], (4, 1))
    selection = retrieve_topk(ts, bank, k=2)
    assert selection.indices == (0, 2)
    assert selection.scores[0] == pytest.approx(1.0)
    assert selection.scores[1] == pytest.approx(0.6)


def test_retrieve_all_sorted():
    bank = make_bank(seed=3)
    rng = np.random.default_rng(4)
    ts = rng.normal(size=(5, 4))
    selection = retrieve_topk(ts, bank, k=bank.n_anchors)
    assert sorted(selection.indices) == list(range(bank.n_anchors))
    assert list(selection.scores) == sorted(selection.scores, reverse=True)


def test_retrieve_tie_prefers_lower_index():
    emb = EmbeddingMatrix(np.eye(4))
    bank = AnchorBank(emb, 2, map_weights=np.zeros((2, 4)))
    bank.map_weights.data[0] = [1, 0, 0, 0]
    bank.map_weights.data[1] = [1, 0, 0, 0]  # identical anchor -> tied score
    ts = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
    selection = retrieve_topk(ts, bank, k=2)
    assert selection.indices == (0, 1)


def test_retrieve_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        v = int(rng.integers(6, 30))
        d = int(rng.integers(2, 8))
        n_anchors = int(rng.integers(1, v // 2 + 1))
        emb = EmbeddingMatrix(rng.normal(size=(v, d)))
        bank = AnchorBank(emb, n_anchors,
                          map_weights=rng.normal(size=(n_anchors, v)))
        ts = rng.normal(size=(int(rng.integers(1, 6)), d))
        k = int(rng.integers(1, n_anchors + 1))
        selection = retrieve_topk(ts, bank, k)
        idx, scores = brute_force_topk(ts, bank.anchors(), k)
        assert list(selection.indices) == idx
        assert np.allclose(selection.scores, scores, atol=1e-12)


def test_retrieve_scale_invariant():
    bank = make_bank(seed=6)
    rng = np.random.default_rng(7)
    ts = rng.normal(size=(4, 4))
    base = retrieve_topk(ts, bank, k=3)
    for c in (1e-6, 0.5, 3.0, 1e6):
        scaled = retrieve_topk(c * ts, bank, k=3)
        assert scaled.indices == base.indices
        assert np.allclose(scaled.scores, base.scores, atol=1e-9)


def test_retrieve_k_out_of_range():
    bank = make_bank()
    ts = np.ones((2, 4))
    with pytest.raises(PromptError):
        retrieve_topk(ts, bank, 0)
    with pytest.raises(PromptError):
        retrieve_topk(ts, bank, bank.n_anchors + 1)


def test_selection_invariants_enforced():
    with pytest.raises(PromptError):
        PromptSelection((0, 0), (1.0, 1.0))
    with pytest.raises(PromptError):
        PromptSelection((0, 1), (0.5, 0.9))


# ---------------------------------------------------------------------------
# prefix concatenation
# ---------------------------------------------------------------------------

def test_prefix_layout():
    anchors = Tensor(np.arange(8.0).reshape(2, 4))
    ts = Tensor(np.arange(100.0, 112.0).reshape(3, 4))
    out = prefix_concat(anchors, ts)
    assert out.shape == (5, 4)
    assert np.array_equal(out.data[:2], anchors.data)
    assert np.array_equal(out.data[2:], ts.data)


def test_prefix_disabled_is_identity():
    ts = Tensor(np.ones((3, 4)))
    out = prefix_concat(Tensor(np.zeros((0, 4))), ts)
    assert out is ts


def test_prefix_rows_verbatim_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k, n, d = (int(rng.integers(1, 5)), int(rng.integers(1, 6)),
                   int(rng.integers(1, 6)))
        anchors = rng.normal(size=(k, d))
        ts = rng.normal(size=(n, d))
        out = prefix_concat(Tensor(anchors), Tensor(ts))
        assert np.array_equal(out.data, np.vstack([anchors, ts]))


def test_prefix_dim_mismatch():
    with pytest.raises(ad.ShapeError):
        prefix_concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


# ---------------------------------------------------------------------------
# alignment term
# ---------------------------------------------------------------------------

def test_alignment_parallel_is_k():
    emb = EmbeddingMatrix(np.eye(4))
    bank = AnchorBank(emb, 2, map_weights=np.zeros((2, 4)))
    bank.map_weights.data[0] = [2.0, 0, 0, 0]
    bank.map_weights.data[1] = [5.0, 0, 0, 0]
    ts = Tensor(np.tile([3.0, 0.0, 0.0, 0.0], (4, 1)))
    selection = retrieve_topk(ts.data, bank, k=2)
    value = alignment_term(ts, selection, bank).item()
    assert value == pytest.approx(2.0, abs=1e-12)


def test_alignment_orthogonal_is_zero():
    emb = EmbeddingMatrix(np.eye(4))
    bank = AnchorBank(emb, 2, map_weights=np.zeros((2, 4)))
    bank.map_weights.data[0] = [0, 1.0, 0, 0]
    bank.map_weights.data[1] = [0, 0, 1.0, 0]
    ts = Tensor(np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))
    selection = PromptSelection((0, 1), (0.0, 0.0))
    assert alignment_term(ts, selection, bank).item() == pytest.approx(0.0, abs=1e-12)


def test_alignment_matches_recomputed_cosines():
    rng = np.random.default_rng(9)
    for _ in range(20):
        bank = make_bank(seed=int(rng.integers(1e6)))
        ts = rng.normal(size=(5, 4))
        selection = retrieve_topk(ts, bank, k=3)
        value = alignment_term(Tensor(ts), selection, bank).item()
        scores = score_all(ts, bank.anchors())
        expected = sum(scores[i] for i in selection.indices)
        assert abs(value - expected) <= 1e-12
        assert -3.0 <= value <= 3.0


def test_alignment_empty_selection():
    bank = make_bank()
    value = alignment_term(Tensor(np.ones((2, 4))), PromptSelection((), ()), bank)
    assert value.item() == 0.0


def test_alignment_gradients_flow():
    bank = make_bank(seed=10)
    rng = np.random.default_rng(11)
    ts = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    selection = retrieve_topk(ts.data, bank, k=2)

    def f():
        return alignment_term(ts, selection, bank)

    err = ad.grad_check(f, [ts, bank.map_weights], eps=1e-6)
    assert err <= 1e-5


def test_alignment_per_patch_pooling():
    bank = make_bank(seed=12)
    rng = np.random.default_rng(13)
    ts = rng.normal(size=(5, 4))
    selection = retrieve_topk(ts, bank, k=2, pooling="per_patch")
    value = alignment_term(Tensor(ts), selection, bank,
                           pooling="per_patch").item()
    anchors = bank.anchors()
    expected = 0.0
    for i in selection.indices:
        cosines = [row @ anchors[i] / (np.linalg.norm(row) *
                                       np.linalg.norm(anchors[i]))
                   for row in ts]
        expected += float(np.mean(cosines))
    assert abs(value - expected) <= 1e-12


# ---------------------------------------------------------------------------
# synthetic vocabulary
# ---------------------------------------------------------------------------

def test_clustered_vocabulary_deterministic():
    a = clustered_vocabulary(50, 8, seed=4)
    b = clustered_vocabulary(50, 8, seed=4)
    assert np.array_equal(a.values, b.values)
    assert a.vocab_size == 50
    assert a.dim == 8


def test_embedding_rejects_nonfinite():
    with pytest.raises(PromptError):
        EmbeddingMatrix(np.array([[1.0, np.inf]]))
