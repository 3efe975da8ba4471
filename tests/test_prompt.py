import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import s2ip.autodiff as ad
import s2ip.prompt as pr
from s2ip.autodiff import Tensor
from s2ip.backbone import BackboneConfig
from s2ip.model import DecompositionConfig, ForecastModel, ModelConfig, ModelError
from s2ip.preprocess import PatchSpec
from s2ip.prompt import (AnchorBank, EmbeddingMatrix, PromptError,
                         PromptSelection, alignment_term, clustered_vocabulary,
                         derive_anchors, retrieve_topk, score, score_all)
from s2ip.series import WindowSpec


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
    return AnchorBank(emb, n_anchors,
                      rng.normal(0.0, 0.02, size=(n_anchors, v)))


def bank_scores(ts, bank, pooling="mean"):
    """The ``(B, A)`` scores of a ``(B, N_P, D)`` tensor against the bank's
    anchors, recorded on the active tape if there is one."""
    return score(ts, bank.anchors_tensor(), pooling)


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
        AnchorBank(emb, 6, np.zeros((6, 10)))  # > V/2


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
    before = pr.degenerate_score_events()
    ts = np.zeros((3, 2))
    assert score_all(ts, np.array([[1.0, 0.0]]))[0] == 0.0
    assert pr.degenerate_score_events() - before == 1
    # a batch counts each flat window once, and each zero anchor once per
    # window it is scored against
    batch = np.stack([np.zeros((3, 2)), np.ones((3, 2))])
    scores = score_all(batch, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(scores, [[0.0, 0.0], [np.sqrt(0.5), 0.0]], atol=1e-15)
    assert pr.degenerate_score_events() - before == 3


def test_concurrent_scores_count_every_degenerate_event():
    """More threads than cores, switching as often as the interpreter
    allows, lose no event."""
    threads, calls = 8, 200
    ts, anchors = np.zeros((3, 2)), np.array([[1.0, 0.0]])

    def work():
        for _ in range(calls):
            score_all(ts, anchors)

    before = pr.degenerate_score_events()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert pr.degenerate_score_events() - before == threads * calls


@pytest.mark.parametrize("pooling, flat_windows", [("mean", 1),
                                                    ("per_patch", 2)])
def test_score_degenerate_rows_count_once_per_window(pooling, flat_windows):
    # window 1 has one zero patch row, window 2 is all zeros: the pooled row
    # of window 1 is not zero, but one of its patch rows is
    batch = np.random.default_rng(16).normal(size=(3, 4, 2))
    batch[1, 2] = 0.0
    batch[2] = 0.0
    before = pr.degenerate_score_events()
    score_all(batch, np.array([[1.0, 0.0], [0.0, 1.0]]), pooling=pooling)
    assert pr.degenerate_score_events() - before == flat_windows
    # a zero anchor counts once per window with no degenerate row
    before = pr.degenerate_score_events()
    scores = score_all(batch, np.array([[1.0, 0.0], [0.0, 0.0]]),
                       pooling=pooling)
    assert pr.degenerate_score_events() - before == 3
    assert np.all(scores[:, 1] == 0.0) and np.all(scores[2] == 0.0)


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


def test_retrieve_refuses_scores_that_do_not_fit_the_windows():
    bank = make_bank()
    rng = np.random.default_rng(8)
    batch = rng.normal(size=(3, 5, 4))
    scores = score_all(batch, bank.anchors())
    assert retrieve_topk(batch, bank, 2, scores=scores) == retrieve_topk(
        batch, bank, 2)
    one = score_all(batch[0], bank.anchors())
    assert retrieve_topk(batch[0], bank, 2, scores=one) == retrieve_topk(
        batch[0], bank, 2)
    a = bank.n_anchors
    for windows, wrong in ((batch, scores[:2]),             # another batch
                           (batch, scores[:, :a - 1]),      # other anchors
                           (batch[0], one[:a - 1]),
                           (batch[0], scores)):             # a batch's scores
        with pytest.raises(PromptError) as info:
            retrieve_topk(windows, bank, 2, scores=wrong)
        expected = windows.shape[:-2] + (a,)
        assert f"shape {wrong.shape}" in str(info.value)
        assert f"expected {expected}" in str(info.value)


def test_selection_invariants_enforced():
    with pytest.raises(PromptError):
        PromptSelection((0, 0), (1.0, 1.0))
    with pytest.raises(PromptError):
        PromptSelection((0, 1), (0.5, 0.9))
    with pytest.raises(PromptError, match="negative"):
        PromptSelection((-1,), (0.5,))
    with pytest.raises(PromptError, match="negative"):
        PromptSelection((2, -3), (0.9, 0.5))


@pytest.mark.parametrize("indices", [(-1,), (0, -6), (6,)])
def test_alignment_rejects_indices_outside_the_bank(indices):
    # a negative index would silently score one of the last anchors; the
    # selection bypasses PromptSelection's own check
    bank = make_bank()
    ts = Tensor(np.random.default_rng(3).normal(size=(1, 5, 4)))
    selection = SimpleNamespace(indices=indices)
    with pytest.raises(PromptError, match="outside the anchor bank"):
        alignment_term(bank_scores(ts, bank), [selection])


# ---------------------------------------------------------------------------
# prefix concatenation, in ForecastModel.prompt
# ---------------------------------------------------------------------------

def prompt_model(k, vocab_dim=8):
    config = ModelConfig(window=WindowSpec(32, 8), patch=PatchSpec(8, 4),
                         decomposition=DecompositionConfig(enabled=False),
                         backbone=BackboneConfig(embed_dim=8, n_layers=1,
                                                 n_heads=2, max_seq_len=16),
                         prompt_k=k, n_anchors=8)
    return ForecastModel(config, clustered_vocabulary(20, vocab_dim, seed=k))


def assert_prefix_layout(model, ts):
    """Each window's sequence is its anchor rows in score order, then its
    patch rows verbatim; the scores are every anchor's, as ``score_all``
    gives them."""
    k = model.config.prompt_k
    sequence, selections, scores = model.prompt(Tensor(ts))
    anchors = model.bank.anchors()
    assert sequence.shape == (len(ts), k + ts.shape[1], ts.shape[2])
    assert np.array_equal(scores.data, score_all(ts, anchors))
    for row, selection, window in zip(sequence.data, selections, ts):
        idx, _ = brute_force_topk(window, anchors, k)
        assert list(selection.indices) == idx
        assert np.array_equal(row[:k], anchors[idx])
        assert np.array_equal(row[k:], window)


def test_prefix_layout():
    model = prompt_model(k=2)
    assert_prefix_layout(model, np.arange(32.0).reshape(1, 4, 8))


def test_prefix_disabled_is_identity():
    ts = Tensor(np.ones((3, 4, 8)))
    sequence, selections, scores = prompt_model(k=0).prompt(ts)
    assert sequence is ts and scores is None
    assert [s.k for s in selections] == [0, 0, 0]


def test_prefix_rows_verbatim_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        k, b, n = (int(rng.integers(1, 9)), int(rng.integers(1, 4)),
                   int(rng.integers(1, 6)))
        assert_prefix_layout(prompt_model(k), rng.normal(size=(b, n, 8)))


def test_prefix_dim_mismatch():
    # anchors share the embedding's width, so the model refuses an
    # embedding whose width differs from the backbone's
    with pytest.raises(ModelError, match="embedding width 4 != backbone width 8"):
        prompt_model(k=2, vocab_dim=4)


# ---------------------------------------------------------------------------
# alignment term
# ---------------------------------------------------------------------------

def test_alignment_parallel_is_k():
    emb = EmbeddingMatrix(np.eye(4))
    bank = AnchorBank(emb, 2, map_weights=np.zeros((2, 4)))
    bank.map_weights.data[0] = [2.0, 0, 0, 0]
    bank.map_weights.data[1] = [5.0, 0, 0, 0]
    ts = Tensor(np.tile([3.0, 0.0, 0.0, 0.0], (1, 4, 1)))
    selections = retrieve_topk(ts.data, bank, k=2)
    value = alignment_term(bank_scores(ts, bank), selections).item()
    assert value == pytest.approx(2.0, abs=1e-12)


def test_alignment_orthogonal_is_zero():
    emb = EmbeddingMatrix(np.eye(4))
    bank = AnchorBank(emb, 2, map_weights=np.zeros((2, 4)))
    bank.map_weights.data[0] = [0, 1.0, 0, 0]
    bank.map_weights.data[1] = [0, 0, 1.0, 0]
    ts = Tensor(np.tile([1.0, 0.0, 0.0, 0.0], (1, 3, 1)))
    selection = PromptSelection((0, 1), (0.0, 0.0))
    value = alignment_term(bank_scores(ts, bank), [selection]).item()
    assert value == pytest.approx(0.0, abs=1e-12)


def test_alignment_matches_recomputed_cosines():
    rng = np.random.default_rng(9)
    for _ in range(20):
        bank = make_bank(seed=int(rng.integers(1e6)))
        ts = rng.normal(size=(5, 4))
        selection = retrieve_topk(ts, bank, k=3)
        value = alignment_term(bank_scores(Tensor(ts[None]), bank),
                               [selection]).item()
        scores = score_all(ts, bank.anchors())
        expected = sum(scores[i] for i in selection.indices)
        assert abs(value - expected) <= 1e-12
        assert -3.0 <= value <= 3.0


def test_alignment_empty_selection():
    bank = make_bank()
    value = alignment_term(bank_scores(Tensor(np.ones((1, 2, 4))), bank),
                           [PromptSelection((), ())])
    assert value.shape == (1,) and value.item() == 0.0


def test_alignment_gradients_flow():
    bank = make_bank(seed=10)
    rng = np.random.default_rng(11)
    ts = Tensor(rng.normal(size=(1, 4, 4)), requires_grad=True)
    selections = retrieve_topk(ts.data, bank, k=2)

    def f():
        return ad.tsum(alignment_term(bank_scores(ts, bank), selections))

    err = ad.grad_check(f, [ts, bank.map_weights], eps=1e-6)
    assert err <= 1e-5


def test_alignment_per_patch_pooling():
    bank = make_bank(seed=12)
    rng = np.random.default_rng(13)
    ts = rng.normal(size=(5, 4))
    selection = retrieve_topk(ts, bank, k=2, pooling="per_patch")
    value = alignment_term(bank_scores(Tensor(ts[None]), bank, "per_patch"),
                           [selection]).item()
    anchors = bank.anchors()
    expected = 0.0
    for i in selection.indices:
        cosines = [row @ anchors[i] / (np.linalg.norm(row) *
                                       np.linalg.norm(anchors[i]))
                   for row in ts]
        expected += float(np.mean(cosines))
    assert abs(value - expected) <= 1e-12


@pytest.mark.parametrize("pooling", ["mean", "per_patch"])
def test_alignment_degenerate_rows_score_zero(pooling):
    # window 0 is all zeros, window 1 has one zero patch row, and anchor 0
    # is zero: each such cosine is 0, as in score_all, and every gradient
    # stays finite
    bank = make_bank(seed=14)
    bank.map_weights.data[0] = 0.0
    rng = np.random.default_rng(15)
    data = rng.normal(size=(3, 5, 4))
    data[0] = 0.0
    data[1, 2] = 0.0
    ts = Tensor(data, requires_grad=True)
    selections = [PromptSelection((0, 1, 2), (0.0, 0.0, 0.0))] * 3
    anchors = bank.anchors()
    scores = score_all(data, anchors, pooling=pooling)
    expected = scores[:, :3].sum(axis=1)
    with ad.Tape():
        terms = alignment_term(bank_scores(ts, bank, pooling), selections)
        loss = ad.tsum(terms)
    assert np.all(np.abs(terms.data - expected) <= 1e-12)
    assert terms.data[0] == 0.0
    ad.backward(loss)
    assert np.all(np.isfinite(ts.grad))
    assert np.all(np.isfinite(bank.map_weights.grad))
    assert np.all(ts.grad[0] == 0.0)


def oracle_norms(rows):
    squares = ad.tsum(ad.mul(rows, rows), axis=-1, keepdims=True)
    flat = np.sqrt(squares.data) < pr.DEGENERATE_NORM
    if not flat.any():
        return ad.sqrt(squares), None
    return ad.sqrt(ad.add(squares, flat.astype(np.float64))), flat


def oracle_zero_degenerate(cosines, *flats):
    keep = np.ones(cosines.shape, dtype=bool)
    for flat in flats:
        if flat is not None:
            keep &= ~flat
    return ad.mul(cosines, keep.astype(np.float64))


def oracle_alignment_term(ts_embed, selections, anchors, pooling):
    """The alignment term as it was computed on the tape before it shared
    ``score_all``'s kernel: the selected anchors gathered, their cosines
    written element-wise, degenerate cosines zeroed by a mask."""
    indices = np.array([s.indices for s in selections], dtype=np.int64)
    selected = ad.gather_rows(anchors, indices)                   # (B, K, D)
    anchor_norms, anchor_flat = oracle_norms(selected)            # (B, K, 1)
    if pooling == "mean":
        pooled = ad.tmean(ts_embed, axis=1, keepdims=True)        # (B, 1, D)
        num = ad.tsum(ad.mul(selected, pooled), axis=2, keepdims=True)
        pooled_norms, pooled_flat = oracle_norms(pooled)
        cosines = ad.div(num, ad.mul(anchor_norms, pooled_norms))
        cosines = oracle_zero_degenerate(cosines, anchor_flat, pooled_flat)
        return ad.tsum(cosines, axis=(1, 2))
    num = ad.matmul(ts_embed, ad.transpose(selected, (0, 2, 1)))  # (B, N_P, K)
    row_norms, row_flat = oracle_norms(ts_embed)                  # (B, N_P, 1)
    cosines = ad.div(ad.div(num, row_norms),
                     ad.transpose(anchor_norms, (0, 2, 1)))       # (B, 1, K)
    cosines = oracle_zero_degenerate(
        cosines, row_flat,
        None if anchor_flat is None else anchor_flat.transpose(0, 2, 1))
    return ad.tsum(ad.tmean(cosines, axis=1), axis=1)


@pytest.mark.parametrize("pooling", ["mean", "per_patch"])
def test_alignment_matches_the_elementwise_tape_oracle(pooling):
    # differential test of the shared score tensor against the tape path it
    # replaced, with a zero anchor (0), a zero window (0) and a zero patch
    # row (window 1): values and gradients agree to 1e-12, and the scores
    # on a tape are bit for bit those score_all gives
    bank = make_bank(v=40, d=8, n_anchors=10, seed=17)
    bank.map_weights.data[0] = 0.0
    data = np.random.default_rng(18).normal(size=(5, 6, 8))
    data[0] = 0.0
    data[1, 3] = 0.0
    selections = retrieve_topk(data, bank, k=4, pooling=pooling)
    selections[1] = PromptSelection((0,) + selections[1].indices[:3],
                                    (0.0,) * 4)
    results = []
    for alignment in (alignment_term, oracle_alignment_term):
        ts = Tensor(data, requires_grad=True)
        bank.map_weights.grad = None
        with ad.Tape():
            anchors = bank.anchors_tensor()
            if alignment is alignment_term:
                scores = score(ts, anchors, pooling)
                terms = alignment(scores, selections)
            else:
                terms = alignment(ts, selections, anchors, pooling)
            loss = ad.tsum(terms)
        ad.backward(loss)
        results.append((terms.data, ts.grad, bank.map_weights.grad))
    assert np.array_equal(scores.data,
                          score_all(data, bank.anchors(), pooling=pooling))
    (new, new_ts, new_map), (old, old_ts, old_map) = results
    assert np.max(np.abs(new - old)) <= 1e-12
    for grad, oracle in ((new_ts, old_ts), (new_map, old_map)):
        assert np.all(np.isfinite(grad))
        assert np.max(np.abs(grad - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert np.all(new_ts[0] == 0.0)


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


def norm_score_all(ts_embed, anchors, pooling):
    """``score_all`` written with np.linalg.norm, without degenerate rows."""
    anchor_norms = np.linalg.norm(anchors, axis=1)
    if pooling == "mean":
        pooled = ts_embed.mean(axis=-2)
        p_norm = np.linalg.norm(pooled, axis=-1, keepdims=True)
        return pooled @ anchors.T / (anchor_norms * p_norm)
    row_norms = np.linalg.norm(ts_embed, axis=-1, keepdims=True)
    return ((ts_embed / row_norms) @ (anchors / anchor_norms[:, None]).T
            ).mean(axis=-2)


@pytest.mark.parametrize("pooling", ["mean", "per_patch"])
@pytest.mark.parametrize("shape", [(15, 64), (1, 15, 64), (32, 15, 64)])
def test_score_all_bit_identical_to_linalg_norm(shape, pooling):
    rng = np.random.default_rng(len(shape) + shape[0])
    ts_embed = rng.normal(size=shape)
    anchors = rng.normal(size=(32, 64))
    assert np.array_equal(score_all(ts_embed, anchors, pooling=pooling),
                          norm_score_all(ts_embed, anchors, pooling))
