import numpy as np
import pytest

from bastext.baselines import (ItemKnnModel, PopModel, Prod2vecConfig, Prod2vecModel,
                               sgns_batch_grads)
from bastext.kernels import EvalError, scatter_rows
from bastext.synthetic import make_planted_corpus, make_random_corpus

from conftest import evaluated_order, make_baskets


# ---------------------------------------------------------------------------
# POP
# ---------------------------------------------------------------------------

def test_pop_count_ranking():
    baskets = make_baskets([0, 1], [0, 1], [0, 2])
    pop = PopModel.fit(baskets, 4)
    assert list(pop.counts) == [3, 2, 1, 0]
    assert evaluated_order(pop) == [0, 1, 2, 3]


def test_pop_tie_break_ascending_id():
    baskets = make_baskets([2, 3], [0, 1])
    pop = PopModel.fit(baskets, 5)
    # all of 0..3 counted once, 4 unseen; ties resolve by id
    assert evaluated_order(pop) == [0, 1, 2, 3, 4]


def test_pop_context_blind():
    _, baskets = make_random_corpus(20, 100, seed=0)
    pop = PopModel.fit(baskets, 20)
    a = pop.score_all(np.array([1, 2]))
    b = pop.score_all(np.array([17]))
    assert np.array_equal(a, b)


def test_pop_matches_bincount_oracle():
    _, baskets = make_random_corpus(40, 400, seed=1)
    pop = PopModel.fit(baskets, 40)
    manual = np.zeros(40, dtype=np.int64)
    for b in baskets:
        for p in b:
            manual[p] += 1
    assert np.array_equal(pop.counts, manual)
    assert evaluated_order(pop)[0] == np.flatnonzero(manual == manual.max())[0]


# ---------------------------------------------------------------------------
# ItemKNN
# ---------------------------------------------------------------------------

def _dense_knn_oracle(baskets, num_products, context_ids):
    x = np.zeros((len(baskets), num_products))
    for r, b in enumerate(baskets):
        x[r, b] = 1.0
    c = x.T @ x
    norms = np.linalg.norm(c, axis=1)
    normalized = np.divide(c, norms[:, None], out=np.zeros_like(c), where=norms[:, None] > 0)
    return normalized @ normalized[context_ids].mean(axis=0)


def test_itemknn_hand_example():
    # baskets {a,b},{a,b},{a,c}: cooc(a,b)=2, cooc(a,c)=1 -> for context {b},
    # a must outrank c
    baskets = make_baskets([0, 1], [0, 1], [0, 2])
    knn = ItemKnnModel.fit(baskets, 3)
    scores = knn.score_all(np.array([1]))
    assert scores[0] > scores[2]


def test_itemknn_no_cooccurrence_scores_zero():
    baskets = make_baskets([0, 1])
    knn = ItemKnnModel.fit(baskets, 4)
    scores = knn.score_all(np.array([0]))
    assert scores[3] == 0.0


def test_itemknn_matches_dense_oracle():
    rng = np.random.default_rng(5)
    _, baskets = make_random_corpus(50, 200, seed=5)
    knn = ItemKnnModel.fit(baskets, 50)
    for _ in range(20):
        ctx = np.sort(rng.choice(50, size=rng.integers(1, 4), replace=False))
        got = knn.score_all(ctx)
        want = _dense_knn_oracle(baskets, 50, ctx)
        assert np.allclose(got, want, atol=1e-10)


def test_itemknn_last_item_mode():
    baskets = make_baskets([0, 1], [1, 2], [0, 3])
    full = ItemKnnModel.fit(baskets, 4)
    last = ItemKnnModel.fit(baskets, 4, last_item_only=True)
    ctx = np.array([0, 2])
    assert np.allclose(last.score_all(ctx), full.score_all(np.array([2])), atol=1e-12)


def test_itemknn_symmetry():
    _, baskets = make_random_corpus(30, 100, seed=6)
    knn = ItemKnnModel.fit(baskets, 30)
    c = knn.cooccurrence.toarray()
    assert np.array_equal(c, c.T)


# ---------------------------------------------------------------------------
# prod2vec
# ---------------------------------------------------------------------------

def _sgns_loss(in_vecs, out_vecs, centers, contexts, negs):
    """Skip-gram negative-sampling loss summed over the batch, one example at a time."""
    total = 0.0
    for c, pos, ns in zip(centers, contexts, negs):
        v = in_vecs[c]
        total += np.logaddexp(0.0, -(v @ out_vecs[pos]))
        total += sum(np.logaddexp(0.0, v @ out_vecs[n]) for n in ns)
    return total


def test_sgns_batch_grads_finite_differences():
    rng = np.random.default_rng(7)
    in_vecs = rng.normal(size=(5, 3))
    out_vecs = rng.normal(size=(5, 3))
    # center 0 twice; negative 3 twice in one row and again in another; row 0
    # draws its own context (1) as a negative
    centers = np.array([0, 0, 2])
    contexts = np.array([1, 4, 0])
    negs = np.array([[1, 2], [3, 3], [3, 0]])
    in_rows, d_in, out_rows, d_out = sgns_batch_grads(in_vecs, out_vecs, centers, contexts, negs)
    grads = (scatter_rows(in_rows, d_in, 5), scatter_rows(out_rows, d_out, 5))
    eps = 1e-6
    for tab, grad in zip((in_vecs, out_vecs), grads):
        for idx in range(tab.size):
            orig = tab.ravel()[idx]
            tab.ravel()[idx] = orig + eps
            lp = _sgns_loss(in_vecs, out_vecs, centers, contexts, negs)
            tab.ravel()[idx] = orig - eps
            lm = _sgns_loss(in_vecs, out_vecs, centers, contexts, negs)
            tab.ravel()[idx] = orig
            num = (lp - lm) / (2 * eps)
            assert abs(num - grad.ravel()[idx]) <= 1e-4 * max(1.0, abs(num))


def test_prod2vec_deterministic():
    _, baskets = make_random_corpus(15, 80, seed=8)
    cfg = Prod2vecConfig(k=8, epochs=2, seed=4)
    a = Prod2vecModel.fit(baskets, 15, cfg)
    b = Prod2vecModel.fit(baskets, 15, cfg)
    assert np.array_equal(a.in_vecs, b.in_vecs)
    assert np.array_equal(a.out_vecs, b.out_vecs)


@pytest.mark.parametrize("field", ["k", "negatives", "epochs"])
def test_prod2vec_config_below_one_fatal(field):
    for value in (0, -1):
        with pytest.raises(EvalError, match=f"prod2vec {field} must be >= 1, got {value}"):
            Prod2vecConfig(**{field: value})


def test_prod2vec_self_cosine_one():
    _, baskets = make_random_corpus(10, 50, seed=9)
    model = Prod2vecModel.fit(baskets, 10, Prod2vecConfig(k=4, epochs=1))
    scores = model.score_all(np.array([3]))
    assert scores[3] == pytest.approx(1.0, abs=1e-12)


def test_prod2vec_separates_planted_communities():
    cat, baskets, community, _ = make_planted_corpus(
        num_products=40, group_sizes=(10, 10), num_baskets=1500, seed=2)
    model = Prod2vecModel.fit(baskets, len(cat), Prod2vecConfig(k=16, epochs=10, seed=0))
    v = model.in_vecs / np.linalg.norm(model.in_vecs, axis=1, keepdims=True)
    sim = v @ v.T
    same = community[:, None] == community[None, :]
    np.fill_diagonal(sim, np.nan)
    within = np.nanmean(sim[same])
    across = np.nanmean(sim[~same])
    assert within > across
