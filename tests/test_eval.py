import numpy as np
import pytest

from bastext import evaluation
from bastext.baselines import ItemKnnModel, PopModel, Prod2vecConfig, Prod2vecModel
from bastext.corpus import DatasetSplit, split_warm
from bastext.evaluation import (ContextScorer, EvalError, ExternalScorer, TestCase, TestCases,
                                compute_ranks, evaluate, form_test_cases, mrr_at_n, order_pool,
                                rank_candidates, recall_at_n)
from bastext.kernels import rank_block
from bastext.model import BastextScorer, ProductVectors
from bastext.synthetic import make_random_corpus


from conftest import make_baskets


def _cases(cases):
    """`TestCases` holding the given `TestCase`s in order."""
    indptr, ctx_flat, _ = _csr(cases)
    held = np.array([c.held_out_id for c in cases], dtype=np.int64)
    return TestCases(held, indptr, ctx_flat)


class FixedScorer(ContextScorer):
    """Every case scores the same fixed vector, regardless of context."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.num_products = len(self.scores)

    def score_cases(self, indptr, ctx_flat, case_ids):
        return np.broadcast_to(self.scores, (len(case_ids), self.num_products))


class PerfectScorer(ContextScorer):
    """Scores 1 for the held-out id of the case with this context, 0 otherwise."""

    def __init__(self, cases, num_products):
        self.cases = {tuple(c.context_ids.tolist()): c.held_out_id for c in cases}
        self.num_products = num_products

    def score_cases(self, indptr, ctx_flat, case_ids):
        out = np.zeros((len(case_ids), self.num_products))
        for row, ctx in zip(out, np.split(ctx_flat, indptr[1:-1])):
            row[self.cases[tuple(ctx.tolist())]] = 1.0
        return out


class TableScorer:
    """Case i scores row i of a fixed table, looked up by case index like an external file."""

    def __init__(self, table):
        self.table = table
        self.num_products = table.shape[1]

    def score_cases(self, indptr, ctx_flat, case_ids):
        return self.table[case_ids]


def _oracle_ranks(rows, cases, pool_ids=None):
    """The rule of the benchmark's check: a stable argsort of each case's negated scores,
    read over the pool minus the case's context; inf when the held-out product is not there."""
    ranks = []
    for scores, case in zip(rows, cases):
        order = np.argsort(-scores, kind="stable")
        in_pool = np.ones(len(scores), dtype=bool)
        if pool_ids is not None:
            in_pool[:] = False
            in_pool[list(pool_ids)] = True
        in_pool[case.context_ids] = False
        pos = np.flatnonzero(order[in_pool[order]] == case.held_out_id)
        ranks.append(pos[0] + 1 if len(pos) else np.inf)
    return np.array(ranks)


def _rank(scores, pool, held):
    """`rank_block` of one case with an empty context."""
    return rank_block(np.asarray(scores)[None], np.array([held]), np.array([0, 0]),
                      np.zeros(0, dtype=np.int64), pool)[0]


# ---------------------------------------------------------------------------
# Test-case formation
# ---------------------------------------------------------------------------

def test_form_cases_warm_leave_one_out():
    split = DatasetSplit(make_baskets(), make_baskets(), make_baskets([0, 1, 2]), "warm", 0)
    cases = form_test_cases(split)
    assert len(cases) == 3
    assert sorted(c.held_out_id for c in cases) == [0, 1, 2]
    for c in cases:
        assert c.held_out_id not in c.context_ids
        assert len(c.context_ids) == 2


def test_form_cases_cold_restriction():
    split = DatasetSplit(make_baskets(), make_baskets(), make_baskets([0, 1, 2]), "cold", 0,
                         {2})
    cases = form_test_cases(split)
    assert len(cases) == 1
    assert cases[0].held_out_id == 2
    assert sorted(cases[0].context_ids.tolist()) == [0, 1]


def test_form_cases_zero_fatal():
    split = DatasetSplit(make_baskets(), make_baskets(), make_baskets([0, 1]), "cold", 0, {5})
    with pytest.raises(EvalError):
        form_test_cases(split)


def test_test_cases_views_match_the_csr_rows():
    """`len`, int (and negative) indexing, step-1 slices and iteration read the CSR rows."""
    _, baskets = make_random_corpus(25, 200, seed=3)
    cases = form_test_cases(split_warm(baskets, seed=1))
    rows = [(cases.ctx_flat[a:b].tolist(), int(h))
            for a, b, h in zip(cases.indptr[:-1], cases.indptr[1:], cases.held)]
    assert len(cases) == len(rows) and [(c.context_ids.tolist(), c.held_out_id)
                                        for c in cases] == rows
    assert (cases[-1].context_ids.tolist(), cases[-1].held_out_id) == rows[-1]
    assert [(c.context_ids.tolist(), c.held_out_id) for c in cases[3:9]] == rows[3:9]
    assert len(cases[9:3]) == 0 and len(cases[len(cases):]) == 0
    with pytest.raises(IndexError):
        cases[len(cases)]
    with pytest.raises(IndexError):
        cases[::2]


def test_case_count_equals_sum_of_basket_sizes():
    _, baskets = make_random_corpus(30, 300, seed=0)
    sp = split_warm(baskets, seed=0)
    cases = form_test_cases(sp)
    assert len(cases) == sum(len(b) for b in sp.test)


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

def test_rank_candidates_descending():
    case = TestCase(np.array([9]), 0)
    scorer = FixedScorer([0.5, 0.9, 0.1] + [0.0] * 7)
    order = rank_candidates(case, scorer, np.array([0, 1, 2]))
    assert list(order) == [1, 0, 2]


def test_rank_candidates_tie_lower_id_first():
    case = TestCase(np.array([9]), 0)
    scorer = FixedScorer([0.4, 0.4, 0.9] + [0.0] * 7)
    order = rank_candidates(case, scorer, np.array([0, 1, 2]))
    assert list(order) == [2, 0, 1]


def test_rank_candidates_rejects_context_in_pool():
    case = TestCase(np.array([1]), 0)
    with pytest.raises(EvalError):
        rank_candidates(case, FixedScorer([1, 2, 3]), np.array([0, 1]))


def test_rank_candidates_matches_stable_sort_oracle():
    rng = np.random.default_rng(1)
    scores = rng.random(1000)
    scores[rng.choice(1000, 100, replace=False)] = 0.5  # force ties
    scorer = FixedScorer(scores)
    case = TestCase(np.array([999]), 0)
    pool = np.arange(999)
    order = rank_candidates(case, scorer, pool)
    oracle = sorted(pool.tolist(), key=lambda i: (-scores[i], i))
    assert list(order) == oracle


def test_compute_ranks_held_out_outside_pool_infinite():
    cases = _cases([TestCase(np.array([0]), 2)])
    ranks = compute_ranks(FixedScorer([1, 1, 1]), cases, pool="test-products",
                          test_product_ids={1})
    assert np.isinf(ranks[0])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metric_hand_values():
    assert recall_at_n([1, 1, 1], 10) == 1.0
    assert mrr_at_n([1, 1, 1], 10) == 1.0
    assert recall_at_n([2, 30], 20) == 0.5
    assert mrr_at_n([2, 30], 20) == 0.25
    assert recall_at_n([np.inf], 20) == 0.0
    assert mrr_at_n([np.inf], 20) == 0.0


def test_metric_empty_fatal():
    with pytest.raises(EvalError):
        recall_at_n([], 10)
    with pytest.raises(EvalError):
        mrr_at_n([], 10)


def test_metrics_match_loop_oracle_and_invariants():
    rng = np.random.default_rng(2)
    ranks = rng.integers(1, 200, size=10_000).astype(np.float64)
    ranks[rng.choice(10_000, 50, replace=False)] = np.inf
    prev_recall = 0.0
    for n in (1, 2, 5, 10, 20, 50, 100):
        r = recall_at_n(ranks, n)
        m = mrr_at_n(ranks, n)
        # brute-force per-case loop
        hits = sum(1 for x in ranks if x <= n)
        rr = sum(1.0 / x for x in ranks if x <= n)
        assert r == hits / len(ranks)
        assert m == pytest.approx(rr / len(ranks), abs=1e-15)
        assert m <= r
        assert r >= prev_recall  # monotone in N
        prev_recall = r
        assert 0.0 <= m <= r <= 1.0


# ---------------------------------------------------------------------------
# evaluate()
# ---------------------------------------------------------------------------

def test_evaluate_pop_toy_hand_computation():
    # train baskets: {0,1},{0,1},{0,2} -> counts [3,2,1]; test basket {0,1}
    train = make_baskets([0, 1], [0, 1], [0, 2])
    pop = PopModel.fit(train, 3)
    cases = form_test_cases(DatasetSplit(train, make_baskets(), make_baskets([0, 1]), "warm", 0))
    # case (ctx {1}, held 0): pool {0,2}; 0 has top count -> rank 1
    # case (ctx {0}, held 1): pool {1,2}; counts 2 > 1 -> rank 1
    report = evaluate(pop, cases, ns=(1, 2))
    assert report.metrics["recall@1"] == 1.0
    assert report.metrics["mrr@2"] == 1.0
    assert report.num_test_cases == 2


def test_evaluate_perfect_oracle():
    _, baskets = make_random_corpus(25, 200, seed=3)
    sp = split_warm(baskets, seed=1)
    cases = form_test_cases(sp)
    report = evaluate(PerfectScorer(cases, 25), cases, ns=(1, 20))
    assert report.metrics["recall@1"] == 1.0
    assert report.metrics["mrr@20"] == 1.0


def test_evaluate_deterministic_and_serializable():
    _, baskets = make_random_corpus(25, 150, seed=4)
    sp = split_warm(baskets, seed=2)
    cases = form_test_cases(sp)
    pop = PopModel.fit(sp.train, 25)
    a = evaluate(pop, cases, method="pop")
    b = evaluate(pop, cases, method="pop")
    assert a == b
    assert a.to_json() == b.to_json()
    assert "recall@20" in a.to_table()
    assert all(0.0 <= v <= 1.0 for v in a.metrics.values())


# ---------------------------------------------------------------------------
# External score files
# ---------------------------------------------------------------------------

def test_external_scorer_round_trip(tmp_path):
    cases = _cases([TestCase(np.array([2]), 0), TestCase(np.array([0]), 1)])
    f = tmp_path / "scores.tsv"
    f.write_text("0\t0:0.9,1:0.5\n1\t1:0.8,2:0.1\n")
    scorer = ExternalScorer.load(f, 3)
    report = evaluate(scorer, cases, ns=(1,), method="external")
    assert report.metrics["recall@1"] == 1.0
    assert report.method == "external"


def test_external_scorer_unlisted_products_rank_last(tmp_path):
    f = tmp_path / "scores.tsv"
    f.write_text("0\t1:0.1\n")
    scorer = ExternalScorer.load(f, 4)
    scores = scorer.score_cases(np.array([0, 0]), np.zeros(0, dtype=np.int64), np.array([0]))[0]
    assert scores[1] == 0.1
    assert np.all(np.isneginf(scores[[0, 2, 3]]))


def test_external_scorer_missing_case_fatal(tmp_path):
    f = tmp_path / "scores.tsv"
    f.write_text("0\t1:0.1\n")
    scorer = ExternalScorer.load(f, 4)
    cases = _cases([TestCase(np.array([0]), 1), TestCase(np.array([0]), 2)])
    with pytest.raises(EvalError, match="missing case 1"):
        evaluate(scorer, cases, method="external")


def test_external_scorer_malformed_fatal(tmp_path):
    f = tmp_path / "scores.tsv"
    f.write_text("0\t1:not-a-number\n")
    with pytest.raises(EvalError):
        ExternalScorer.load(f, 4)


def test_external_scorer_nan_score_fatal(tmp_path):
    """A NaN score compares false with everything, so it would rank first."""
    f = tmp_path / "scores.tsv"
    f.write_text("0\t1:nan,2:0.9\n")
    with pytest.raises(EvalError, match=r"scores.tsv:1: NaN score"):
        ExternalScorer.load(f, 4)


@pytest.mark.parametrize("bad_id", ["-1", "4"])
def test_external_scorer_out_of_range_id_fatal(tmp_path, bad_id):
    f = tmp_path / "scores.tsv"
    f.write_text(f"0\t1:0.5\n1\t{bad_id}:0.9\n")
    with pytest.raises(EvalError, match=r"scores.tsv:2: product id out of range"):
        ExternalScorer.load(f, 4)


def test_external_scorer_repeated_case_fatal(tmp_path):
    f = tmp_path / "scores.tsv"
    f.write_text("0\t1:0.5\n1\t2:0.9\n\n0\t3:0.7\n")
    with pytest.raises(EvalError, match=r"scores.tsv:4: case 0 listed twice"):
        ExternalScorer.load(f, 4)


# ---------------------------------------------------------------------------
# Ranking kernels
# ---------------------------------------------------------------------------

def test_rank_block_ties_and_pool():
    scores = np.array([0.5, 0.9, 0.5, 0.5, 0.1])
    pool = np.array([True, True, False, True, True])
    assert _rank(scores, pool, 1) == 1.0
    assert _rank(scores, pool, 0) == 2.0
    assert _rank(scores, pool, 3) == 3.0  # id 2 is tied but outside the pool
    assert _rank(scores, pool, 4) == 4.0
    assert _rank(scores, pool, 2) == np.inf


def test_order_pool_matches_rank_block():
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 4, size=40).astype(np.float64)
    pool_ids = np.sort(rng.choice(40, size=25, replace=False))
    mask = np.zeros(40, dtype=bool)
    mask[pool_ids] = True
    order = order_pool(scores, pool_ids)
    assert sorted(order) == list(pool_ids)
    for pos, pid in enumerate(order, 1):
        assert _rank(scores, mask, pid) == pos


def test_compute_ranks_context_exclusion_is_per_case():
    """One case's context leaves the pool for that case only."""
    cases = _cases([TestCase(np.array([1]), 0), TestCase(np.array([0]), 1)])
    ranks = compute_ranks(FixedScorer([0.2, 0.9, 0.5]), cases)
    assert list(ranks) == [2.0, 1.0]


# ---------------------------------------------------------------------------
# Block scoring and ranking
# ---------------------------------------------------------------------------

def _csr(cases):
    lens = [len(c.context_ids) for c in cases]
    return (np.concatenate([[0], np.cumsum(lens)]),
            np.concatenate([c.context_ids for c in cases]), np.arange(len(cases)))


def _random_cases(rng, n, m):
    cases = []
    for _ in range(n):
        ids = rng.choice(m, size=rng.integers(2, 6), replace=False)
        cases.append(TestCase(ids[1:], int(ids[0])))
    return _cases(cases)


# BLOCK_ENTRIES values that give blocks of 1 case, of 3 cases and one block over every case
BLOCK_SIZES = pytest.mark.parametrize("entries", [1, 3 * 30, 10 ** 6],
                                      ids=["block-1", "block-3", "one-block"])


@BLOCK_SIZES
@pytest.mark.parametrize("pool", ["all", "test-products"])
def test_compute_ranks_matches_stable_argsort_oracle(monkeypatch, entries, pool):
    monkeypatch.setattr(evaluation, "BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(5)
    table = rng.integers(0, 4, size=(40, 30)).astype(np.float64)  # four values: many ties
    table[rng.random(table.shape) < 0.2] = -np.inf  # as an external file's unlisted products
    cases = _random_cases(rng, 40, 30)
    pool_ids = set(range(0, 30, 2)) if pool == "test-products" else None
    ranks = compute_ranks(TableScorer(table), cases, pool, pool_ids)
    assert np.array_equal(ranks, _oracle_ranks(table, cases, pool_ids))
    if pool_ids is not None:  # held-out products both inside and outside the pool
        assert np.isinf(ranks).any() and np.isfinite(ranks).any()


def _scorers(train, m, cases):
    rng = np.random.default_rng(7)
    # small integer-valued vectors tie many logits exactly
    emb = rng.integers(0, 2, size=(m, 4)).astype(np.float32)
    ctx = rng.integers(0, 2, size=(m, 4)).astype(np.float32)
    table = rng.integers(0, 3, size=(len(cases), m)).astype(np.float64)
    external = ExternalScorer({i: (np.arange(0, m, 2), row[::2]) for i, row in enumerate(table)}, m)
    # non-integer vectors round every context sum, so a change of summation order shows
    emb_f, ctx_f = rng.normal(size=(2, m, 16)).astype(np.float32)
    return {
        "pop": PopModel.fit(train, m),
        "itemknn": ItemKnnModel.fit(train, m),
        "itemknn-last": ItemKnnModel.fit(train, m, last_item_only=True),
        "prod2vec": Prod2vecModel.fit(train, m, Prod2vecConfig(k=8, epochs=1)),
        "bastext": BastextScorer(ProductVectors(emb, ctx)),
        "bastext-float": BastextScorer(ProductVectors(emb_f, ctx_f)),
        "external": external,
    }


@pytest.mark.parametrize("method", ["pop", "itemknn", "itemknn-last", "prod2vec", "bastext",
                                    "external"])
@pytest.mark.parametrize("pool", ["all", "test-products"])
def test_compute_ranks_every_scorer_matches_oracle(monkeypatch, method, pool):
    monkeypatch.setattr(evaluation, "BLOCK_ENTRIES", 3 * 25)
    _, baskets = make_random_corpus(25, 300, seed=0)
    sp = split_warm(baskets, seed=0)
    cases = form_test_cases(sp)
    scorer = _scorers(sp.train, 25, cases)[method]
    if method == "external":
        rows = scorer.score_cases(*_csr(cases))
    else:
        rows = [scorer.score_all(c.context_ids) for c in cases]
    pool_ids = set(range(0, 25, 3)) if pool == "test-products" else None
    ranks = compute_ranks(scorer, cases, pool, pool_ids)
    assert np.array_equal(ranks, _oracle_ranks(rows, cases, pool_ids))


@pytest.mark.parametrize("method", ["pop", "itemknn", "itemknn-last", "prod2vec", "bastext",
                                    "bastext-float"])
def test_score_all_is_bitwise_the_block_row(method):
    _, baskets = make_random_corpus(25, 300, seed=2)
    sp = split_warm(baskets, seed=0)
    cases = form_test_cases(sp)
    scorer = _scorers(sp.train, 25, cases)[method]
    block = scorer.score_cases(*_csr(cases))
    assert block.shape == (len(cases), 25)
    for row, case in zip(block, cases):
        one = scorer.score_all(case.context_ids)
        assert one.dtype == row.dtype and one.tobytes() == row.tobytes()


def test_nan_score_fails_ranking():
    """A NaN compares false with everything, so a NaN held-out score would rank first."""
    cases = _cases([TestCase(np.array([0]), 1)])
    with pytest.raises(EvalError, match="NaN score"):
        compute_ranks(FixedScorer([0.2, np.nan, 0.5]), cases)
    with pytest.raises(EvalError, match="NaN score"):
        compute_ranks(FixedScorer([0.2, 0.1, np.nan]), cases)


def test_held_out_inside_its_own_context_ranks_inf():
    cases = _cases([TestCase(np.array([0, 2]), 2), TestCase(np.array([0]), 2)])
    assert list(compute_ranks(FixedScorer([0.2, 0.9, 0.5]), cases)) == [np.inf, 2.0]
