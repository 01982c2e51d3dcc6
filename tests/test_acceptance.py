"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v`; the `[criterion N]` lines are
written straight to the terminal so they appear even under output capture.

Criteria 5 (in part) and 6 need the OnlineRetail / Instacart raw files, which are
not shipped with the repository. Place them under `data/` (or point the
BASTEXT_DATA environment variable at a directory) as:

    data/OnlineRetail.csv
    data/instacart/products.csv
    data/instacart/order_products__prior.csv

Without them those checks report SKIP.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bastext.model as M
from bastext import cli
from bastext.baselines import ItemKnnModel, PopModel, Prod2vecModel, Prod2vecConfig
from bastext.corpus import (Baskets, build_vocabulary, import_dataset, split_cold, split_warm,
                            title_matrix, write_canonical)
from bastext.encoders import WordInputTable
from bastext.evaluation import (evaluate, form_test_cases, mrr_at_n, rank_candidates,
                                recall_at_n)
from bastext.model import BastextScorer, ModelConfig, init_model
from bastext.synthetic import make_planted_corpus, make_random_corpus

from conftest import evaluated_order

DATA_DIR = Path(os.environ.get("BASTEXT_DATA", Path(__file__).resolve().parents[1] / "data"))
ONLINERETAIL = DATA_DIR / "OnlineRetail.csv"
INSTACART = [DATA_DIR / "instacart" / "products.csv",
             DATA_DIR / "instacart" / "order_products__prior.csv"]


VERDICT_LINES: list[str] = []  # replayed by a conftest terminal-summary hook


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, f"criterion {num}: {detail}"


def _skip(num: int, detail: str) -> None:
    VERDICT_LINES.append(f"[criterion {num}] SKIP: {detail}")
    pytest.skip(detail)


# ---------------------------------------------------------------------------
# Shared planted-corpus artifacts
# ---------------------------------------------------------------------------

PLANTED_CONFIG = dict(k=32, negatives=8, batch_size=256, learning_rate=2e-3,
                      dropout=0.0, epochs=20, seed=0, patience=100,
                      validation_sample=200)


@pytest.fixture(scope="module")
def planted():
    catalog, baskets, community, groups = make_planted_corpus()
    vocab = build_vocabulary(catalog)
    return catalog, baskets, community, groups, vocab


@pytest.fixture(scope="module")
def planted_warm_model(planted):
    catalog, baskets, _, _, vocab = planted
    split = split_warm(baskets, seed=3)
    t0 = time.perf_counter()
    state, _ = M.train(ModelConfig(**PLANTED_CONFIG), split.train, split.validation,
                       catalog, vocab)
    wall = time.perf_counter() - t0
    vectors = M.materialize_product_vectors(state, catalog)
    return split, BastextScorer(vectors), wall


def _train_recall20(catalog, baskets, vocab, split, *, negatives=8, epochs=20,
                    max_cases=600):
    cfg = ModelConfig(**{**PLANTED_CONFIG, "negatives": negatives, "epochs": epochs})
    state, _ = M.train(cfg, split.train, split.validation, catalog, vocab)
    scorer = BastextScorer(M.materialize_product_vectors(state, catalog))
    cases = form_test_cases(split)[:max_cases]
    report = evaluate(scorer, cases, ns=(20,), mode=split.mode,
                      test_product_ids=split.test_product_ids)
    return report.metrics["recall@20"], scorer, cases


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradients(loss_batch):
    k, vocab_words, dim, filters = 8, 20, 5, 4
    rng = np.random.default_rng(11)
    table = WordInputTable.pretrained(rng.normal(0, 0.5, size=(vocab_words, dim)))

    # titles over the 20-word vocabulary, with occasional UNK hits
    titles = title_matrix([rng.integers(0, vocab_words + 1, size=rng.integers(2, 7))
                           for _ in range(12)], vocab_words)

    class _FlatVocab:
        size = vocab_words
        unk_index = vocab_words

    t0 = time.perf_counter()
    worst = 0.0
    for encoder in ("mov", "cnn"):
        cfg = ModelConfig(k=k, negatives=2, encoder=encoder,
                          cnn_widths=(2, 3), cnn_filters=filters, dropout=0.0, seed=5)
        state = init_model(cfg, _FlatVocab(), table, dtype=np.float64)
        if encoder == "cnn":
            # move biases off the exact ReLU kink that zero-padded windows sit on
            for prm in (state.params_e, state.params_c):
                for w in prm.widths:
                    prm.biases[w][:] = rng.normal(0, 0.3, size=prm.biases[w].shape)
                prm.proj_bias[:] = rng.normal(0, 0.3, size=prm.proj_bias.shape)
        for trial in range(10):
            baskets = Baskets.from_lists(
                [np.sort(rng.choice(12, size=3, replace=False)) for _ in range(3)], ["s"] * 3)
            batch = loss_batch(baskets, 2, 12, rng)
            _, grads = M._loss_arrays(state, titles, *batch, False, None)
            eps = 1e-4
            for name, p in state.named_params().items():
                flat = p.ravel()
                for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    lp, _ = M._loss_arrays(state, titles, *batch, False, None)
                    flat[idx] = orig - eps
                    lm, _ = M._loss_arrays(state, titles, *batch, False, None)
                    flat[idx] = orig
                    num = (lp - lm) / (2 * eps)
                    ana = grads[name].ravel()[idx]
                    worst = max(worst, abs(num - ana) / max(1.0, abs(num), abs(ana)))
    wall = time.perf_counter() - t0
    _verdict(1, worst < 1e-4 and wall < 10.0,
             f"max relative gradient error {worst:.2e} over 10 batches x 2 encoders "
             f"in {wall:.1f}s")


# ---------------------------------------------------------------------------
# 2. Planted-structure recovery
# ---------------------------------------------------------------------------

def test_criterion_2_planted_recovery(planted, planted_warm_model):
    _, _, community, _, _ = planted
    split, scorer, train_wall = planted_warm_model
    t0 = time.perf_counter()
    cases = form_test_cases(split)[:600]
    report = evaluate(scorer, cases, ns=(5,))
    r5 = report.metrics["recall@5"]

    all_ids = np.arange(scorer.num_products)
    cross = total = 0
    for case in cases:
        pool = np.setdiff1d(all_ids, case.context_ids, assume_unique=True)
        top5 = rank_candidates(case, scorer, pool)[:5]
        cross += int(np.sum(community[top5] != community[case.held_out_id]))
        total += 5
    wall = train_wall + (time.perf_counter() - t0)
    _verdict(2, r5 > 0.9 and cross / total < 0.05 and wall < 120.0,
             f"recall@5 {r5:.3f} (need > 0.9), cross-community top-5 share "
             f"{cross / total:.4f} (need < 0.05), {wall:.0f}s")


# ---------------------------------------------------------------------------
# 3. Baseline oracle equivalence
# ---------------------------------------------------------------------------

def _dense_knn_oracle(baskets, num_products, context_ids):
    x = np.zeros((len(baskets), num_products))
    for r, b in enumerate(baskets):
        x[r, b] = 1.0
    c = x.T @ x
    norms = np.linalg.norm(c, axis=1)
    normalized = np.divide(c, norms[:, None], out=np.zeros_like(c),
                           where=norms[:, None] > 0)
    return normalized @ normalized[context_ids].mean(axis=0)


def test_criterion_3_baseline_oracles():
    worst = 0.0
    pop_exact = True
    rng = np.random.default_rng(7)
    for seed, num_products in ((0, 100), (1, 60), (2, 25), (3, 90), (4, 40)):
        _, baskets = make_random_corpus(num_products, 300, seed=seed)
        knn = ItemKnnModel.fit(baskets, num_products)
        pop = PopModel.fit(baskets, num_products)
        counts = np.zeros(num_products, dtype=np.int64)
        for b in baskets:
            counts[b] += 1
        pop_exact &= evaluated_order(pop) == sorted(range(num_products),
                                                    key=lambda i: (-counts[i], i))
        for _ in range(20):
            ctx = rng.choice(num_products, size=rng.integers(1, 5), replace=False)
            diff = np.abs(knn.score_all(ctx) - _dense_knn_oracle(baskets, num_products, ctx))
            worst = max(worst, float(diff.max()))
    _verdict(3, worst <= 1e-10 and pop_exact,
             f"ItemKNN max deviation from dense oracle {worst:.2e} (need <= 1e-10), "
             f"POP count-sort exact: {pop_exact}")


# ---------------------------------------------------------------------------
# 4. Metric correctness
# ---------------------------------------------------------------------------

def test_criterion_4_metrics():
    fixtures_ok = (recall_at_n([1, 1, 1], 10) == 1.0 and mrr_at_n([1, 1, 1], 10) == 1.0
                   and recall_at_n([2, 30], 20) == 0.5 and mrr_at_n([2, 30], 20) == 0.25
                   and recall_at_n([np.inf], 20) == 0.0 and mrr_at_n([np.inf], 20) == 0.0)
    rng = np.random.default_rng(4)
    props_ok = True
    for _ in range(100):
        ranks = rng.integers(1, 500, size=100).astype(np.float64)
        prev = 0.0
        for n in (1, 5, 10, 20, 50):
            r, m = recall_at_n(ranks, n), mrr_at_n(ranks, n)
            props_ok &= (m <= r) and (r >= prev)
            prev = r
    _verdict(4, fixtures_ok and props_ok,
             f"hand fixtures exact: {fixtures_ok}; monotonicity and "
             f"MRR<=Recall on 10^4 random ranks: {props_ok}")


# ---------------------------------------------------------------------------
# 5. Split protocol invariants
# ---------------------------------------------------------------------------

def _warm_invariant(split) -> bool:
    train_products = set()
    for b in split.train:
        train_products.update(b.tolist())
    return all(int(p) in train_products
               for part in (split.validation, split.test) for b in part
               for p in b)


def _cold_invariant(split) -> bool:
    train_products = set()
    for b in split.train:
        train_products.update(b.tolist())
    test_products = set()
    for b in split.test:
        test_products.update(b.tolist())
    cold = split.test_product_ids
    return not (cold & train_products) and cold <= test_products


def test_criterion_5_split_invariants():
    ok = True
    for i in range(100):
        _, baskets = make_random_corpus(150, 400, seed=i)
        ok &= _warm_invariant(split_warm(baskets, seed=i))
        ok &= _cold_invariant(split_cold(baskets, seed=i))

    note = "OnlineRetail counts part skipped (data not present)"
    if ONLINERETAIL.exists():
        _, baskets, _ = import_dataset("onlineretail", [ONLINERETAIL])
        split = split_warm(baskets, seed=0)
        ok &= _warm_invariant(split)
        cases = len(form_test_cases(split))
        counts = (len(split.train), len(split.validation), len(split.test), cases)
        targets = (17_000, 1_000, 1_900, 51_000)
        within = all(abs(c - t) <= 0.10 * t for c, t in zip(counts, targets))
        ok &= within
        note = (f"OnlineRetail counts {counts} vs targets {targets} "
                f"within +-10%: {within}")
    _verdict(5, ok, f"invariants hold on 100 synthetic corpora; {note}")


# ---------------------------------------------------------------------------
# 6. Desk-scale reproduction on real data
# ---------------------------------------------------------------------------

def _instacart_split(paths, max_baskets=100_000):
    """Criterion 6's Instacart data: the catalog, a warm split of at most `max_baskets`
    baskets drawn at random, and the vocabulary of words seen at least twice."""
    catalog, baskets, _ = import_dataset("instacart", paths)
    rng = np.random.default_rng(0)
    sub = baskets.take(rng.choice(len(baskets), min(max_baskets, len(baskets)), replace=False))
    return catalog, split_warm(sub, seed=0), build_vocabulary(catalog, min_count=2)


def test_instacart_split_on_tiny_files(tmp_path):
    """`_instacart_split` runs on generated `products.csv`/`order_products` files, so an
    API change cannot break criterion 6's Instacart branch while its data is absent."""
    rng = np.random.default_rng(1)
    words = ["red", "green", "tea", "pear", "rye", "bread"]
    (tmp_path / "products.csv").write_text("product_id,product_name,aisle_id\n" + "".join(
        f"{i},{words[i % 6]} {words[(i * 5 + 1) % 6]},1\n" for i in range(20)))
    orders = [(o, p) for o in range(60) for p in rng.choice(20, 4, replace=False).tolist()]
    (tmp_path / "order_products__prior.csv").write_text(
        "order_id,product_id,add_to_cart_order\n" + "".join(f"{o},{p},1\n" for o, p in orders))
    paths = [tmp_path / "products.csv", tmp_path / "order_products__prior.csv"]
    catalog, split, vocab = _instacart_split(paths, max_baskets=40)
    parts = (split.train, split.validation, split.test)
    source_ids = [s for part in parts for s in part.source_ids.tolist()]
    assert len(catalog) == 20 and vocab.words() == sorted(words)
    assert len(source_ids) == len(set(source_ids)) == 40
    assert set(source_ids) <= {str(o) for o in range(60)}
    assert split.mode == "warm" and len(form_test_cases(split)) > 0


def _onlineretail_split(path):
    """Criterion 6's OnlineRetail data: the catalog, a warm split of every basket and the
    vocabulary of words seen at least twice."""
    catalog, baskets, _ = import_dataset("onlineretail", [path])
    return catalog, split_warm(baskets, seed=0), build_vocabulary(catalog, min_count=2)


def test_onlineretail_split_on_a_tiny_file(tmp_path):
    """`_onlineretail_split` runs on a generated transaction CSV, so an API change cannot
    break criterion 6's OnlineRetail part while its data is absent."""
    rng = np.random.default_rng(2)
    words = ["WHITE", "HEART", "LANTERN", "RED", "MUG", "BAG"]
    rows = [(f"5{o:05d}", f"8{p:04d}", f"{words[p % 6]} {words[(p * 5 + 1) % 6]}")
            for o in range(50) for p in rng.choice(20, 4, replace=False).tolist()]
    path = tmp_path / "OnlineRetail.csv"
    path.write_text("InvoiceNo,StockCode,Description,Quantity\n"
                    + "".join(f"{o},{p},{d},1\n" for o, p, d in rows))
    catalog, split, vocab = _onlineretail_split(path)
    parts = (split.train, split.validation, split.test)
    source_ids = [s for part in parts for s in part.source_ids.tolist()]
    assert len(catalog) == 20 and vocab.words() == sorted(w.lower() for w in words)
    assert sorted(source_ids) == sorted({o for o, _, _ in rows})
    assert split.mode == "warm" and len(form_test_cases(split)) > 0


def test_criterion_6_real_data_ordering():
    if not ONLINERETAIL.exists():
        _skip(6, f"OnlineRetail data not present at {ONLINERETAIL}")
    catalog, split, vocab = _onlineretail_split(ONLINERETAIL)
    cfg = ModelConfig(k=64, negatives=8, seed=0)
    state, _ = M.train(cfg, split.train, split.validation, catalog, vocab)
    scorer = BastextScorer(M.materialize_product_vectors(state, catalog))
    cases = form_test_cases(split)
    rep = evaluate(scorer, cases, ns=(20,))
    pop = evaluate(PopModel.fit(split.train, len(catalog)), cases, ns=(20,))
    knn = evaluate(ItemKnnModel.fit(split.train, len(catalog)), cases, ns=(20,))
    r20 = rep.metrics["recall@20"]
    ordering = (r20 > pop.metrics["recall@20"] and r20 > knn.metrics["recall@20"]
                and rep.metrics["mrr@20"] > pop.metrics["mrr@20"]
                and rep.metrics["mrr@20"] > knn.metrics["mrr@20"])
    ok = r20 >= 0.25 and ordering

    note = "; Instacart subsample skipped (data not present)"
    if all(p.exists() for p in INSTACART):
        cat2, sp2, vocab2 = _instacart_split(INSTACART)
        st2, _ = M.train(cfg, sp2.train, sp2.validation, cat2, vocab2)
        sc2 = BastextScorer(M.materialize_product_vectors(st2, cat2))
        cases2 = form_test_cases(sp2)
        b2 = evaluate(sc2, cases2, ns=(20,)).metrics["recall@20"]
        p2v = Prod2vecModel.fit(sp2.train, len(cat2), Prod2vecConfig(k=64, seed=0))
        p2 = evaluate(p2v, cases2, ns=(20,)).metrics["recall@20"]
        pop2 = evaluate(PopModel.fit(sp2.train, len(cat2)), cases2,
                        ns=(20,)).metrics["recall@20"]
        ok &= b2 > p2 > pop2
        note = f"; Instacart ordering {b2:.3f} > {p2:.3f} > {pop2:.3f}"
    _verdict(6, ok, f"OnlineRetail recall@20 {r20:.4f} (need >= 0.25), "
                    f"beats POP/ItemKNN: {ordering}{note}")


# ---------------------------------------------------------------------------
# 7. Cold-start transfer
# ---------------------------------------------------------------------------

def test_criterion_7_cold_start(planted):
    catalog, baskets, _, _, vocab = planted
    split = split_cold(baskets, test_product_fraction=0.10, seed=0)
    cfg = ModelConfig(**{**PLANTED_CONFIG, "epochs": 15})
    state, _ = M.train(cfg, split.train, split.validation, catalog, vocab)
    scorer = BastextScorer(M.materialize_product_vectors(state, catalog))
    cases = form_test_cases(split)
    rep = evaluate(scorer, cases, ns=(20,), mode="cold",
                   test_product_ids=split.test_product_ids)
    r20 = rep.metrics["recall@20"]
    pool_size = len(catalog) - int(np.mean([len(c.context_ids) for c in cases]))
    random_r20 = 20.0 / pool_size
    _verdict(7, r20 >= 5.0 * random_r20,
             f"cold recall@20 {r20:.3f} on {len(cases)} cases vs random "
             f"{random_r20:.3f} (need >= 5x = {5 * random_r20:.3f})")


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    catalog, baskets, _, _ = make_planted_corpus(
        num_products=60, num_communities=2, group_sizes=(10, 10, 10),
        num_baskets=400, basket_size=5, seed=0)
    raw = tmp_path / "raw"
    raw.mkdir()
    write_canonical(catalog, baskets, raw / "catalog.tsv", raw / "baskets.txt")

    def pipeline(out: Path, threads: str):
        args = ["--out", str(out), "--threads", threads]
        assert cli.main(["ingest", "--format", "canonical",
                         str(raw / "catalog.tsv"), str(raw / "baskets.txt")] + args) == 0
        assert cli.main(["split"] + args) == 0
        assert cli.main(["train", "--k", "16", "--epochs", "3", "--batch-size", "256",
                         "--dropout", "0.0", "--patience", "100"] + args) == 0
        assert cli.main(["evaluate", "--method", "bastext"] + args) == 0
        assert cli.main(["evaluate", "--method", "pop"] + args) == 0
        return {rel: (out / rel).read_bytes()
                for rel in ("corpus/catalog.tsv", "corpus/baskets.txt",
                            "splits/warm.manifest", "models/model.bin",
                            "reports/bastext.json", "reports/pop.json")}

    a = pipeline(tmp_path / "a", "1")
    b = pipeline(tmp_path / "b", "1")
    c = pipeline(tmp_path / "c", "4")
    rerun_ok = a == b
    threads_ok = a == c
    _verdict(8, rerun_ok and threads_ok,
             f"rerun byte-identical: {rerun_ok}; --threads 4 matches "
             f"--threads 1 bit-exactly: {threads_ok}")


# ---------------------------------------------------------------------------
# 9. Negative-ratio sensitivity shape
# ---------------------------------------------------------------------------

def test_criterion_9_negative_ratio_shape(planted):
    catalog, baskets, _, _, vocab = planted
    split = split_warm(baskets, seed=3)
    ns = (1, 2, 4, 8, 16)
    recalls = []
    for n in ns:
        r20, _, _ = _train_recall20(catalog, baskets, vocab, split, negatives=n,
                                    epochs=10, max_cases=400)
        recalls.append(r20)

    def shape_ok(r):
        for star in range(len(r)):
            monotone = all(r[i] <= r[i + 1] + 1e-12 for i in range(star))
            flat = all(abs(r[i] - r[star]) < 0.02 for i in range(star + 1, len(r)))
            if monotone and flat:
                return True
        return False

    detail = ", ".join(f"n={n}: {r:.3f}" for n, r in zip(ns, recalls))
    _verdict(9, shape_ok(recalls),
             f"recall@20 non-decreasing to saturation then < 2 points drift ({detail})")
