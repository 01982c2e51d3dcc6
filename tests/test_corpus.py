import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bastext.corpus import (Basket, Catalog, CorpusError, basket_csr, build_vocabulary,
                            encode_catalog, import_dataset, leave_one_out, load_split_manifest,
                            read_catalog, save_split_manifest, split_cold, split_warm,
                            title_matrix, tokenize, write_canonical)
from bastext.model import _sample_negative_matrix
from bastext.synthetic import make_random_corpus


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

def test_tokenize_basic():
    assert tokenize("Organic Tea") == ["organic", "tea"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_punctuation():
    assert tokenize("honey/lemon cough drops") == ["honey", "lemon", "cough", "drops"]


@given(st.text(max_size=80))
def test_tokenize_lowercase_alnum_only(s):
    for tok in tokenize(s):
        assert tok == tok.lower()
        assert tok.isalnum()


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

def test_vocabulary_counts_min_count_1():
    cat = Catalog()
    cat.add("x", "a b")
    cat.add("y", "a c")
    vocab = build_vocabulary(cat, min_count=1)
    assert vocab.size == 3
    assert vocab.unk_index == 3


def test_vocabulary_min_count_2():
    cat = Catalog()
    cat.add("x", "a b")
    cat.add("y", "a c")
    vocab = build_vocabulary(cat, min_count=2)
    assert vocab.size == 1
    assert set(vocab.word_to_index) == {"a"}


def test_vocabulary_unknown_maps_to_unk():
    cat = Catalog()
    cat.add("x", "a b")
    vocab = build_vocabulary(cat)
    enc = vocab.encode(["a", "zzz"])
    assert enc[0] < vocab.size
    assert enc[1] == vocab.unk_index


def test_title_matrix_layout():
    """Each title left-aligned in its row, UNK = V kept in place, PAD = V + 1 after it."""
    m = title_matrix([[2, 0], [], [3, 1, 3]], 3)
    assert m.dtype == np.int64
    assert m.tolist() == [[2, 0, 4], [4, 4, 4], [3, 1, 3]]
    assert title_matrix([], 3).shape == (0, 0)
    assert title_matrix([[], []], 3).shape == (2, 0)
    assert title_matrix([np.array([1, 3])], 3).tolist() == [[1, 3]]


def test_encode_catalog_maps_rare_words_to_unk():
    cat = Catalog()
    cat.add("x", "red apple")
    cat.add("y", "apple")
    cat.add("z", "")
    vocab = build_vocabulary(cat, min_count=2)  # apple = 0; red is UNK = 1; PAD = 2
    assert encode_catalog(cat, vocab).tolist() == [[1, 0], [0, 2], [2, 2]]
    cat, _ = make_random_corpus(50, 10, seed=4)
    vocab = build_vocabulary(cat, min_count=2)
    assert np.array_equal(encode_catalog(cat, vocab), title_matrix(
        [vocab.encode(p.tokens) for p in cat.products], vocab.size))


def test_vocabulary_matches_independent_scan():
    cat, _ = make_random_corpus(50, 10, seed=4)
    vocab = build_vocabulary(cat, min_count=1)
    distinct = set()
    for p in cat.products:
        distinct.update(p.tokens)
    assert vocab.size == len(distinct)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def test_canonical_ingest(tmp_path):
    (tmp_path / "catalog.tsv").write_text("p1\tred apple\np2\tgreen pear\np3\trye bread\n")
    (tmp_path / "baskets.txt").write_text("p1 p2 p3\np1 p2\n")
    cat, baskets, stats = import_dataset(
        "canonical", [tmp_path / "catalog.tsv", tmp_path / "baskets.txt"])
    assert len(cat) == 3
    assert [len(b) for b in baskets] == [3, 2]
    assert stats.baskets_kept == 2


def test_canonical_ingest_drops_small_and_counts_bad_rows(tmp_path):
    (tmp_path / "catalog.tsv").write_text("p1\tred apple\np2\tgreen pear\n")
    lines = ["p1 p2"] * 8 + ["p1", "pX pY"]  # size-1 basket + unknown-product row
    (tmp_path / "baskets.txt").write_text("\n".join(lines) + "\n")
    cat, baskets, stats = import_dataset(
        "canonical", [tmp_path / "catalog.tsv", tmp_path / "baskets.txt"])
    assert len(baskets) == 8
    assert stats.baskets_kept == 8
    assert stats.baskets_dropped_small + stats.rows_skipped == 2


def test_canonical_duplicates_collapse(tmp_path):
    (tmp_path / "catalog.tsv").write_text("p1\tred apple\np2\tgreen pear\n")
    (tmp_path / "baskets.txt").write_text("p1 p1 p2\n")
    _, baskets, _ = import_dataset(
        "canonical", [tmp_path / "catalog.tsv", tmp_path / "baskets.txt"])
    assert len(baskets) == 1
    assert list(baskets[0].product_ids) == [0, 1]


def test_onlineretail_ingest(tmp_path):
    csv = tmp_path / "retail.csv"
    csv.write_text(
        "InvoiceNo,StockCode,Description,Quantity\n"
        "536365,85123A,WHITE HANGING HEART HOLDER,6\n"
        "536365,71053,WHITE METAL LANTERN,6\n"
        "536366,22633,HAND WARMER UNION JACK,6\n"
        "536366,22632,HAND WARMER RED POLKA DOT,6\n")
    cat, baskets, _ = import_dataset("onlineretail", [csv])
    assert len(cat) == 4
    assert len(baskets) == 2
    assert all(len(b) == 2 for b in baskets)


def test_instacart_ingest(tmp_path):
    (tmp_path / "products.csv").write_text(
        "product_id,product_name,aisle_id\n1,Banana,24\n2,Whole Milk,84\n3,Bread,112\n")
    (tmp_path / "order_products.csv").write_text(
        "order_id,product_id,add_to_cart_order\n10,1,1\n10,2,2\n11,2,1\n11,3,2\n")
    cat, baskets, _ = import_dataset(
        "instacart", [tmp_path / "products.csv", tmp_path / "order_products.csv"])
    assert len(cat) == 3
    assert len(baskets) == 2


def test_unknown_format_fatal(tmp_path):
    with pytest.raises(CorpusError):
        import_dataset("nope", [tmp_path / "x"])


_CATALOG_LINES = st.one_of(
    st.tuples(st.sampled_from(["p0", "p1", "p2", "p3"]),
              st.text(alphabet="aZ 9\té-", max_size=8)).map("\t".join),
    st.sampled_from(["", "  ", "p4", "no tab here"]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_CATALOG_LINES, max_size=14))
def test_read_catalog_matches_import_dataset(tmp_path_factory, lines):
    """Duplicate ids (first position, last title), blank titles, blank lines and lines
    without a tab give the same catalog through both readers."""
    d = tmp_path_factory.mktemp("catalog")
    cat, bsk = d / "catalog.tsv", d / "baskets.txt"
    cat.write_text("\n".join(lines + ["q0\tkeep zero", "q1\tkeep one"]) + "\n",
                   encoding="utf-8")
    bsk.write_text("q0 q1\np0 p1 q0\n", encoding="utf-8")
    got = read_catalog(cat)
    want = import_dataset("canonical", [cat, bsk])[0]
    assert got.external_ids() == want.external_ids()
    assert [p.title for p in got.products] == [p.title for p in want.products]
    assert [p.tokens for p in got.products] == [p.tokens for p in want.products]
    assert got.content_hash() == want.content_hash()


def test_canonical_round_trip(tmp_path):
    cat, baskets = make_random_corpus(20, 30, seed=7)
    write_canonical(cat, baskets, tmp_path / "c.tsv", tmp_path / "b.txt")
    cat2, baskets2, _ = import_dataset("canonical", [tmp_path / "c.tsv", tmp_path / "b.txt"])
    assert cat2.external_ids() == cat.external_ids()
    assert len(baskets2) == len(baskets)
    for x, y in zip(baskets, baskets2):
        assert np.array_equal(x.product_ids, y.product_ids)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def _products_in(baskets):
    if not baskets:
        return set()
    return set(np.concatenate([b.product_ids for b in baskets]).tolist())


def test_split_warm_invariant_small(tiny_baskets):
    sp = split_warm(tiny_baskets, ratios=(0.6, 0.2, 0.2), seed=1)
    train_products = _products_in(sp.train)
    for b in sp.test + sp.validation:
        for p in b.product_ids:
            assert int(p) in train_products


def test_split_warm_partition_disjoint():
    _, baskets = make_random_corpus(30, 200, seed=2)
    sp = split_warm(baskets, seed=0)
    ids = [b.source_id for b in sp.train + sp.validation + sp.test]
    assert len(ids) == len(set(ids))


def test_split_warm_deterministic():
    _, baskets = make_random_corpus(30, 200, seed=2)
    a = split_warm(baskets, seed=5)
    b = split_warm(baskets, seed=5)
    for xs, ys in ((a.train, b.train), (a.validation, b.validation), (a.test, b.test)):
        assert [x.source_id for x in xs] == [y.source_id for y in ys]


def test_split_warm_removal_matches_set_difference_oracle():
    _, baskets = make_random_corpus(40, 1000, seed=9)
    sp = split_warm(baskets, seed=3)
    # brute-force: which products of the raw partition's test baskets are not in training?
    train_products = _products_in(sp.train)
    for b in sp.test:
        assert set(b.product_ids.tolist()) <= train_products


def test_split_cold_zero_overlap():
    _, baskets = make_random_corpus(150, 800, seed=11)
    sp = split_cold(baskets, seed=2)
    assert sp.mode == "cold"
    assert len(sp.test_product_ids) >= 10
    train_products = _products_in(sp.train)
    assert train_products.isdisjoint(sp.test_product_ids)


def test_split_cold_degenerate_fatal(tiny_baskets):
    with pytest.raises(CorpusError):
        split_cold(tiny_baskets, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=80, max_value=150), st.integers(min_value=400, max_value=600),
       st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=10_000),
       st.sampled_from([(0.85, 0.05, 0.10), (0.7, 0.0, 0.3), (0.5, 0.25, 0.25)]),
       st.floats(min_value=0.3, max_value=1.0))
def test_split_manifest_round_trip(tmp_path_factory, num_products, num_baskets, max_basket,
                                   seed, ratios, cold_fraction):
    """split -> save_split_manifest -> load_split_manifest gives an identical split."""
    cat, baskets = make_random_corpus(num_products, num_baskets, max_basket, seed=seed)
    d = tmp_path_factory.mktemp("manifest")
    for sp in (split_warm(baskets, ratios, seed=seed),
               split_cold(baskets, ratios, cold_fraction, seed=seed)):
        path = d / f"{sp.mode}.manifest"
        save_split_manifest(sp, cat, path)
        back = load_split_manifest(path, cat, baskets)
        assert (back.mode, back.seed) == (sp.mode, sp.seed)
        assert back.test_product_ids == sp.test_product_ids
        for xs, ys in ((sp.train, back.train), (sp.validation, back.validation),
                       (sp.test, back.test)):
            assert [x.source_id for x in xs] == [y.source_id for y in ys]
            for x, y in zip(xs, ys):
                assert np.array_equal(x.product_ids, y.product_ids)
                assert x.product_ids.dtype == y.product_ids.dtype


@pytest.mark.parametrize("part", ["train", "test"], ids=["same-part", "two-parts"])
def test_manifest_basket_listed_twice_fatal(tmp_path, part):
    """A basket named twice would be trained or evaluated on twice."""
    cat, baskets = make_random_corpus(30, 200, seed=0)
    sp = split_warm(baskets, seed=0)
    path = tmp_path / "warm.manifest"
    save_split_manifest(sp, cat, path)
    lines = path.read_text().splitlines()
    dup = sp.train[0].source_id
    path.write_text("\n".join(lines + [f"{part}\t{dup}"]) + "\n")
    with pytest.raises(CorpusError, match=f"warm.manifest:{len(lines) + 1}: basket "
                                          f"'{dup}' listed twice"):
        load_split_manifest(path, cat, baskets)


# ---------------------------------------------------------------------------
# Leave-one-out cases
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True),
                min_size=1, max_size=8),
       st.data())
def test_leave_one_out_matches_per_basket_delete(members, data):
    baskets = [Basket(np.array(sorted(m), dtype=np.int64), f"s{i}")
               for i, m in enumerate(members)]
    indptr, indices = basket_csr(baskets)
    slots = [(r, k) for r, b in enumerate(baskets) for k in range(len(b))]
    pos = np.array(data.draw(st.lists(st.integers(0, len(slots) - 1), max_size=20)),
                   dtype=np.int64)
    held, ctx_flat, ctx_lens, rows = leave_one_out(indptr, indices, pos)
    expected = [slots[p] for p in pos]
    assert rows.tolist() == [r for r, _ in expected]
    assert held.tolist() == [int(baskets[r].product_ids[k]) for r, k in expected]
    contexts = [np.delete(baskets[r].product_ids, k) for r, k in expected]
    assert ctx_lens.tolist() == [len(c) for c in contexts]
    assert ctx_flat.tolist() == [int(x) for c in contexts for x in c]


def test_split_bad_ratios_and_cold_fraction_fatal(tiny_baskets):
    for ratios in ((0.5, 0.5), (1.2, -0.1, -0.1)):
        with pytest.raises(CorpusError, match="ratios"):
            split_warm(tiny_baskets, ratios=ratios)
    for fraction in (0.0, 1.5):
        with pytest.raises(CorpusError, match="fraction"):
            split_cold(tiny_baskets, test_product_fraction=fraction)


# ---------------------------------------------------------------------------
# Negative sampling (the trainer's sampler)
# ---------------------------------------------------------------------------

def _sample(members, n, num_products, rng):
    """`n` negatives for a positive of the one basket `members`, as `train` draws them."""
    keys = np.sort(np.asarray(members, dtype=np.int64))  # basket row 0: key = product id
    return _sample_negative_matrix(np.zeros(1, dtype=np.int64), keys, n, num_products, rng)[0]


def test_sample_negatives_forced_candidate():
    """With one product outside the basket, every draw is that product."""
    assert _sample([0, 1, 2], 4, 4, np.random.default_rng(0)).tolist() == [3, 3, 3, 3]


def test_sample_negatives_respects_exclusions():
    negs = _sample([4, 7, 9], 200, 12, np.random.default_rng(1))
    assert not np.isin(negs, [4, 7, 9]).any()


def test_sample_negatives_uniform():
    rng = np.random.default_rng(123)
    draws = np.concatenate([_sample([0, 1], 100, 10, rng) for _ in range(1000)])
    freq = np.bincount(draws, minlength=10)[2:] / len(draws)
    assert np.all(np.abs(freq - 0.125) < 0.01)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_split_invariants_property(seed, max_basket):
    _, baskets = make_random_corpus(25, 120, max_basket=max_basket, seed=seed)
    sp = split_warm(baskets, seed=seed)
    train_products = _products_in(sp.train)
    for b in sp.validation + sp.test:
        assert len(b) >= 2
        assert set(b.product_ids.tolist()) <= train_products
