import csv
import hashlib
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bastext import corpus
from bastext.corpus import (Catalog, CorpusError, IngestStats, atomic_write, build_vocabulary,
                            encode_catalog, import_dataset, leave_one_out, load_split_manifest,
                            read_catalog, save_split_manifest, split_cold, split_warm,
                            title_matrix, tokenize, tokenize_titles, write_canonical)
from bastext.model import ModelConfig, _sample_negative_matrix, init_model, save_model
from bastext.synthetic import make_random_corpus

from conftest import make_baskets


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


# Pieces of titles the tokenizer must split right: `|`, tabs, every `str.splitlines`
# break, and the two non-ASCII letters that lowercase to ASCII (İ -> "i" + U+0307,
# Kelvin sign -> "k").
_TRICKY = ["|", "\t", " ", "İ", "\u212a", "Ab", "9",
           *"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"]
_TITLES = st.lists(st.one_of(st.text(max_size=30),
                             st.lists(st.sampled_from(_TRICKY), max_size=12).map("".join)),
                   max_size=20)


@given(_TITLES)
@example(["", "|a|b|", "x\ty", "İstanbul \u212aelvin", "a\u2028b\x85c\r\nd", ""])
@example([])
def test_catalog_tokenizer_equals_per_title_regex(titles):
    """One pass over all titles gives each title's `[a-z0-9]+` runs of its lowercase
    form; the catalog hash equals SHA-256 fed one field at a time."""
    want = [re.findall(r"[a-z0-9]+", t.lower()) for t in titles]
    tokens, lens = tokenize_titles(titles)
    assert tokens == [tok for ts in want for tok in ts]
    assert lens.dtype == np.int64 and lens.tolist() == [len(ts) for ts in want]
    assert [tokenize(t) for t in titles] == want

    cat = Catalog([f"p{i}" for i in range(len(titles))], titles)
    assert cat.tokens[0] == tokens and cat.tokens[1].tolist() == lens.tolist()
    if any(want):
        vocab = build_vocabulary(cat)
        assert vocab.words() == sorted(Counter(tok for ts in want for tok in ts))
        assert np.array_equal(encode_catalog(cat, vocab), title_matrix(
            [vocab.encode(ts) for ts in want], vocab.size))
    h = hashlib.sha256()
    for i, t in enumerate(titles):
        h.update(f"p{i}".encode())
        h.update(b"\t")
        h.update(t.encode())
        h.update(b"\n")
    assert cat.content_hash() == h.hexdigest()


def test_catalog_products_view_reads_its_columns():
    cat = Catalog(["x", "y"], ["red tea", "Green TEA"])
    assert cat.tokens is cat.tokens  # tokenized once
    assert cat.tokens[0] == ["red", "tea", "green", "tea"]
    assert cat.tokens[1].tolist() == [2, 2]
    assert cat.products[-1] == cat.products[1]
    assert (cat.products[1].external_id, cat.products[1].title) == ("y", "Green TEA")
    assert cat.products[1].tokens == ["green", "tea"]
    assert [p.id for p in cat.products] == [0, 1]
    with pytest.raises(IndexError):
        cat.products[2]


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

def test_vocabulary_counts_min_count_1():
    cat = Catalog(["x", "y"], ["a b", "a c"])
    vocab = build_vocabulary(cat, min_count=1)
    assert vocab.size == 3
    assert vocab.unk_index == 3


def test_vocabulary_min_count_2():
    cat = Catalog(["x", "y"], ["a b", "a c"])
    vocab = build_vocabulary(cat, min_count=2)
    assert vocab.size == 1
    assert set(vocab.word_to_index) == {"a"}
    for below_1 in (0, -3):
        with pytest.raises(CorpusError, match="min_count must be >= 1"):
            build_vocabulary(cat, min_count=below_1)


def test_vocabulary_unknown_maps_to_unk():
    cat = Catalog(["x"], ["a b"])
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
    cat = Catalog(["x", "y", "z"], ["red apple", "apple", ""])
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


def test_canonical_ingest_drops_small_and_counts_bad_rows(tmp_path):
    (tmp_path / "catalog.tsv").write_text("p1\tred apple\np2\tgreen pear\n")
    lines = ["p1 p2"] * 8 + ["p1", "pX pY"]  # size-1 basket + unknown-product row
    (tmp_path / "baskets.txt").write_text("\n".join(lines) + "\n")
    cat, baskets, stats = import_dataset(
        "canonical", [tmp_path / "catalog.tsv", tmp_path / "baskets.txt"])
    assert len(baskets) == 8
    assert stats.baskets_dropped_small + stats.rows_skipped == 2


def test_canonical_duplicates_collapse(tmp_path):
    (tmp_path / "catalog.tsv").write_text("p1\tred apple\np2\tgreen pear\n")
    (tmp_path / "baskets.txt").write_text("p1 p1 p2\n")
    _, baskets, _ = import_dataset(
        "canonical", [tmp_path / "catalog.tsv", tmp_path / "baskets.txt"])
    assert len(baskets) == 1
    assert baskets.indices.tolist() == [0, 1]


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
    """A product missing from products.csv (99, 98) or with a blank name (4) leaves its
    order; an order left below two products is dropped and counted."""
    (tmp_path / "products.csv").write_text(
        "product_id,product_name,aisle_id\n1,Banana,24\n2,Whole Milk,84\n3,Bread,112\n4,,5\n")
    (tmp_path / "order_products.csv").write_text(
        "order_id,product_id,add_to_cart_order\n10,1,1\n10,2,2\n10,99,3\n11,2,1\n11,3,2\n"
        "12,99,1\n12,98,2\n13,1,1\n13,4,2\n")
    cat, baskets, stats = import_dataset(
        "instacart", [tmp_path / "products.csv", tmp_path / "order_products.csv"])
    assert len(cat) == 3
    assert [b.tolist() for b in baskets] == [[0, 1], [1, 2]]
    assert baskets.source_ids.tolist() == ["10", "11"]
    assert (stats.baskets_dropped_small, stats.products_dropped_empty_title,
            stats.rows_skipped) == (2, 1, 0)


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
        assert np.array_equal(x, y)


def _reference_canonical(paths):
    """The per-line canonical reader that `import_dataset` replaced, kept as its reference:
    (external ids, [(source id, sorted ids)], stats), or None for zero usable baskets."""
    def lines(path):
        return path.read_bytes().decode("utf-8").splitlines()

    titles, skipped = {}, 0
    if len(paths) == 2:
        for line in lines(paths[0]):
            if not line.strip():
                continue
            if "\t" not in line:
                skipped += 1
                continue
            ext, title = line.split("\t", 1)
            titles[ext] = title
    transactions = []
    for i, line in enumerate(lines(paths[-1])):
        members = line.split()
        if not members:
            continue
        if len(paths) == 2:
            if [m for m in members if m not in titles]:
                skipped += 1
                continue
        else:
            for m in members:
                titles.setdefault(m, m)
        transactions.append((f"b{i}", members))
    keep = {}
    for ext, title in titles.items():
        if title.strip():
            keep[ext] = len(keep)
    stats = IngestStats(rows_skipped=skipped,
                        products_dropped_empty_title=len(titles) - len(keep))
    baskets = []
    for source_id, members in transactions:
        ids = sorted({keep[m] for m in members if m in keep})
        if len(ids) < 2:
            stats.baskets_dropped_small += 1
            continue
        baskets.append((source_id, ids))
    return (list(keep), baskets, stats) if baskets else None


_IDS = ["p0", "p1", "p2", "p3", "p4", "p5"]
_TITLED_LINES = st.one_of(
    st.tuples(st.sampled_from(_IDS), st.sampled_from(["tea", "green tea", "", "  ", "rye 9"]))
    .map("\t".join),
    st.sampled_from(["", "   ", "no-tab"]))
_BASKET_LINES = st.one_of(
    st.lists(st.sampled_from(_IDS + ["pX"]), max_size=6).map(" ".join),
    st.lists(st.sampled_from(_IDS), min_size=1, max_size=6).map("\t ".join),
    st.sampled_from(["", "  "]))


@settings(max_examples=150, deadline=None)
@given(st.lists(_TITLED_LINES, max_size=10), st.lists(_BASKET_LINES, max_size=12),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_import_dataset_matches_reference_reader(tmp_path_factory, catalog_lines, basket_lines,
                                                 newline, with_catalog):
    """Blank lines, CRLF, repeated members, unknown ids (line skipped and counted),
    blank-title products (member dropped, line kept), single-member baskets and
    repeated catalog ids: CSR arrays, source ids and stats equal the reference's."""
    d = tmp_path_factory.mktemp("canonical")
    (d / "catalog.tsv").write_bytes(newline.join(catalog_lines + [""]).encode())
    (d / "baskets.txt").write_bytes(newline.join(basket_lines + [""]).encode())
    paths = [d / "catalog.tsv", d / "baskets.txt"][0 if with_catalog else 1:]
    want = _reference_canonical(paths)
    if want is None:
        with pytest.raises(CorpusError, match="zero usable baskets"):
            import_dataset("canonical", paths)
        return
    catalog, baskets, stats = import_dataset("canonical", paths)
    ext, rows, want_stats = want
    assert catalog.external_ids() == ext
    assert baskets.source_ids.tolist() == [s for s, _ in rows]
    assert baskets.indptr.tolist() == np.cumsum([0] + [len(ids) for _, ids in rows]).tolist()
    assert baskets.indices.tolist() == [i for _, ids in rows for i in ids]
    assert baskets.indptr.dtype == baskets.indices.dtype == np.int64
    assert stats == want_stats


def _reference_transactions(groups):
    keys = sorted(groups)
    lens = np.array([len(groups[k]) for k in keys], dtype=np.int64)
    return [m for k in keys for m in groups[k]], lens, np.array(keys, dtype=object)


def _reference_single_line(titles):
    breaks = dict.fromkeys(map(ord, "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"), " ")
    return {ext: title.translate(breaks) for ext, title in titles.items()}


def _reference_onlineretail(paths):
    """The OnlineRetail reader with its own row loop that the shared CSV reader replaced,
    kept as its reference: it returns what `import_dataset` builds from."""
    if len(paths) != 1:
        raise CorpusError("onlineretail format takes exactly 1 CSV path")
    titles, groups, skipped = {}, {}, 0
    with paths[0].open(encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CorpusError("empty CSV")
        inv = corpus._find_column(header, "invoice")
        stock = corpus._find_column(header, "stockcode", "stock")
        desc = corpus._find_column(header, "description")
        if inv is None or stock is None or desc is None:
            raise CorpusError("onlineretail CSV must have invoice/stockcode/description columns")
        width = max(inv, stock, desc) + 1
        for row in reader:
            if len(row) < width or not row[inv].strip() or len(row[stock].split()) != 1:
                skipped += 1
                continue
            ext = row[stock].strip()
            titles.setdefault(ext, row[desc].strip())
            groups.setdefault(row[inv].strip(), set()).add(ext)
    return _reference_single_line(titles), *_reference_transactions(groups), skipped


def _reference_instacart(paths):
    """The Instacart reader with its own row loops that the shared CSV reader replaced,
    kept as its reference: products files are read whole before any order file."""
    if len(paths) < 2:
        raise CorpusError("instacart format needs products.csv plus >=1 order_products CSV")
    titles, groups, skipped = {}, {}, 0
    product_files, order_files = [], []
    for p in paths:
        with p.open(encoding="utf-8", errors="replace", newline="") as fh:
            header = next(csv.reader(fh), [])
        if corpus._find_column(header, "productname") is not None:
            product_files.append(p)
        elif corpus._find_column(header, "orderid") is not None:
            order_files.append(p)
        else:
            raise CorpusError(f"unrecognized instacart CSV header in {p}")
    if not product_files or not order_files:
        raise CorpusError("instacart format needs both a products file and order files")
    for p in product_files:
        with p.open(encoding="utf-8", errors="replace", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            pid = corpus._find_column(header, "productid")
            name = corpus._find_column(header, "productname")
            if pid is None:
                raise CorpusError(f"{p}: instacart CSV has no product_id column")
            for row in reader:
                if len(row) <= max(pid, name) or len(row[pid].split()) != 1:
                    skipped += 1
                    continue
                titles.setdefault(row[pid].strip(), row[name].strip())
    for p in order_files:
        with p.open(encoding="utf-8", errors="replace", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            oid = corpus._find_column(header, "orderid")
            pid = corpus._find_column(header, "productid")
            if pid is None:
                raise CorpusError(f"{p}: instacart CSV has no product_id column")
            for row in reader:
                if (len(row) <= max(oid, pid) or not row[oid].strip()
                        or len(row[pid].split()) != 1):
                    skipped += 1
                    continue
                members = groups.setdefault(row[oid].strip(), set())
                if row[pid].strip() in titles:
                    members.add(row[pid].strip())
    return _reference_single_line(titles), *_reference_transactions(groups), skipped


@st.composite
def _csv_rows(draw, good: dict, bad: dict, extras: list):
    """A CSV file's rows: a header of `good`'s column names and some `extras` in any order,
    then rows of `good` values mixed with rows that may take `bad` values or be cut short."""
    header = draw(st.permutations([*good, *draw(st.lists(st.sampled_from(extras), unique=True))]))

    def rows(bad_too, cuts, **size):
        return st.lists(st.tuples(st.fixed_dictionaries(
            {c: st.sampled_from(good[c] + (bad[c] if bad_too else [])) for c in good}),
            st.sampled_from(cuts)), **size)
    mixed = draw(rows(False, [None], min_size=2, max_size=12)) + draw(
        rows(True, [None, *range(len(header))], max_size=6))
    return [header] + [[values.get(c, "7") for c in header][:cut]
                       for values, cut in draw(st.permutations(mixed))]


# Values of kept rows, and the values that get a row skipped: blank invoices and order
# ids, and ids that are not one token. A blank title keeps its row but drops its product.
_KEY, _BAD_KEY = ["1", "2", "3"], ["", " "]
_PID, _BAD_PID = ["1", "2", "3", " 4 "], ["1 2", "", "\t"]
_NAME = ["red tea", "Green\nTea", "tea\r\nbag", "rye 9", "", "  "]
_RETAIL = st.tuples(st.just("onlineretail"), st.lists(_csv_rows(
    {"InvoiceNo": _KEY, "StockCode": _PID, "Description": _NAME},
    {"InvoiceNo": _BAD_KEY, "StockCode": _BAD_PID, "Description": []},
    ["Quantity", "Country"]), min_size=1, max_size=1))
# Products files and order files in any order; an order product without a title (9 never
# has one) leaves its order, which may be left empty.
_INSTACART = st.tuples(st.just("instacart"), st.tuples(
    st.lists(_csv_rows({"product_id": _PID, "product_name": _NAME},
                       {"product_id": _BAD_PID, "product_name": []}, ["aisle_id"]),
             min_size=1, max_size=2),
    st.lists(_csv_rows({"order_id": _KEY, "product_id": _PID + ["9"]},
                       {"order_id": _BAD_KEY, "product_id": _BAD_PID},
                       ["add_to_cart_order", "reordered"]), min_size=1, max_size=2),
).flatmap(lambda files: st.permutations(files[0] + files[1])))


def _ingest_result(fmt, paths):
    """What `import_dataset` gives: catalog columns, CSR arrays, source ids and stats,
    or the message of the `CorpusError` it raises."""
    try:
        catalog, baskets, stats = import_dataset(fmt, paths)
    except CorpusError as exc:
        return str(exc)
    assert baskets.indptr.dtype == baskets.indices.dtype == np.int64
    return (catalog.ids, catalog.titles, baskets.indptr.tolist(), baskets.indices.tolist(),
            baskets.source_ids.tolist(), stats)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_RETAIL, _INSTACART), st.sampled_from(["\n", "\r\n"]))
@example(("instacart", [[["order_id", "product_id"], ["1", "1"], ["1", "2"], ["1", "9"],
                         ["2", "9"], ["2", "1 2"], ["", "2"]],
                        [["product_name", "aisle_id", "product_id"], ["red tea", "7", "1"],
                         ["Green\nTea", "7", "2"], ["rye", "7", "2"], ["tea", "7"]]]), "\n")
@example(("onlineretail", [[["Description", "InvoiceNo", "Quantity", "StockCode"],
                            ["tea\r\nbag", "1", "6", "A"], ["red tea", "1", "6", " B "],
                            ["other", "1", "6", "A"], ["x", "2", "6", "A 1"], ["x", " "],
                            ["y", "", "6", "C"]]]), "\r\n")
def test_csv_ingest_matches_reference_readers(tmp_path_factory, fmt_files, newline):
    """Reordered and extra columns, short rows, blank invoices and order ids, ids holding
    whitespace, repeated ids with other titles, line breaks in quoted titles, order
    products without a title, orders left empty and Instacart files in either order:
    catalog columns, CSR arrays, source ids and stats equal the reference readers'."""
    fmt, files = fmt_files
    d = tmp_path_factory.mktemp("csv")
    paths = [d / f"f{i}.csv" for i in range(len(files))]
    for path, rows in zip(paths, files):
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator=newline).writerows(rows)
    reference = {"onlineretail": _reference_onlineretail, "instacart": _reference_instacart}
    with mock.patch.object(corpus, f"_read_{fmt}", reference[fmt]):
        want = _ingest_result(fmt, paths)
    assert _ingest_result(fmt, paths) == want


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def _products_in(baskets):
    return set(baskets.indices.tolist())


def test_split_warm_invariant_small(tiny_baskets):
    sp = split_warm(tiny_baskets, ratios=(0.6, 0.2, 0.2), seed=1)
    train_products = _products_in(sp.train)
    for b in [*sp.test, *sp.validation]:
        for p in b:
            assert int(p) in train_products


def test_split_warm_partition_disjoint():
    _, baskets = make_random_corpus(30, 200, seed=2)
    sp = split_warm(baskets, seed=0)
    ids = [s for part in (sp.train, sp.validation, sp.test) for s in part.source_ids]
    assert len(ids) == len(set(ids))


def test_split_warm_deterministic():
    _, baskets = make_random_corpus(30, 200, seed=2)
    a = split_warm(baskets, seed=5)
    b = split_warm(baskets, seed=5)
    for xs, ys in ((a.train, b.train), (a.validation, b.validation), (a.test, b.test)):
        assert xs.source_ids.tolist() == ys.source_ids.tolist()


def test_split_warm_removal_matches_set_difference_oracle():
    _, baskets = make_random_corpus(40, 1000, seed=9)
    sp = split_warm(baskets, seed=3)
    # brute-force: which products of the raw partition's test baskets are not in training?
    train_products = _products_in(sp.train)
    for b in sp.test:
        assert set(b.tolist()) <= train_products


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
            assert xs.source_ids.tolist() == ys.source_ids.tolist()
            for x, y in ((xs.indptr, ys.indptr), (xs.indices, ys.indices)):
                assert np.array_equal(x, y) and x.dtype == y.dtype == np.int64


@pytest.mark.parametrize("part", ["train", "test"], ids=["same-part", "two-parts"])
def test_manifest_basket_listed_twice_fatal(tmp_path, part):
    """A basket named twice would be trained or evaluated on twice."""
    cat, baskets = make_random_corpus(30, 200, seed=0)
    sp = split_warm(baskets, seed=0)
    path = tmp_path / "warm.manifest"
    save_split_manifest(sp, cat, path)
    lines = path.read_text().splitlines()
    dup = sp.train.source_ids[0]
    path.write_text("\n".join(lines + [f"{part}\t{dup}"]) + "\n")
    with pytest.raises(CorpusError, match=f"warm.manifest:{len(lines) + 1}: basket "
                                          f"'{dup}' listed twice"):
        load_split_manifest(path, cat, baskets)


@pytest.mark.parametrize("bad, message", [
    ("train\tnope", "manifest references unknown basket 'nope'"),
    ("test\t{dup}", "basket '{dup}' listed twice"),
    ("testproduct\tnope", "manifest references unknown product 'nope'"),
    ("trian\t{dup}", "bad manifest line: 'trian\\t{dup}'"),
    ("", "bad manifest line: ''"),
    ("seed\tabc", "split seed must be an integer, got 'abc'"),
], ids=["unknown-basket", "listed-twice", "unknown-product", "bad-line", "blank-line",
        "bad-seed"])
def test_manifest_error_names_first_bad_line(tmp_path, bad, message):
    """Each bad line raises a `CorpusError` with its line number, and the first bad line
    of the file wins over a later one of another kind."""
    cat, baskets = make_random_corpus(30, 200, seed=0)
    sp = split_warm(baskets, seed=0)
    path = tmp_path / "warm.manifest"
    save_split_manifest(sp, cat, path)
    lines = path.read_text().splitlines()
    dup = sp.train.source_ids[0]
    at = 5  # 1-based line number of the bad line, among the train lines
    later = ["train\tlater-bad", "later-bad-line"]  # one bad line of each family after it
    lines = lines[:at - 1] + [bad.format(dup=dup)] + lines[at - 1:] + later
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError) as err:
        load_split_manifest(path, cat, baskets)
    assert str(err.value) == f"{path}:{at}: {message.format(dup=dup)}"


def _bad_tensor_state():
    state = init_model(ModelConfig(k=2, epochs=1), build_vocabulary(_two_product_catalog()))
    state.params_c.W = np.array([["not a number"]])  # fails after the header is written
    return state


def _two_product_catalog():
    return Catalog(["a", "b"], ["red tea", "green tea"])


def _manifest_with_unknown_test_product(path):
    sp = split_warm(make_baskets(*[[0, 1]] * 20), seed=0)
    sp.test_product_ids = {7}  # no external id: fails after the basket lines are written
    save_split_manifest(sp, _two_product_catalog(), path)


def _raise_midway(path):
    with atomic_write(path) as fh:
        fh.write("new, partial\n")
        raise RuntimeError("interrupted")


@pytest.mark.parametrize("write", [
    _raise_midway,
    _manifest_with_unknown_test_product,
    lambda path: save_model(_bad_tensor_state(), path),
], ids=["atomic_write", "save_split_manifest", "save_model"])
def test_interrupted_write_keeps_old_file(tmp_path, write):
    """A write that raises midway leaves the old file intact and no temporary file."""
    path = tmp_path / "artifact"
    path.write_bytes(b"old contents\n")
    with pytest.raises((RuntimeError, IndexError, ValueError)):
        write(path)
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


# ---------------------------------------------------------------------------
# Leave-one-out cases
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True),
                min_size=1, max_size=8),
       st.data())
def test_leave_one_out_matches_per_basket_delete(members, data):
    baskets = make_baskets(*members)
    rows_of = list(baskets)
    slots = [(r, k) for r, b in enumerate(rows_of) for k in range(len(b))]
    pos = np.array(data.draw(st.lists(st.integers(0, len(slots) - 1), max_size=20)),
                   dtype=np.int64)
    held, ctx_flat, ctx_lens, rows = leave_one_out(baskets.indptr, baskets.indices, pos)
    expected = [slots[p] for p in pos]
    assert rows.tolist() == [r for r, _ in expected]
    assert held.tolist() == [int(rows_of[r][k]) for r, k in expected]
    contexts = [np.delete(rows_of[r], k) for r, k in expected]
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
    for b in [*sp.validation, *sp.test]:
        assert len(b) >= 2
        assert set(b.tolist()) <= train_products
