"""Corpus ingestion, vocabulary building, dataset splitting, and leave-one-out cases.

Raw transaction data (OnlineRetail-style CSV, Instacart relational CSVs, or the
canonical tab/space-separated text formats) is normalized into a `Catalog` of
products with dense ids plus a list of `Basket`s. Splitting supports a warm-start
mode (every test product seen in training) and a cold-start mode (held-out test
products never seen in training).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(title: str) -> list[str]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(title.lower())


@dataclass
class Product:
    id: int
    external_id: str
    title: str
    tokens: list[str]


@dataclass
class Basket:
    product_ids: np.ndarray  # sorted, unique dense ids
    source_id: str

    def __len__(self) -> int:
        return len(self.product_ids)


class Catalog:
    """Dense-id product catalog. Ids are contiguous 0..M-1 in insertion order."""

    def __init__(self):
        self.products: list[Product] = []
        self._by_external: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.products)

    def add(self, external_id: str, title: str) -> int:
        if external_id in self._by_external:
            return self._by_external[external_id]
        pid = len(self.products)
        self.products.append(Product(pid, external_id, title, tokenize(title)))
        self._by_external[external_id] = pid
        return pid

    def get(self, external_id: str) -> int | None:
        return self._by_external.get(external_id)

    def external_ids(self) -> list[str]:
        return [p.external_id for p in self.products]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for p in self.products:
            h.update(p.external_id.encode())
            h.update(b"\t")
            h.update(p.title.encode())
            h.update(b"\n")
        return h.hexdigest()


@dataclass
class Vocabulary:
    """Token vocabulary with contiguous indices 0..V-1; the UNK index is V."""

    word_to_index: dict[str, int]
    counts: np.ndarray  # (V,), every entry >= min_count
    min_count: int

    @property
    def size(self) -> int:
        return len(self.word_to_index)

    @property
    def unk_index(self) -> int:
        return self.size

    def encode(self, tokens: list[str]) -> np.ndarray:
        unk = self.unk_index
        return np.array([self.word_to_index.get(t, unk) for t in tokens], dtype=np.int64)

    def words(self) -> list[str]:
        out = [""] * self.size
        for w, i in self.word_to_index.items():
            out[i] = w
        return out


@dataclass
class DatasetSplit:
    train: list[Basket]
    validation: list[Basket]
    test: list[Basket]
    mode: str  # "warm" or "cold"
    seed: int
    test_product_ids: set[int] = field(default_factory=set)  # cold mode only


@dataclass
class IngestStats:
    baskets_kept: int = 0
    baskets_dropped_small: int = 0
    products_dropped_empty_title: int = 0
    rows_skipped: int = 0


class CorpusError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def import_dataset(fmt: str, paths: list[str | Path]) -> tuple[Catalog, list[Basket], IngestStats]:
    """Parse raw files into a catalog plus baskets.

    Duplicate products within one transaction collapse to a set; baskets that end
    up with fewer than 2 products and products with empty titles are dropped, with
    the counts reported in `IngestStats`.
    """
    paths = [Path(p) for p in paths]
    for p in paths:
        if not p.is_file():
            raise CorpusError(f"input file not found: {p}" if not p.exists()
                              else f"input path is not a file: {p}")
    if fmt == "canonical":
        raw = _read_canonical(paths)
    elif fmt == "onlineretail":
        raw = _read_onlineretail(paths)
    elif fmt == "instacart":
        raw = _read_instacart(paths)
    else:
        raise CorpusError(f"unknown dataset format: {fmt!r}")

    titles, transactions, skipped = raw
    catalog, dropped = _catalog_from_titles(titles)
    stats = IngestStats(rows_skipped=skipped, products_dropped_empty_title=dropped)
    keep = catalog._by_external
    baskets: list[Basket] = []
    for source_id, members in transactions:
        ids = sorted({keep[m] for m in members if m in keep})
        if len(ids) < 2:
            stats.baskets_dropped_small += 1
            continue
        baskets.append(Basket(np.array(ids, dtype=np.int64), source_id))
    stats.baskets_kept = len(baskets)
    if not baskets:
        raise CorpusError("zero usable baskets after ingestion")
    return catalog, baskets, stats


def read_catalog(path) -> Catalog:
    """The catalog of a canonical `catalog.tsv`, exactly as `import_dataset` builds it.

    Reads no baskets file, so a query needs only the catalog and the model.
    """
    return _catalog_from_titles(_read_titles(Path(path))[0])[0]


def _catalog_from_titles(titles: dict[str, str]) -> tuple[Catalog, int]:
    """Products in title order, without those whose title is blank (their count is returned)."""
    catalog = Catalog()
    dropped = 0
    for ext, title in titles.items():
        if title.strip():
            catalog.add(ext, title)
        else:
            dropped += 1
    return catalog, dropped


def _read_lines(path: Path, error: type[Exception] = CorpusError) -> list[str]:
    """The lines of a UTF-8 text file; an unreadable or undecodable file raises `error`."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read file: {exc.strerror}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: invalid UTF-8") from None
    return text.splitlines()


def _read_titles(path: Path) -> tuple[dict[str, str], int]:
    """`externalId<TAB>title` lines as titles by external id, plus the count of lines
    without a tab. Blank lines are skipped; a repeated id keeps its first position
    and takes its last title."""
    titles: dict[str, str] = {}
    skipped = 0
    for line in _read_lines(path):
        if not line.strip():
            continue
        if "\t" not in line:
            skipped += 1
            continue
        ext, title = line.split("\t", 1)
        titles[ext] = title
    return titles, skipped


def _read_canonical(paths: list[Path]):
    """One or two files: [baskets] or [catalog, baskets].

    The catalog file has one `externalId<TAB>title` per line. The baskets file has
    one basket per line as space-separated externalIds. Without a catalog file,
    titles default to the external id itself.
    """
    if len(paths) == 1:
        catalog_path, baskets_path = None, paths[0]
    elif len(paths) == 2:
        catalog_path, baskets_path = paths
    else:
        raise CorpusError("canonical format takes 1 (baskets) or 2 (catalog, baskets) paths")

    titles: dict[str, str] = {}
    skipped = 0
    if catalog_path is not None:
        titles, skipped = _read_titles(catalog_path)
    transactions = []
    for i, line in enumerate(_read_lines(baskets_path)):
        members = line.split()
        if not members:
            continue
        if catalog_path is not None:
            unknown = [m for m in members if m not in titles]
            if unknown:
                skipped += 1
                continue
        else:
            for m in members:
                titles.setdefault(m, m)
        transactions.append((f"b{i}", members))
    return titles, transactions, skipped


def _find_column(header: list[str], *needles: str) -> int | None:
    lowered = [c.strip().lower().replace("_", "").replace(" ", "") for c in header]
    for needle in needles:
        for i, col in enumerate(lowered):
            if needle in col:
                return i
    return None


def _read_onlineretail(paths: list[Path]):
    """Transaction CSV with invoice / stock code / description columns."""
    if len(paths) != 1:
        raise CorpusError("onlineretail format takes exactly 1 CSV path")
    titles: dict[str, str] = {}
    groups: dict[str, set[str]] = {}
    skipped = 0
    with paths[0].open(encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CorpusError("empty CSV")
        inv = _find_column(header, "invoice")
        stock = _find_column(header, "stockcode", "stock")
        desc = _find_column(header, "description")
        if inv is None or stock is None or desc is None:
            raise CorpusError("onlineretail CSV must have invoice/stockcode/description columns")
        width = max(inv, stock, desc) + 1
        for row in reader:
            if len(row) < width or not row[inv].strip() or not row[stock].strip():
                skipped += 1
                continue
            ext = row[stock].strip()
            titles.setdefault(ext, row[desc].strip())
            groups.setdefault(row[inv].strip(), set()).add(ext)
    transactions = [(invoice, sorted(members)) for invoice, members in sorted(groups.items())]
    return titles, transactions, skipped


def _read_instacart(paths: list[Path]):
    """`products.csv` (product_id, product_name) + one or more order_products CSVs."""
    if len(paths) < 2:
        raise CorpusError("instacart format needs products.csv plus >=1 order_products CSV")
    titles: dict[str, str] = {}
    groups: dict[str, set[str]] = {}
    skipped = 0
    product_files, order_files = [], []
    for p in paths:
        with p.open(encoding="utf-8", errors="replace", newline="") as fh:
            header = next(csv.reader(fh), [])
        if _find_column(header, "productname") is not None:
            product_files.append(p)
        elif _find_column(header, "orderid") is not None:
            order_files.append(p)
        else:
            raise CorpusError(f"unrecognized instacart CSV header in {p}")
    if not product_files or not order_files:
        raise CorpusError("instacart format needs both a products file and order files")

    for p in product_files:
        with p.open(encoding="utf-8", errors="replace", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            pid = _find_column(header, "productid")
            name = _find_column(header, "productname")
            for row in reader:
                if len(row) <= max(pid, name) or not row[pid].strip():
                    skipped += 1
                    continue
                titles.setdefault(row[pid].strip(), row[name].strip())
    for p in order_files:
        with p.open(encoding="utf-8", errors="replace", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            oid = _find_column(header, "orderid")
            pid = _find_column(header, "productid")
            for row in reader:
                if len(row) <= max(oid, pid) or not row[oid].strip() or not row[pid].strip():
                    skipped += 1
                    continue
                groups.setdefault(row[oid].strip(), set()).add(row[pid].strip())
    transactions = [(oid, sorted(members)) for oid, members in sorted(groups.items())]
    return titles, transactions, skipped


def write_canonical(catalog: Catalog, baskets: list[Basket], catalog_path, baskets_path) -> None:
    """Serialize to the canonical two-file format (round-trips through import_dataset)."""
    with open(catalog_path, "w", encoding="utf-8") as fh:
        for p in catalog.products:
            fh.write(f"{p.external_id}\t{p.title}\n")
    ext = catalog.external_ids()
    with open(baskets_path, "w", encoding="utf-8") as fh:
        for b in baskets:
            fh.write(" ".join(ext[i] for i in b.product_ids) + "\n")


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

def build_vocabulary(catalog: Catalog, min_count: int = 1) -> Vocabulary:
    """Count title tokens and keep those with count >= min_count; the rest map to UNK."""
    if len(catalog) == 0:
        raise CorpusError("cannot build vocabulary from an empty catalog")
    counts: dict[str, int] = {}
    for p in catalog.products:
        for t in p.tokens:
            counts[t] = counts.get(t, 0) + 1
    kept = sorted(w for w, c in counts.items() if c >= min_count)
    if not kept:
        raise CorpusError(f"vocabulary is empty at min_count={min_count}")
    word_to_index = {w: i for i, w in enumerate(kept)}
    return Vocabulary(word_to_index, np.array([counts[w] for w in kept], dtype=np.int64), min_count)


def title_matrix(token_lists, vocab_size: int) -> np.ndarray:
    """(n, L) int64 title matrix: row p holds title p's token ids left-aligned, L the longest.

    UNK = V counts toward a title's length; the PAD = V + 1 that fills the row does not."""
    lens = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    out = np.full((len(lens), lens.max(initial=0)), vocab_size + 1, dtype=np.int64)
    out[np.arange(out.shape[1]) < lens[:, None]] = np.fromiter(
        itertools.chain.from_iterable(token_lists), dtype=np.int64, count=int(lens.sum()))
    return out


def encode_catalog(catalog: Catalog, vocab: Vocabulary) -> np.ndarray:
    """The catalog's title matrix, with out-of-vocabulary tokens mapped to UNK."""
    index, unk = vocab.word_to_index, vocab.unk_index  # `vocab.encode` per title is 1.5x slower
    return title_matrix([[index.get(t, unk) for t in p.tokens] for p in catalog.products],
                        vocab.size)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _partition(baskets: list[Basket], ratios, seed: int) -> tuple[list[Basket], list[Basket], list[Basket]]:
    if len(ratios) != 3 or min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"split ratios must be 3 nonnegative numbers summing to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(baskets))
    n_train = int(round(ratios[0] * len(baskets)))
    n_val = int(round(ratios[1] * len(baskets)))
    tr = [baskets[i] for i in perm[:n_train]]
    va = [baskets[i] for i in perm[n_train:n_train + n_val]]
    te = [baskets[i] for i in perm[n_train + n_val:]]
    return tr, va, te


def _product_mask(baskets: list[Basket], num_products: int) -> np.ndarray:
    """Boolean mask over product ids: True for every product occurring in `baskets`."""
    mask = np.zeros(num_products, dtype=bool)
    mask[basket_csr(baskets)[1]] = True
    return mask


def _filter_to(baskets: list[Basket], allowed: np.ndarray) -> list[Basket]:
    """Remove products outside the boolean mask `allowed`; drop baskets reduced below size 2."""
    kept = []
    for b in baskets:
        ids = b.product_ids[allowed[b.product_ids]]
        if len(ids) >= 2:
            kept.append(Basket(ids, b.source_id))
    return kept


def _apply_split_filters(mode: str, train: list[Basket], validation: list[Basket],
                         test: list[Basket], cold, num_products: int):
    """The one filtering rule of a split, applied to its raw basket partition.

    Warm: validation and test keep only products seen in training. Cold: training
    loses the held-out `cold` products, then validation keeps only products left in
    training, and test stays whole. Returns the filtered (train, validation, test).
    """
    if mode == "warm":
        seen = _product_mask(train, num_products)
        return train, _filter_to(validation, seen), _filter_to(test, seen)
    allowed = np.ones(num_products, dtype=bool)
    allowed[np.array(list(cold), dtype=np.int64)] = False
    train = _filter_to(train, allowed)
    return train, _filter_to(validation, _product_mask(train, num_products)), test


def _num_products(baskets: list[Basket]) -> int:
    return int(basket_csr(baskets)[1].max()) + 1


def split_warm(baskets: list[Basket], ratios=(0.85, 0.05, 0.10), seed: int = 0) -> DatasetSplit:
    """Random basket partition; validation/test baskets keep only products seen in training."""
    tr, va, te = _partition(baskets, ratios, seed)
    if not tr or not te:
        raise CorpusError("warm split produced an empty train or test set")
    tr, va, te = _apply_split_filters("warm", tr, va, te, (), _num_products(baskets))
    return DatasetSplit(tr, va, te, "warm", seed)


def split_cold(baskets: list[Basket], ratios=(0.85, 0.05, 0.10),
               test_product_fraction: float = 0.10, seed: int = 0) -> DatasetSplit:
    """Hold a fraction of test-basket products out of training entirely.

    Test products are chosen uniformly at random among the distinct products
    occurring in test baskets and removed from every training basket; validation
    is then filtered warm-style against the reduced training set.
    """
    if not 0.0 < test_product_fraction <= 1.0:
        raise CorpusError(
            f"cold test-product fraction must lie in (0, 1], got {test_product_fraction}")
    tr, va, te = _partition(baskets, ratios, seed)
    if not tr or not te:
        raise CorpusError("cold split produced an empty train or test set")
    rng = np.random.default_rng(seed + 1)
    num_products = _num_products(baskets)
    test_products = np.flatnonzero(_product_mask(te, num_products))
    n_cold = int(round(test_product_fraction * len(test_products)))
    if n_cold < 10:
        raise CorpusError(
            f"degenerate cold split: only {n_cold} test products would be held out")
    cold = set(rng.choice(test_products, size=n_cold, replace=False).tolist())
    tr, va, te = _apply_split_filters("cold", tr, va, te, cold, num_products)
    return DatasetSplit(tr, va, te, "cold", seed, test_product_ids=cold)


def save_split_manifest(split: DatasetSplit, catalog: Catalog, path) -> None:
    """Text manifest of sourceIds per split (plus mode/seed/cold products) for bit-exact reload."""
    ext = catalog.external_ids()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"mode\t{split.mode}\n")
        fh.write(f"seed\t{split.seed}\n")
        for name, part in (("train", split.train), ("validation", split.validation),
                           ("test", split.test)):
            for b in part:
                fh.write(f"{name}\t{b.source_id}\n")
        for pid in sorted(split.test_product_ids):
            fh.write(f"testproduct\t{ext[pid]}\n")


def load_split_manifest(path, catalog: Catalog, baskets: list[Basket]) -> DatasetSplit:
    """Rebuild a split from its manifest by reapplying the deterministic filtering."""
    path = Path(path)
    by_source = {b.source_id: b for b in baskets}
    mode, seed = "warm", 0
    parts: dict[str, list[Basket]] = {"train": [], "validation": [], "test": []}
    cold: set[int] = set()
    listed: set[str] = set()
    for i, line in enumerate(_read_lines(path), 1):
        key, _, value = line.partition("\t")
        if key in parts:
            if value not in by_source:
                raise CorpusError(f"{path}:{i}: manifest references unknown basket {value!r}")
            if value in listed:
                raise CorpusError(f"{path}:{i}: basket {value!r} listed twice")
            listed.add(value)
            parts[key].append(by_source[value])
        elif key == "testproduct":
            pid = catalog.get(value)
            if pid is None:
                raise CorpusError(f"{path}:{i}: manifest references unknown product {value!r}")
            cold.add(pid)
        elif key == "mode" and value in ("warm", "cold"):
            mode = value
        elif key == "seed":
            try:
                seed = int(value)
            except ValueError:
                raise CorpusError(f"{path}:{i}: split seed must be an integer, got {value!r}") from None
        else:
            raise CorpusError(f"{path}:{i}: bad manifest line: {line!r}")
    tr, va, te = _apply_split_filters(mode, parts["train"], parts["validation"], parts["test"],
                                      cold, len(catalog))
    return DatasetSplit(tr, va, te, mode, seed,
                        test_product_ids=cold if mode == "cold" else set())


# ---------------------------------------------------------------------------
# Baskets as CSR arrays and leave-one-out cases
# ---------------------------------------------------------------------------

def basket_csr(baskets: list[Basket]) -> tuple[np.ndarray, np.ndarray]:
    """Baskets as CSR arrays: basket r's members are `indices[indptr[r]:indptr[r + 1]]`."""
    lens = np.array([len(b.product_ids) for b in baskets], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(lens)])
    indices = np.concatenate([np.zeros(0, dtype=np.int64)] + [b.product_ids for b in baskets])
    return indptr, indices


def leave_one_out(indptr: np.ndarray, indices: np.ndarray, pos: np.ndarray):
    """Hold out the member at each flat position `pos[i]`; the rest of its basket,
    in member order, is case i's context.

    Returns `(held, ctx_flat, ctx_lens, rows)`: the held-out ids, the contexts
    concatenated in case order, each context's length and each case's basket row.
    """
    rows = np.searchsorted(indptr, pos, side="right") - 1
    starts = indptr[rows]
    ctx_lens = indptr[rows + 1] - starts - 1
    case = np.repeat(np.arange(len(pos)), ctx_lens)
    slot = np.arange(int(ctx_lens.sum())) - np.repeat(np.cumsum(ctx_lens) - ctx_lens, ctx_lens)
    src = starts[case] + slot + (slot >= (pos - starts)[case])
    return indices[pos], indices[src], ctx_lens, rows
