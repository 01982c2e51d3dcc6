"""Corpus ingestion, vocabulary building, dataset splitting, and leave-one-out cases.

Raw transaction data (OnlineRetail-style CSV, Instacart relational CSVs, or the
canonical tab/space-separated text formats) is normalized into a `Catalog` of
products with dense ids plus `Baskets`: every basket as CSR arrays, basket r's
sorted, unique product ids being `indices[indptr[r]:indptr[r + 1]]` and its
source id `source_ids[r]`. A split's parts are row takes of them. Splitting
supports a warm-start mode (every test product seen in training) and a
cold-start mode (held-out test products never seen in training).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import itertools
import os
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Bytes of lowercase UTF-8 text: ASCII letters and digits stay, every other byte is a space.
_TOKEN_BYTES = bytes(c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32
                     for c in range(256))


def tokenize_titles(titles) -> tuple[list[str], np.ndarray]:
    """Every title's runs of lowercase ASCII letters and digits, in one pass.

    Returns `(tokens, lens)`: the tokens of all titles one after another, and each
    title's token count. Equals `re.findall(r"[a-z0-9]+", title.lower())` per title.
    The titles are scanned as one space-joined byte string; a title ends where its
    encoded length says, so no character is reserved as a separator.
    """
    encoded = list(map(str.encode, map(str.lower, titles)))
    data = b" ".join(encoded).translate(_TOKEN_BYTES)
    ends = np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)) + 1)
    buf = np.frombuffer(data, dtype=np.uint8)
    starts = np.flatnonzero(np.diff((buf > 32).view(np.int8), prepend=np.int8(0)) > 0)
    return data.decode("ascii").split(), np.diff(np.searchsorted(starts, ends), prepend=0)


def tokenize(title: str) -> list[str]:
    """One title's tokens: `tokenize_titles([title])`."""
    return tokenize_titles([title])[0]


@dataclass(frozen=True)
class Product:
    """One catalog row, as `Catalog.products` shows it."""

    id: int
    external_id: str
    title: str

    @property
    def tokens(self) -> list[str]:
        return tokenize(self.title)


@dataclass(frozen=True, eq=False)
class Baskets:
    """Baskets as CSR arrays: basket r's sorted, unique product ids are
    `indices[indptr[r]:indptr[r + 1]]`, and `source_ids[r]` names its source.

    Iterating gives each basket's member array."""

    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # int64
    source_ids: np.ndarray  # (n,) object array of str

    @classmethod
    def from_lists(cls, members, source_ids) -> Baskets:
        """Baskets from one sorted, unique id sequence per basket."""
        return cls(np.concatenate([[0], np.cumsum([len(m) for m in members], dtype=np.int64)]),
                   np.concatenate([np.zeros(0, dtype=np.int64), *members]),
                   np.array(source_ids, dtype=object))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self):
        bounds = self.indptr.tolist()
        return (self.indices[a:b] for a, b in zip(bounds, bounds[1:]))

    def take(self, rows) -> Baskets:
        """The baskets at `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        sizes = np.diff(self.indptr)[rows]
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        flat = np.repeat(self.indptr[rows] - indptr[:-1], sizes) + np.arange(indptr[-1])
        return Baskets(indptr, self.indices[flat], self.source_ids[rows])

    def restrict(self, allowed: np.ndarray) -> Baskets:
        """Only the products in the boolean mask `allowed`; baskets left below size 2 go."""
        keep = allowed[self.indices]
        row = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        sizes = np.bincount(row[keep], minlength=len(self))
        big = sizes >= 2
        return Baskets(np.concatenate([[0], np.cumsum(sizes[big])]),
                       self.indices[keep & big[row]], self.source_ids[big])


class Catalog:
    """Dense-id product catalog built from its two columns: product i has external id
    `ids[i]` and title `titles[i]`, so ids are contiguous 0..M-1 in column order.

    The titles are tokenized on first use, all at once."""

    def __init__(self, ids, titles):
        self.ids: list[str] = list(ids)
        self.titles: list[str] = list(titles)
        self._by_external: dict[str, int] = dict(zip(self.ids, range(len(self.ids))))
        if len(self._by_external) != len(self.ids) or len(self.titles) != len(self.ids):
            raise CorpusError("a catalog needs one title per external id, each id once")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def products(self) -> _Products:
        """A read-only sequence of `Product` rows, each made when it is read."""
        return _Products(self)

    @functools.cached_property
    def tokens(self) -> tuple[list[str], np.ndarray]:
        """`tokenize_titles` of every title."""
        return tokenize_titles(self.titles)

    def get(self, external_id: str) -> int | None:
        return self._by_external.get(external_id)

    def external_ids(self) -> list[str]:
        return list(self.ids)

    def tsv(self) -> str:
        """The `externalId<TAB>title<LF>` lines of `catalog.tsv`, in id order."""
        return "".join(f"{e}\t{t}\n" for e, t in zip(self.ids, self.titles))

    def content_hash(self) -> str:
        return hashlib.sha256(self.tsv().encode()).hexdigest()


class _Products(Sequence):
    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    def __len__(self) -> int:
        return len(self._catalog.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        pid = range(len(self))[i]
        return Product(pid, self._catalog.ids[pid], self._catalog.titles[pid])


@dataclass
class Vocabulary:
    """Token vocabulary with contiguous indices 0..V-1; the UNK index is V."""

    word_to_index: dict[str, int]

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
    train: Baskets
    validation: Baskets
    test: Baskets
    mode: str  # "warm" or "cold"
    seed: int
    test_product_ids: set[int] = field(default_factory=set)  # cold mode only


@dataclass
class IngestStats:
    baskets_dropped_small: int = 0
    products_dropped_empty_title: int = 0
    rows_skipped: int = 0


class CorpusError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def import_dataset(fmt: str, paths: list[str | Path]) -> tuple[Catalog, Baskets, IngestStats]:
    """Parse raw files into a catalog plus baskets.

    Duplicate products within one transaction collapse to a set; baskets that end
    up with fewer than 2 products and products with empty titles are dropped, and
    a canonical basket line naming an id without a catalog line is skipped, with
    the counts reported in `IngestStats`. A CSV row whose product id is blank or
    holds whitespace is skipped and counted, and line breaks in a CSV title become
    spaces, so that the canonical files written from the result read back the same.
    """
    paths = [Path(p) for p in paths]
    for p in paths:
        if not p.is_file():
            raise CorpusError(f"input file not found: {p}" if not p.exists()
                              else f"input path is not a file: {p}")
    readers = {"canonical": _read_canonical, "onlineretail": _read_onlineretail,
               "instacart": _read_instacart}
    if fmt not in readers:
        raise CorpusError(f"unknown dataset format: {fmt!r}")
    titles, members, lens, source_ids, skipped = readers[fmt](paths)
    catalog, dropped = _catalog_from_titles(titles)
    # One lookup per member: its product id, -1 for a blank-title product, -2 for no title.
    lookup = dict.fromkeys(titles, -1)
    lookup.update(catalog._by_external)
    ids = np.fromiter(map(lookup.get, members, itertools.repeat(-2)), dtype=np.int64,
                      count=len(members))
    row = np.repeat(np.arange(len(lens)), lens)
    unknown = np.bincount(row[ids == -2], minlength=len(lens)) > 0
    m = max(len(catalog), 1)
    key = np.sort((row * m + ids)[(ids >= 0) & ~unknown[row]])  # np.unique hashes: 15x slower
    row, ids = np.divmod(key[np.diff(key, prepend=-1) != 0], m)
    baskets = Baskets(np.concatenate([[0], np.cumsum(np.bincount(row, minlength=len(lens)))]),
                      ids, source_ids).restrict(np.ones(m, dtype=bool))
    if not len(baskets):
        raise CorpusError("zero usable baskets after ingestion")
    return catalog, baskets, IngestStats(int((~unknown).sum()) - len(baskets), dropped,
                                         skipped + int(unknown.sum()))


def read_catalog(path) -> Catalog:
    """The catalog of a canonical `catalog.tsv`, exactly as `import_dataset` builds it.

    Reads no baskets file, so a query needs only the catalog and the model.
    """
    return _catalog_from_titles(_read_titles(Path(path))[0])[0]


def _catalog_from_titles(titles: dict[str, str]) -> tuple[Catalog, int]:
    """Products in title order, without those whose title is blank (their count is returned)."""
    keep = list(map(str.strip, titles.values()))  # a blank title strips to ""
    catalog = Catalog(itertools.compress(titles, keep), itertools.compress(titles.values(), keep))
    return catalog, len(titles) - len(catalog)


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
    one basket per line as space-separated externalIds; line i is basket `b{i}`
    and a blank line none. Without a catalog file, titles default to the external
    id itself.
    """
    if len(paths) == 1:
        catalog_path, baskets_path = None, paths[0]
    elif len(paths) == 2:
        catalog_path, baskets_path = paths
    else:
        raise CorpusError("canonical format takes 1 (baskets) or 2 (catalog, baskets) paths")

    titles, skipped = _read_titles(catalog_path) if catalog_path is not None else ({}, 0)
    rows = [line.split() for line in _read_lines(baskets_path)]
    members = list(itertools.chain.from_iterable(rows))
    if catalog_path is None:
        titles = dict(zip(members, members))
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    source_ids = np.array([f"b{i}" for i in np.flatnonzero(lens).tolist()], dtype=object)
    return titles, members, lens[lens > 0], source_ids, skipped


def _find_column(header: list[str], *needles: str) -> int | None:
    lowered = [c.strip().lower().replace("_", "").replace(" ", "") for c in header]
    for needle in needles:
        for i, col in enumerate(lowered):
            if needle in col:
                return i
    return None


def _csv_rows(path: Path):
    """The rows of a CSV file, header first, read as UTF-8 with each undecodable byte
    as U+FFFD. A record csv cannot parse raises `CorpusError` naming the line it starts on."""
    with path.open(encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        line = 1
        try:
            for row in reader:
                yield row
                line = reader.line_num + 1
        except csv.Error as exc:
            raise CorpusError(f"{path}:{line}: malformed CSV: {exc}") from None


# Every line break `str.splitlines` knows.
_LINE_BREAKS = dict.fromkeys(map(ord, "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"), " ")


def _csv_transactions(files):
    """The one row loop of the CSV formats, over `(rows, id, title, key)` per file: `rows`
    iterates the file's rows after its header, and the other three are column indices,
    `title` or `key` None where the file has no such column.

    A row is skipped and counted when it is too short for its columns, its basket key is
    blank, or its id is not exactly one whitespace-free token. An id takes its first
    title, with each line break a space so that the title stays on its `catalog.tsv`
    line. Baskets come in sorted key order, and a member without a title leaves its basket.
    """
    titles: dict[str, str] = {}
    groups: dict[str, set[str]] = {}
    skipped = 0
    for rows, pid, title, key in files:
        width = max(c for c in (pid, title, key) if c is not None) + 1
        for row in rows:
            if (len(row) < width or (key is not None and not row[key].strip())
                    or len(row[pid].split()) != 1):
                skipped += 1
                continue
            ext = row[pid].strip()
            if title is not None:
                titles.setdefault(ext, row[title].strip())
            if key is not None:
                groups.setdefault(row[key].strip(), set()).add(ext)
    keys = sorted(groups)
    members = [[m for m in groups[k] if m in titles] for k in keys]
    lens = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
    return ({ext: t.translate(_LINE_BREAKS) for ext, t in titles.items()},
            list(itertools.chain.from_iterable(members)), lens, np.array(keys, dtype=object),
            skipped)


def _read_onlineretail(paths: list[Path]):
    """Transaction CSV with invoice / stock code / description columns."""
    if len(paths) != 1:
        raise CorpusError("onlineretail format takes exactly 1 CSV path")
    with contextlib.closing(_csv_rows(paths[0])) as rows:
        header = next(rows, None)
        if header is None:
            raise CorpusError("empty CSV")
        inv = _find_column(header, "invoice")
        stock = _find_column(header, "stockcode", "stock")
        desc = _find_column(header, "description")
        if inv is None or stock is None or desc is None:
            raise CorpusError("onlineretail CSV must have invoice/stockcode/description columns")
        return _csv_transactions([(rows, stock, desc, inv)])


def _read_instacart(paths: list[Path]):
    """`products.csv` (product_id, product_name) + one or more order_products CSVs.

    Every header is read before any row; a file with a product-name column is a
    products file, and one with an order-id column otherwise an order file."""
    if len(paths) < 2:
        raise CorpusError("instacart format needs products.csv plus >=1 order_products CSV")
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(contextlib.closing(_csv_rows(p))) for p in paths]
        headers = [next(rows, []) for rows in files]
        names = [_find_column(h, "productname") for h in headers]
        keys = [_find_column(h, "orderid") if n is None else None
                for h, n in zip(headers, names)]
        for p, name, key in zip(paths, names, keys):
            if name is None and key is None:
                raise CorpusError(f"unrecognized instacart CSV header in {p}")
        if None not in names or None not in keys:
            raise CorpusError("instacart format needs both a products file and order files")
        pids = [_find_column(h, "productid") for h in headers]
        for p, pid, _ in sorted(zip(paths, pids, keys), key=lambda f: f[2] is not None):
            if pid is None:  # the products files' error first
                raise CorpusError(f"{p}: instacart CSV has no product_id column")
        return _csv_transactions(zip(files, pids, names, keys))


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Write through a temporary file beside `path` that replaces `path` when the block
    ends; if the block raises, the temporary file is removed and `path` is untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_canonical(catalog: Catalog, baskets: Baskets, catalog_path, baskets_path) -> None:
    """Serialize to the canonical two-file format (round-trips through import_dataset)."""
    with atomic_write(catalog_path) as fh:
        fh.write(catalog.tsv())
    ext = np.array(catalog.ids, dtype=object)[baskets.indices].tolist()
    bounds = baskets.indptr.tolist()
    with atomic_write(baskets_path) as fh:
        fh.writelines(" ".join(ext[a:b]) + "\n" for a, b in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

def build_vocabulary(catalog: Catalog, min_count: int = 1) -> Vocabulary:
    """The title tokens seen at least `min_count` times, sorted; the rest map to UNK."""
    if min_count < 1:
        raise CorpusError(f"min_count must be >= 1, got {min_count}")
    if len(catalog) == 0:
        raise CorpusError("cannot build vocabulary from an empty catalog")
    kept = sorted(w for w, c in Counter(catalog.tokens[0]).items() if c >= min_count)
    if not kept:
        raise CorpusError(f"vocabulary is empty at min_count={min_count}")
    return Vocabulary(dict(zip(kept, range(len(kept)))))


def title_matrix(token_lists, vocab_size: int) -> np.ndarray:
    """(n, L) int64 title matrix: row p holds title p's token ids left-aligned, L the longest.

    UNK = V counts toward a title's length; the PAD = V + 1 that fills the row does not."""
    lens = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    return _pad_titles(np.fromiter(itertools.chain.from_iterable(token_lists), dtype=np.int64,
                                   count=int(lens.sum())), lens, vocab_size)


def _pad_titles(flat: np.ndarray, lens: np.ndarray, vocab_size: int) -> np.ndarray:
    """The title matrix of the titles `flat` holds one after another, `lens[p]` ids each."""
    out = np.full((len(lens), lens.max(initial=0)), vocab_size + 1, dtype=np.int64)
    out[np.arange(out.shape[1]) < lens[:, None]] = flat
    return out


def encode_catalog(catalog: Catalog, vocab: Vocabulary) -> np.ndarray:
    """The catalog's title matrix, with out-of-vocabulary tokens mapped to UNK."""
    tokens, lens = catalog.tokens
    ids = np.fromiter(map(vocab.word_to_index.get, tokens, itertools.repeat(vocab.unk_index)),
                      dtype=np.int64, count=len(tokens))
    return _pad_titles(ids, lens, vocab.size)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _partition(baskets: Baskets, ratios, seed: int) -> tuple[Baskets, Baskets, Baskets]:
    if len(ratios) != 3 or min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"split ratios must be 3 nonnegative numbers summing to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(baskets))
    n_train = int(round(ratios[0] * len(baskets)))
    n_val = int(round(ratios[1] * len(baskets)))
    return (baskets.take(perm[:n_train]), baskets.take(perm[n_train:n_train + n_val]),
            baskets.take(perm[n_train + n_val:]))


def _apply_split_filters(mode: str, train: Baskets, validation: Baskets, test: Baskets, cold,
                         num_products: int):
    """The one filtering rule of a split, applied to its raw basket partition.

    Warm: validation and test keep only products seen in training. Cold: training
    loses the held-out `cold` products, then validation keeps only products left in
    training, and test stays whole. Returns the filtered (train, validation, test).
    """
    if mode == "warm":
        seen = np.bincount(train.indices, minlength=num_products) > 0
        return train, validation.restrict(seen), test.restrict(seen)
    allowed = np.ones(num_products, dtype=bool)
    allowed[np.array(list(cold), dtype=np.int64)] = False
    train = train.restrict(allowed)
    return train, validation.restrict(np.bincount(train.indices, minlength=num_products) > 0), test


def split_warm(baskets: Baskets, ratios=(0.85, 0.05, 0.10), seed: int = 0) -> DatasetSplit:
    """Random basket partition; validation/test baskets keep only products seen in training."""
    tr, va, te = _partition(baskets, ratios, seed)
    if not tr or not te:
        raise CorpusError("warm split produced an empty train or test set")
    tr, va, te = _apply_split_filters("warm", tr, va, te, (), int(baskets.indices.max()) + 1)
    return DatasetSplit(tr, va, te, "warm", seed)


def split_cold(baskets: Baskets, ratios=(0.85, 0.05, 0.10),
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
    num_products = int(baskets.indices.max()) + 1
    test_products = np.flatnonzero(np.bincount(te.indices, minlength=num_products))
    n_cold = int(round(test_product_fraction * len(test_products)))
    if n_cold < 10:
        raise CorpusError(
            f"degenerate cold split: only {n_cold} test products would be held out")
    cold = set(rng.choice(test_products, size=n_cold, replace=False).tolist())
    tr, va, te = _apply_split_filters("cold", tr, va, te, cold, num_products)
    return DatasetSplit(tr, va, te, "cold", seed, test_product_ids=cold)


_PARTS = {"train": 0, "validation": 1, "test": 2}


def save_split_manifest(split: DatasetSplit, catalog: Catalog, path) -> None:
    """Text manifest of sourceIds per split (plus mode/seed/cold products) for bit-exact reload."""
    ext = catalog.ids
    with atomic_write(path) as fh:
        fh.write(f"mode\t{split.mode}\nseed\t{split.seed}\n")
        for name in _PARTS:
            fh.writelines(f"{name}\t{s}\n" for s in getattr(split, name).source_ids)
        fh.writelines(f"testproduct\t{ext[pid]}\n" for pid in sorted(split.test_product_ids))


def load_split_manifest(path, catalog: Catalog, baskets: Baskets) -> DatasetSplit:
    """Rebuild a split from its manifest by reapplying the deterministic filtering.

    Basket lines become rows of `baskets` through one source-id lookup; the first
    bad line of the file raises a `CorpusError` naming its line number.
    """
    path = Path(path)
    lines = _read_lines(path)
    # No list of per-line tuples: thousands of live containers would set off the collector.
    part = np.array([_PARTS.get(line.partition("\t")[0], -1) for line in lines], dtype=np.int64)
    listed = np.flatnonzero(part >= 0)
    row_of = dict(zip(baskets.source_ids.tolist(), range(len(baskets))))
    rows = np.array([row_of.get(lines[i].partition("\t")[2], -1) for i in listed.tolist()],
                    dtype=np.int64)
    order = np.argsort(rows, kind="stable")  # a row's later listings follow its first
    bad = rows < 0
    bad[order[1:][rows[order[1:]] == rows[order[:-1]]]] = True
    first_bad = int(listed[bad][0]) if bad.any() else len(lines)
    mode, seed, cold = "warm", 0, set()
    for i in np.flatnonzero(part[:first_bad] < 0).tolist():
        key, _, value = lines[i].partition("\t")
        if key == "testproduct":
            if catalog.get(value) is None:
                raise CorpusError(f"{path}:{i + 1}: manifest references unknown product {value!r}")
            cold.add(catalog.get(value))
        elif key == "mode" and value in ("warm", "cold"):
            mode = value
        elif key == "seed":
            try:
                seed = int(value)
            except ValueError:
                raise CorpusError(
                    f"{path}:{i + 1}: split seed must be an integer, got {value!r}") from None
        else:
            raise CorpusError(f"{path}:{i + 1}: bad manifest line: {lines[i]!r}")
    if first_bad < len(lines):
        value = lines[first_bad].partition("\t")[2]
        raise CorpusError(f"{path}:{first_bad + 1}: " + (
            f"basket {value!r} listed twice" if value in row_of
            else f"manifest references unknown basket {value!r}"))
    tr, va, te = (baskets.take(rows[part[listed] == p]) for p in _PARTS.values())
    tr, va, te = _apply_split_filters(mode, tr, va, te, cold, len(catalog))
    return DatasetSplit(tr, va, te, mode, seed,
                        test_product_ids=cold if mode == "cold" else set())


# ---------------------------------------------------------------------------
# Leave-one-out cases
# ---------------------------------------------------------------------------

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
