"""Leave-one-out test-case formation, ranking, and Recall@N / MRR@N reporting."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Baskets, DatasetSplit, _read_lines, leave_one_out
from .kernels import EvalError, rank_block

# Score entries per ranked block: a block holds max(1, BLOCK_ENTRIES // M) cases.
BLOCK_ENTRIES = 1 << 16


@dataclass
class TestCase:
    """One case of `TestCases`: its context (a view) and held-out product."""
    context_ids: np.ndarray
    held_out_id: int


@dataclass(eq=False)
class TestCases:
    """Leave-one-out cases as CSR: case i holds out `held[i]`, and its context is
    `ctx_flat[indptr[i]:indptr[i + 1]]`.

    An int index gives a `TestCase`, a slice (step 1) the `TestCases` of that range."""
    held: np.ndarray
    indptr: np.ndarray
    ctx_flat: np.ndarray

    @classmethod
    def from_positions(cls, baskets: Baskets, pos) -> "TestCases":
        """The cases holding out each flat position `pos[i]` of `baskets`' members."""
        held, ctx_flat, ctx_lens, _ = leave_one_out(baskets.indptr, baskets.indices, pos)
        return cls(held, np.concatenate([[0], np.cumsum(ctx_lens)]), ctx_flat)

    def __len__(self) -> int:
        return len(self.held)

    def __getitem__(self, key):
        if not isinstance(key, slice):
            i = range(len(self))[key]
            return TestCase(self.ctx_flat[self.indptr[i]:self.indptr[i + 1]], int(self.held[i]))
        start, stop, step = key.indices(len(self))
        if step != 1:
            raise IndexError("TestCases slices take step 1")
        stop = max(start, stop)
        ptr = self.indptr[start:stop + 1]
        return TestCases(self.held[start:stop], ptr - ptr[0], self.ctx_flat[ptr[0]:ptr[-1]])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass
class EvalReport:
    method: str
    mode: str
    pool: str  # "all" | "test-products"
    metrics: dict[str, float]  # e.g. {"recall@10": ..., "mrr@20": ...}
    num_test_cases: int
    fingerprint: str

    def to_json(self) -> str:
        return json.dumps(
            {"method": self.method, "mode": self.mode, "pool": self.pool,
             "metrics": self.metrics, "num_test_cases": self.num_test_cases,
             "fingerprint": self.fingerprint}, sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        keys = sorted(self.metrics)
        width = max(len(k) for k in keys) if keys else 6
        lines = [f"method: {self.method}  mode: {self.mode}  pool: {self.pool}  "
                 f"cases: {self.num_test_cases}"]
        for k in keys:
            lines.append(f"  {k.ljust(width)}  {self.metrics[k]:.4f}")
        return "\n".join(lines) + "\n"


def form_test_cases(split: DatasetSplit) -> TestCases:
    """One case per (basket, held-out product) pair; cold mode restricts the
    held-out product to the designated test products. Empty-context cases are dropped."""
    test, sizes = split.test, np.diff(split.test.indptr)
    keep = np.repeat(sizes > 1, sizes)
    if split.mode == "cold":
        keep &= np.isin(test.indices, list(split.test_product_ids))
    cases = TestCases.from_positions(test, np.flatnonzero(keep))
    if not len(cases):
        raise EvalError("split yields zero test cases")
    return cases


def order_pool(scores: np.ndarray, pool_ids: np.ndarray) -> np.ndarray:
    """`pool_ids` ordered by descending score, ties broken by ascending id."""
    pool = np.asarray(pool_ids)
    return pool[np.lexsort((pool, -scores[pool]))]


def rank_candidates(case: TestCase, scorer, candidate_pool: np.ndarray) -> np.ndarray:
    """The case's candidate pool in `order_pool` order of its scores."""
    if np.isin(candidate_pool, case.context_ids).any():
        raise EvalError("candidate pool must exclude the context")
    return order_pool(scorer.score_all(case.context_ids), candidate_pool)


def recall_at_n(ranks, n: int) -> float:
    """Fraction of cases whose held-out product ranked within the top n."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise EvalError("empty rank list")
    return float(np.mean(ranks <= n))


def mrr_at_n(ranks, n: int) -> float:
    """Mean of 1/rank, counting ranks beyond n (or infinite) as zero."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise EvalError("empty rank list")
    contrib = np.where(ranks <= n, 1.0 / ranks, 0.0)
    return float(np.mean(contrib))


class ContextScorer:
    """Base of the scorers that score a case from its context alone.

    A subclass implements `score_cases(indptr, ctx_flat, case_ids)`: the
    (cases x M) score block of the cases whose contexts are the CSR rows
    `ctx_flat[indptr[i]:indptr[i + 1]]`. `score_all` is its one-case call.
    """

    def score_all(self, context_ids: np.ndarray) -> np.ndarray:
        ctx = np.asarray(context_ids)
        return self.score_cases(np.array([0, len(ctx)]), ctx, np.zeros(1, dtype=np.int64))[0]


def rank_cases(score_cases, num_products: int, cases: TestCases,
               pool: np.ndarray | None = None) -> np.ndarray:
    """`rank_block` over every case, scored and ranked a block of cases at a time.

    `score_cases(indptr, ctx_flat, case_ids)` returns the block's scores; its
    `indptr` and `ctx_flat` describe the block's contexts, and `case_ids` are
    the block's case indices.
    """
    chunk = max(1, BLOCK_ENTRIES // num_products)
    ranks = np.empty(len(cases))
    for start in range(0, len(cases), chunk):
        block = cases[start: start + chunk]
        stop = start + len(block)
        scores = score_cases(block.indptr, block.ctx_flat, np.arange(start, stop))
        ranks[start:stop] = rank_block(scores, block.held, block.indptr, block.ctx_flat, pool)
    return ranks


def compute_ranks(scorer, test_cases: TestCases, pool: str = "all",
                  test_product_ids=None) -> np.ndarray:
    """1-based rank of every case's held-out product (inf when outside the pool).

    The scorer's `score_cases` scores a block of cases from their contexts (as
    CSR) and their indices; an `ExternalScorer` looks its rows up by index.
    """
    if pool == "all":
        mask = None
    elif pool == "test-products":
        if not test_product_ids:
            raise EvalError("the test-products pool is empty: only a cold split (--cold) "
                            "holds test products")
        mask = np.zeros(scorer.num_products, dtype=bool)
        mask[list(test_product_ids)] = True
    else:
        raise EvalError(f"unknown candidate pool {pool!r}")
    return rank_cases(scorer.score_cases, scorer.num_products, test_cases, mask)


def evaluate(scorer, test_cases: TestCases, ns=(10, 20), method: str = "model",
             mode: str = "warm", pool: str = "all", test_product_ids=None) -> EvalReport:
    """Rank every test case and aggregate Recall@N / MRR@N."""
    if min(ns) < 1:
        raise EvalError(f"every N must be >= 1, got {sorted(ns)}")
    ranks = compute_ranks(scorer, test_cases, pool, test_product_ids)
    metrics = {}
    for n in sorted(ns):
        metrics[f"recall@{n}"] = recall_at_n(ranks, n)
        metrics[f"mrr@{n}"] = mrr_at_n(ranks, n)
    fp = hashlib.sha256(
        f"{method}|{mode}|{pool}|{sorted(ns)}|{len(test_cases)}".encode()).hexdigest()[:16]
    return EvalReport(method, mode, pool, metrics, len(test_cases), fp)


# ---------------------------------------------------------------------------
# External score files (third-party models plugged into the same protocol)
# ---------------------------------------------------------------------------

class ExternalScorer:
    """Scores read from a file: one line per case, `caseIndex<TAB>id:score,id:score,...`.

    Products missing from a case's line score -inf (never ranked above listed ones).
    """

    def __init__(self, per_case: dict[int, tuple[np.ndarray, np.ndarray]], num_products: int):
        self.per_case = per_case
        self.num_products = num_products

    @classmethod
    def load(cls, path, num_products: int) -> "ExternalScorer":
        per_case = {}
        for lineno, line in enumerate(_read_lines(Path(path), EvalError), 1):
            if not line.strip():
                continue
            idx_s, _, rest = line.partition("\t")
            try:
                idx = int(idx_s)
                pairs = [p.split(":") for p in rest.split(",") if p]
                ids = np.array([int(a) for a, _ in pairs], dtype=np.int64)
                vals = np.array([float(b) for _, b in pairs])
            except ValueError as exc:
                raise EvalError(f"{path}:{lineno}: malformed score line") from exc
            if np.isnan(vals).any():
                raise EvalError(f"{path}:{lineno}: NaN score")
            if ((ids < 0) | (ids >= num_products)).any():
                raise EvalError(f"{path}:{lineno}: product id out of range")
            if idx in per_case:
                raise EvalError(f"{path}:{lineno}: case {idx} listed twice")
            per_case[idx] = (ids, vals)
        return cls(per_case, num_products)

    def score_cases(self, indptr: np.ndarray, ctx_flat: np.ndarray,
                    case_ids: np.ndarray) -> np.ndarray:
        """The listed cases' score rows, looked up by case index."""
        out = np.full((len(case_ids), self.num_products), -np.inf)
        for row, index in zip(out, case_ids):
            if index not in self.per_case:
                raise EvalError(f"external score file is missing case {index}")
            ids, vals = self.per_case[index]
            row[ids] = vals
        return out
