"""Leave-one-out test-case formation, ranking, and Recall@N / MRR@N reporting."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import DatasetSplit, _read_lines, basket_csr, leave_one_out


class EvalError(RuntimeError):
    pass


@dataclass
class TestCase:
    context_ids: np.ndarray
    held_out_id: int
    source_id: str


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


def form_test_cases(split: DatasetSplit) -> list[TestCase]:
    """One case per (basket, held-out product) pair; cold mode restricts the
    held-out product to the designated test products. Empty-context cases are dropped."""
    indptr, indices = basket_csr(split.test)
    keep = np.repeat(np.diff(indptr) > 1, np.diff(indptr))
    if split.mode == "cold":
        keep &= np.isin(indices, list(split.test_product_ids))
    held, ctx_flat, ctx_lens, rows = leave_one_out(indptr, indices, np.flatnonzero(keep))
    ctxs = np.split(ctx_flat, np.cumsum(ctx_lens)[:-1])
    cases = [TestCase(c, int(h), split.test[r].source_id) for h, c, r in zip(held, ctxs, rows)]
    if not cases:
        raise EvalError("split yields zero test cases")
    return cases


def rank_in_pool(scores: np.ndarray, pool_mask: np.ndarray, held: int) -> float:
    """1-based rank of `held` among pool members by descending score, ties broken
    by ascending id; inf when `held` is outside the pool."""
    if not pool_mask[held]:
        return np.inf
    sh = scores[held]
    higher = np.sum(pool_mask & (scores > sh))
    tied_before = np.sum(pool_mask[:held] & (scores[:held] == sh))
    return float(1 + higher + tied_before)


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


def compute_ranks(scorer, test_cases: list[TestCase], pool: str = "all",
                  test_product_ids=None) -> np.ndarray:
    """1-based rank of every case's held-out product (inf when outside the pool).

    An `ExternalScorer` supplies case i's scores by index; every other scorer
    scores the case's context with `score_all`.
    """
    if pool == "all":
        mask = np.ones(scorer.num_products, dtype=bool)
    elif pool == "test-products":
        mask = np.zeros(scorer.num_products, dtype=bool)
        mask[list(test_product_ids)] = True
    else:
        raise EvalError(f"unknown candidate pool {pool!r}")
    external = isinstance(scorer, ExternalScorer)
    ranks = np.empty(len(test_cases))
    for i, case in enumerate(test_cases):
        scores = scorer.scores_for_case(i) if external else scorer.score_all(case.context_ids)
        ctx = case.context_ids
        kept = mask[ctx]
        mask[ctx] = False
        ranks[i] = rank_in_pool(scores, mask, case.held_out_id)
        mask[ctx] = kept
    return ranks


def evaluate(scorer, test_cases: list[TestCase], ns=(10, 20), method: str = "model",
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
            per_case[idx] = (ids, vals)
        return cls(per_case, num_products)

    def scores_for_case(self, index: int) -> np.ndarray:
        if index not in self.per_case:
            raise EvalError(f"external score file is missing case {index}")
        ids, vals = self.per_case[index]
        out = np.full(self.num_products, -np.inf)
        out[ids] = vals
        return out
