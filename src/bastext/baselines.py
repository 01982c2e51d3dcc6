"""Reference scorers for the comparison protocol: POP, ItemKNN, and prod2vec.

All three are `ContextScorer`s: `score_cases(indptr, ctx_flat, case_ids)`
returns the (cases x M) score block of a block of cases whose contexts are CSR
rows, which the evaluator ranks, and `score_all(context_ids) -> (M,)` is its
one-case call, for the queries and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import expit

from .corpus import Baskets, leave_one_out
from .evaluation import ContextScorer
from .kernels import cosine_to_all, scatter_rows, segment_mean


class PopModel(ContextScorer):
    """Context-blind popularity scorer: score = training purchase count."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts

    @classmethod
    def fit(cls, train_baskets: Baskets, num_products: int) -> "PopModel":
        return cls(np.bincount(train_baskets.indices, minlength=num_products).astype(np.int64))

    @property
    def num_products(self) -> int:
        return len(self.counts)

    def score_cases(self, indptr, ctx_flat, case_ids) -> np.ndarray:
        return np.broadcast_to(self.counts.astype(np.float64), (len(case_ids), len(self.counts)))


class ItemKnnModel(ContextScorer):
    """Item-to-item scorer over the basket co-occurrence matrix.

    Similarity is the cosine between rows of C = X^T X, where X is the
    basket-product incidence matrix; the diagonal (product frequency) is kept.
    A candidate's score is the mean similarity to the context products, or to
    the last context product only when `last_item_only`.
    """

    def __init__(self, cooccurrence: sparse.csr_matrix, last_item_only: bool = False):
        self.cooccurrence = cooccurrence
        norms = np.sqrt(np.asarray(cooccurrence.multiply(cooccurrence).sum(axis=1)).ravel())
        inv = np.zeros_like(norms)
        nz = norms > 0
        inv[nz] = 1.0 / norms[nz]
        self.normalized = sparse.diags(inv) @ cooccurrence
        self.last_item_only = last_item_only

    @classmethod
    def fit(cls, train_baskets: Baskets, num_products: int,
            last_item_only: bool = False) -> "ItemKnnModel":
        indptr, indices = train_baskets.indptr, train_baskets.indices
        x = sparse.csr_matrix((np.ones(len(indices)), indices, indptr),
                              shape=(len(train_baskets), num_products))
        return cls((x.T @ x).tocsr(), last_item_only)

    @property
    def num_products(self) -> int:
        return self.cooccurrence.shape[0]

    def score_cases(self, indptr, ctx_flat, case_ids) -> np.ndarray:
        """Row i is `N @ mean(N[ctx_i])`, N the normalized co-occurrence, for every case at once.

        `A @ N`, with A the block's row-mean operator, sums each case's rows
        in context order, and `N @ (A @ N).T` (dense) sums each score over N's
        row in stored order, so every row equals the one-case product bit for bit.
        """
        if self.last_item_only:
            ctx_flat, indptr = ctx_flat[indptr[1:] - 1], np.arange(len(indptr))
        lens = np.diff(indptr)
        mean_op = sparse.csr_matrix((np.repeat(1.0 / lens, lens), ctx_flat, indptr),
                                    shape=(len(lens), self.num_products))
        refs = mean_op @ self.normalized
        return np.ascontiguousarray((self.normalized @ refs.T.toarray()).T)


def sgns_batch_grads(in_vecs: np.ndarray, out_vecs: np.ndarray, centers: np.ndarray,
                     contexts: np.ndarray, negs: np.ndarray):
    """Gradient rows of the skip-gram negative-sampling loss summed over a batch.

    Example i's loss is `log(1 + exp(-v . u)) + sum_j log(1 + exp(v . w_j))` with
    `v = in_vecs[centers[i]]`, `u = out_vecs[contexts[i]]` and `w_j = out_vecs[negs[i, j]]`.
    Returns `(in_rows, in_grads, out_rows, out_grads)`: gradient row j belongs to table
    row `in_rows[j]` (or `out_rows[j]`), and `scatter_rows` sums them into each table.
    """
    b, n = negs.shape
    v = in_vecs[centers]  # (b, k)
    op = out_vecs[contexts]  # (b, k)
    on = out_vecs[negs]  # (b, n, k)
    gp = expit(np.einsum("bk,bk->b", v, op)) - 1.0
    gn = expit(np.einsum("bk,bnk->bn", v, on))
    d_in = gp[:, None] * op + np.einsum("bn,bnk->bk", gn, on)
    d_out = np.concatenate([gp[:, None] * v, (gn[:, :, None] * v[:, None, :]).reshape(b * n, -1)])
    return centers, d_in, np.concatenate([contexts, negs.ravel()]), d_out


# Prod2vec's SGD: the learning rate falls linearly over the pairs seen, down to a floor
# of `PROD2VEC_MIN_LEARNING_RATE_FACTOR` times its start.
PROD2VEC_LEARNING_RATE, PROD2VEC_MIN_LEARNING_RATE_FACTOR = 0.025, 1e-4
PROD2VEC_BATCH_SIZE = 2048


@dataclass
class Prod2vecConfig:
    k: int = 64
    negatives: int = 8
    epochs: int = 5
    seed: int = 0


class Prod2vecModel(ContextScorer):
    """Skip-gram product embeddings treating each basket as an unordered window."""

    def __init__(self, in_vecs: np.ndarray, out_vecs: np.ndarray):
        self.in_vecs = in_vecs
        self.out_vecs = out_vecs

    @property
    def num_products(self) -> int:
        return self.in_vecs.shape[0]

    @classmethod
    def fit(cls, train_baskets: Baskets, num_products: int,
            config: Prod2vecConfig | None = None) -> "Prod2vecModel":
        cfg = config or Prod2vecConfig()
        rng = np.random.default_rng(cfg.seed)
        in_vecs = ((rng.random((num_products, cfg.k)) - 0.5) / cfg.k).astype(np.float64)
        out_vecs = np.zeros((num_products, cfg.k), dtype=np.float64)

        # every ordered pair of distinct products within a basket, basket by basket
        held, contexts, ctx_lens, _ = leave_one_out(
            train_baskets.indptr, train_baskets.indices, np.arange(len(train_baskets.indices)))
        centers = np.repeat(held, ctx_lens)
        n_pairs = len(centers)
        total = cfg.epochs * n_pairs
        done = 0
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_pairs)
            for start in range(0, n_pairs, PROD2VEC_BATCH_SIZE):
                idx = order[start: start + PROD2VEC_BATCH_SIZE]
                alpha = PROD2VEC_LEARNING_RATE * max(1.0 - done / total,
                                                     PROD2VEC_MIN_LEARNING_RATE_FACTOR)
                negs = rng.integers(0, num_products, size=(len(idx), cfg.negatives))
                in_rows, d_in, out_rows, d_out = sgns_batch_grads(
                    in_vecs, out_vecs, centers[idx], contexts[idx], negs)
                in_vecs -= scatter_rows(in_rows, alpha * d_in, num_products)
                out_vecs -= scatter_rows(out_rows, alpha * d_out, num_products)
                done += len(idx)
        return cls(in_vecs, out_vecs)

    def score_cases(self, indptr, ctx_flat, case_ids) -> np.ndarray:
        """Cosine between each case's mean context in-vector and every product's in-vector."""
        means = segment_mean(self.in_vecs[ctx_flat], indptr)
        return cosine_to_all(means, self.in_vecs)
