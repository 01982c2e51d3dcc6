"""Reference scorers for the comparison protocol: POP, ItemKNN, and prod2vec.

All three expose `score_all(context_ids) -> (M,) array` so the evaluator is
scorer-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .corpus import Basket
from .evaluation import order_pool
from .kernels import scatter_rows


class PopModel:
    """Context-blind popularity scorer: score = training purchase count."""

    def __init__(self, counts: np.ndarray):
        self.counts = counts
        self.ranking = order_pool(counts, np.arange(len(counts)))

    @classmethod
    def fit(cls, train_baskets: list[Basket], num_products: int) -> "PopModel":
        flat = np.concatenate([b.product_ids for b in train_baskets])
        return cls(np.bincount(flat, minlength=num_products).astype(np.int64))

    @property
    def num_products(self) -> int:
        return len(self.counts)

    def score_all(self, context_ids: np.ndarray) -> np.ndarray:
        return self.counts.astype(np.float64)


class ItemKnnModel:
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
    def fit(cls, train_baskets: list[Basket], num_products: int,
            last_item_only: bool = False) -> "ItemKnnModel":
        rows, cols = [], []
        for r, b in enumerate(train_baskets):
            rows.append(np.full(len(b), r, dtype=np.int64))
            cols.append(b.product_ids)
        x = sparse.coo_matrix(
            (np.ones(sum(len(b) for b in train_baskets)),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(train_baskets), num_products)).tocsr()
        return cls((x.T @ x).tocsr(), last_item_only)

    @property
    def num_products(self) -> int:
        return self.cooccurrence.shape[0]

    def score_all(self, context_ids: np.ndarray) -> np.ndarray:
        ctx = np.asarray(context_ids)[-1:] if self.last_item_only else np.asarray(context_ids)
        ref = np.asarray(self.normalized[ctx].mean(axis=0)).ravel()
        return np.asarray(self.normalized @ ref)


def sgns_pair_loss(in_vecs: np.ndarray, out_vecs: np.ndarray, center: int,
                   positive: int, negatives: np.ndarray):
    """Skip-gram negative-sampling loss for one (center, positive, negatives) draw.

    Returns (loss, grad_in, grad_out) where the grads are dense matrices matching
    the vector tables; used by the trainer step and by gradient tests.
    """
    from scipy.special import expit

    v = in_vecs[center]
    zp = v @ out_vecs[positive]
    zn = out_vecs[negatives] @ v
    loss = float(np.logaddexp(0.0, -zp) + np.logaddexp(0.0, zn).sum())
    gp = expit(zp) - 1.0
    gn = expit(zn)
    grad_in = np.zeros_like(in_vecs)
    grad_out = np.zeros_like(out_vecs)
    grad_in[center] = gp * out_vecs[positive] + gn @ out_vecs[negatives]
    grad_out[positive] = gp * v
    grad_out += scatter_rows(negatives, gn[:, None] * v[None, :], len(out_vecs))
    return loss, grad_in, grad_out


@dataclass
class Prod2vecConfig:
    k: int = 64
    negatives: int = 8
    learning_rate: float = 0.025
    min_learning_rate_factor: float = 1e-4
    epochs: int = 5
    seed: int = 0
    batch_size: int = 2048


class Prod2vecModel:
    """Skip-gram product embeddings treating each basket as an unordered window."""

    def __init__(self, in_vecs: np.ndarray, out_vecs: np.ndarray):
        self.in_vecs = in_vecs
        self.out_vecs = out_vecs

    @property
    def num_products(self) -> int:
        return self.in_vecs.shape[0]

    @classmethod
    def fit(cls, train_baskets: list[Basket], num_products: int,
            config: Prod2vecConfig | None = None) -> "Prod2vecModel":
        cfg = config or Prod2vecConfig()
        rng = np.random.default_rng(cfg.seed)
        in_vecs = ((rng.random((num_products, cfg.k)) - 0.5) / cfg.k).astype(np.float64)
        out_vecs = np.zeros((num_products, cfg.k), dtype=np.float64)

        # every ordered pair of distinct products within a basket
        centers, contexts = [], []
        for b in train_baskets:
            ids = b.product_ids
            m = len(ids)
            grid = np.repeat(ids, m), np.tile(ids, m)
            keep = grid[0] != grid[1]
            centers.append(grid[0][keep])
            contexts.append(grid[1][keep])
        centers = np.concatenate(centers)
        contexts = np.concatenate(contexts)
        n_pairs = len(centers)
        total = cfg.epochs * n_pairs
        done = 0
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_pairs)
            for start in range(0, n_pairs, cfg.batch_size):
                idx = order[start: start + cfg.batch_size]
                alpha = cfg.learning_rate * max(1.0 - done / total,
                                                cfg.min_learning_rate_factor)
                _sgns_batch_update(in_vecs, out_vecs, centers[idx], contexts[idx],
                                   cfg.negatives, alpha, rng)
                done += len(idx)
        return cls(in_vecs, out_vecs)

    def score_all(self, context_ids: np.ndarray) -> np.ndarray:
        """Cosine between the mean context in-vector and every product's in-vector."""
        basket = self.in_vecs[np.asarray(context_ids)].mean(axis=0)
        bn = np.linalg.norm(basket)
        norms = np.linalg.norm(self.in_vecs, axis=1)
        denom = norms * bn
        scores = np.zeros(self.num_products)
        nz = denom > 0
        scores[nz] = (self.in_vecs @ basket)[nz] / denom[nz]
        return scores


def _sgns_batch_update(in_vecs, out_vecs, centers, contexts, n_neg, alpha, rng):
    """One mini-batched SGD step over (center, context) pairs with uniform negatives."""
    from scipy.special import expit

    b = len(centers)
    negs = rng.integers(0, out_vecs.shape[0], size=(b, n_neg))
    v = in_vecs[centers]  # (b, k)
    op = out_vecs[contexts]  # (b, k)
    on = out_vecs[negs]  # (b, n, k)
    gp = expit(np.einsum("bk,bk->b", v, op)) - 1.0
    gn = expit(np.einsum("bk,bnk->bn", v, on))
    d_v = gp[:, None] * op + np.einsum("bn,bnk->bk", gn, on)
    d_out = np.concatenate([gp[:, None] * v,
                            (gn[:, :, None] * v[:, None, :]).reshape(b * n_neg, -1)])
    in_vecs -= scatter_rows(centers, alpha * d_v, len(in_vecs))
    out_vecs -= scatter_rows(np.concatenate([contexts, negs.ravel()]), alpha * d_out,
                             len(out_vecs))
