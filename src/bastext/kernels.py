"""Numeric kernels shared by the trainers and scorers.

`scatter_rows` is the one scatter-add in the package: the model's loss, the
CNN backward pass and the SGNS baseline all sum gradient rows into parameter
rows through it. `cosine_to_all` is the one cosine of a block against a table:
the `similar` and `search` queries and the prod2vec scorer rank products by it.
`segment_mean` is the one mean of a case's context vectors: the loss and the
bastext and prod2vec scorers take it once per block. `rank_block` is the one
ranking rule: evaluation and per-epoch validation rank every held-out product
through it, a block of cases at a time. A block is scored by one
matrix-vector product per case (`np.matmul` over a stack of vectors), not by
a GEMM, which sums in another order: its rows could differ from the one-case
call in the last bit and flip an exact tie.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


def scatter_rows(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """`out[i]` = the sum of `values[j]` over every j with `index[j] == i`; shape (n, ...).

    `index` is 1-D with entries in [0, n), and `values` has one leading row per
    entry. The result equals an unbuffered `np.add` scatter into zeros: it is
    one product of the (n x len(index)) CSC indicator matrix with `values`,
    whose column j adds row j of `values` into output row `index[j]`, in
    index order. The output has `values`' dtype.
    """
    index = np.asarray(index, dtype=np.int64)
    values = np.asarray(values)
    # the sparse kernel writes to out[index[j]] unchecked
    if len(index) and (index.min() < 0 or index.max() >= n):
        raise ValueError(f"scatter index outside [0, {n})")
    indicator = sparse.csc_matrix(
        (np.ones(len(index), dtype=values.dtype), index, np.arange(len(index) + 1)),
        shape=(n, len(index)))
    out = indicator @ values.reshape(len(index), int(np.prod(values.shape[1:])))
    return out.reshape((n,) + values.shape[1:])


def segment_mean(rows: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row i is the mean of `rows[indptr[i]:indptr[i + 1]]`; `indptr` runs from 0 to len(rows).

    Sums in `np.add.reduceat` order, the loss's order, which is not `np.mean`'s row order
    (a row may differ from `np.mean` in the last bit), and divides by the length cast to
    `rows.dtype`. Every row is bitwise its one-segment call. An empty segment is a
    `ValueError`: reduceat would return the next row instead of a mean.
    """
    lens = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != len(rows) or (lens < 1).any():
        raise ValueError("segment_mean needs non-empty segments from 0 to len(rows)")
    sums = np.add.reduceat(rows, indptr[:-1], axis=0)
    return sums / lens.astype(rows.dtype).reshape((-1,) + (1,) * (rows.ndim - 1))


def cosine_to_all(vecs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(n, M) float64: row i is the cosine of `vecs[i]` against every row; a zero row scores 0.

    Each query's norm is the 1-D `np.linalg.norm` (an `axis=1` norm is not bitwise equal)."""
    norms = np.linalg.norm(matrix, axis=1)
    vns = np.array([np.linalg.norm(v) for v in vecs], dtype=norms.dtype)[:, None]
    nz = (norms > 0) & (vns > 0)
    out = np.zeros(nz.shape)
    out[nz] = np.matmul(matrix, vecs[:, :, None])[:, :, 0][nz] / (norms * vns)[nz]
    return out


class EvalError(RuntimeError):
    pass


def rank_block(scores: np.ndarray, held: np.ndarray, indptr: np.ndarray, ctx_flat: np.ndarray,
               pool: np.ndarray | None = None) -> np.ndarray:
    """1-based rank of `held[i]` among the products that row i of `scores` scores.

    Case i's context `ctx_flat[indptr[i]:indptr[i + 1]]` leaves its own row, and
    `pool` (a boolean mask over the columns; None keeps every product) limits
    every row. The rank is 1 + the number of products left that score higher
    than `held[i]` or tie with it at a lower id. A held-out product outside
    the pool or inside its own context ranks inf. A NaN score is an `EvalError`:
    it compares false with everything, so it would rank first.
    """
    nan_rows = np.flatnonzero(np.isnan(scores).any(axis=1))
    if len(nan_rows):
        raise EvalError(f"NaN score in row {nan_rows[0]} of a ranked block")
    n, m = scores.shape
    rows = np.arange(n)
    case_of_slot = np.repeat(rows, np.diff(indptr))
    target = scores[rows, held][:, None]
    ahead = scores > target
    ahead |= (scores == target) & (np.arange(m) < held[:, None])
    ahead[case_of_slot, ctx_flat] = False  # each context leaves its own row only
    if pool is not None:
        ahead &= pool
    ranks = 1.0 + np.count_nonzero(ahead, axis=1)
    ranks[case_of_slot[ctx_flat == held[case_of_slot]]] = np.inf
    if pool is not None:
        ranks[~pool[held]] = np.inf
    return ranks
