"""Text encoders mapping a token-id sequence to a K-dim vector.

Two architectures share one interface: a mean-of-word-vectors encoder
(mean of input word vectors through a linear layer, then ReLU) and a
convolutional encoder (per-width filter banks, ReLU, max-over-time pooling,
linear projection, ReLU). Both support one-hot or pretrained word inputs and
have exact analytic backward passes.

The kind of word input matters only where word vectors meet the first layer:
mov's mean input is the mean matrix S (one-hot) or S times the pretrained table,
and cnn turns each filter bank into per-word responses `resp[o, t, f]` (filter
f at offset o on word t; zero for UNK/PAD), the bank itself or one product of
it with the table. The convolution gathers and its gradient scatters that layout.

The entry points (`encode_batch` / `backward_batch`) take the rows of a title matrix
(`corpus.title_matrix`), whose UNK = V and PAD = V + 1 both map to the zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .corpus import Vocabulary
from .kernels import scatter_rows


class EncoderError(RuntimeError):
    pass


@dataclass
class WordInputTable:
    """Per-word input vectors: one-hot rows (dim = V) when `vectors` is None, else a
    pretrained V x d matrix."""

    vocab_size: int
    vectors: np.ndarray | None = None  # (V, d), pretrained only

    @property
    def dim(self) -> int:
        return self.vocab_size if self.vectors is None else self.vectors.shape[1]

    @classmethod
    def one_hot(cls, vocab_size: int) -> "WordInputTable":
        return cls(vocab_size)

    @classmethod
    def pretrained(cls, vectors: np.ndarray) -> "WordInputTable":
        return cls(len(vectors), vectors)


def load_pretrained_vectors(path, vocab: Vocabulary) -> tuple[WordInputTable, float]:
    """Read a text word-vector file (`word v1 ... vd` per line) against a vocabulary.

    Returns the table plus the fraction of vocabulary words matched; unmatched
    words keep the zero vector. Lines are decoded one at a time; invalid UTF-8, or a
    bad component on a vocabulary word's line, is an `EncoderError` naming the line.
    """
    dim = vectors = None
    matched = 0
    try:
        fh = Path(path).open("rb")
    except OSError as exc:
        raise EncoderError(f"{path}: cannot read pretrained vectors: {exc.strerror}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            try:
                parts = line.decode("utf-8").split()
            except UnicodeDecodeError:
                raise EncoderError(f"{path}:{lineno}: invalid UTF-8") from None
            if not parts:
                continue
            word, vals = parts[0], parts[1:]
            if dim is None:
                dim = len(vals)
                if dim == 0:
                    raise EncoderError(f"{path}:{lineno}: no vector components")
                vectors = np.zeros((vocab.size, dim), dtype=np.float32)
            elif len(vals) != dim:
                raise EncoderError(
                    f"{path}:{lineno}: dimensionality {len(vals)} != {dim} of earlier lines")
            idx = vocab.word_to_index.get(word)
            if idx is not None:
                try:
                    with np.errstate(over="ignore"):  # overflow reads inf, refused below
                        vectors[idx] = np.array(vals, dtype=np.float32)
                except ValueError:
                    raise EncoderError(f"{path}:{lineno}: non-numeric vector component") from None
                if not np.isfinite(vectors[idx]).all():
                    raise EncoderError(f"{path}:{lineno}: non-finite vector component")
                matched += 1
    if dim is None or matched == 0:
        raise EncoderError(f"no vocabulary words matched in {path}")
    return WordInputTable.pretrained(vectors), matched / vocab.size


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _take(tensors: dict[str, np.ndarray], prefix: str,
          shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """`tensors[prefix + name]` for every name in `shapes`, each checked to have its shape."""
    out = {}
    for name, shape in shapes.items():
        t = tensors.get(prefix + name)
        if t is None:
            raise EncoderError(f"missing tensor {prefix + name!r}")
        if t.shape != shape:
            raise EncoderError(f"tensor {prefix + name!r} has shape {t.shape}, expected {shape}")
        out[name] = t
    return out


def _check_widths(widths: tuple[int, ...]) -> None:
    if not widths or list(widths) != sorted(set(widths)) or min(widths) < 1:
        raise EncoderError(f"filter widths must be strictly increasing positive ints: {widths}")


@dataclass
class MovParams:
    W: np.ndarray  # (d, K)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"W": self.W}

    @classmethod
    def from_dict(cls, tensors: dict[str, np.ndarray], input_dim: int, k: int,
                  prefix: str = "") -> "MovParams":
        """The inverse of `as_dict`, reading `prefix + name`; every shape must be the one
        `input_dim` and `k` imply."""
        return cls(**_take(tensors, prefix, {"W": (input_dim, k)}))


@dataclass
class CnnParams:
    widths: tuple[int, ...]
    filters: dict[int, np.ndarray]  # width -> (F, width, d)
    biases: dict[int, np.ndarray]  # width -> (F,)
    proj: np.ndarray  # (F * len(widths), K)
    proj_bias: np.ndarray  # (K,)

    def as_dict(self) -> dict[str, np.ndarray]:
        out = {}
        for w in self.widths:
            out[f"conv{w}"] = self.filters[w]
            out[f"bias{w}"] = self.biases[w]
        out["proj"] = self.proj
        out["proj_bias"] = self.proj_bias
        return out

    @classmethod
    def from_dict(cls, tensors: dict[str, np.ndarray], input_dim: int, k: int,
                  widths: tuple[int, ...], num_filters: int, prefix: str = "") -> "CnnParams":
        """The inverse of `as_dict`, reading `prefix + name`; every name and shape must be
        the one `input_dim`, `k`, `widths` and `num_filters` imply."""
        _check_widths(widths)
        shapes = {}
        for w in widths:
            shapes[f"conv{w}"] = (num_filters, w, input_dim)
            shapes[f"bias{w}"] = (num_filters,)
        shapes["proj"] = (num_filters * len(widths), k)
        shapes["proj_bias"] = (k,)
        t = _take(tensors, prefix, shapes)
        return cls(tuple(widths), {w: t[f"conv{w}"] for w in widths},
                   {w: t[f"bias{w}"] for w in widths}, t["proj"], t["proj_bias"])


def init_mov(input_dim: int, k: int, rng: np.random.Generator, dtype=np.float32) -> MovParams:
    bound = 1.0 / np.sqrt(input_dim)
    return MovParams(rng.uniform(-bound, bound, size=(input_dim, k)).astype(dtype))


def init_cnn(input_dim: int, k: int, widths: tuple[int, ...], num_filters: int,
             rng: np.random.Generator, dtype=np.float32) -> CnnParams:
    _check_widths(widths)
    bound = 1.0 / np.sqrt(input_dim)
    filters = {w: rng.uniform(-bound, bound, size=(num_filters, w, input_dim)).astype(dtype)
               for w in widths}
    biases = {w: np.zeros(num_filters, dtype=dtype) for w in widths}
    fan_in = num_filters * len(widths)
    pbound = 1.0 / np.sqrt(fan_in)
    proj = rng.uniform(-pbound, pbound, size=(fan_in, k)).astype(dtype)
    return CnnParams(tuple(widths), filters, biases, proj, np.zeros(k, dtype=dtype))


# ---------------------------------------------------------------------------
# Mean-of-vectors encoder
# ---------------------------------------------------------------------------

def _mean_matrix(token_ids: np.ndarray, vocab_size: int, dtype) -> sparse.csr_matrix:
    """Sparse (P, V) matrix whose row p averages the in-vocabulary tokens of title row p.

    The denominator is the title's full token count |s|: an UNK adds a zero vector but counts."""
    inv = (1.0 / np.maximum(np.count_nonzero(token_ids <= vocab_size, axis=1), 1)).astype(dtype)
    rows, at = np.nonzero(token_ids < vocab_size)  # row-major: each title's tokens in order
    return sparse.coo_matrix((inv[rows], (rows, token_ids[rows, at])),
                             shape=(len(token_ids), vocab_size)).tocsr()  # sums duplicates


def _dropout_mask(shape, rate: float, rng: np.random.Generator | None, dtype):
    if rate <= 0.0 or rng is None:
        return None
    mask = (rng.random(shape) >= rate).astype(dtype)
    mask /= np.asarray(1.0 - rate, dtype=dtype)
    return mask


def _mov_forward(params: MovParams, table: WordInputTable, token_ids, dropout_rate, rng):
    dtype = params.W.dtype
    S = _mean_matrix(token_ids, table.vocab_size, dtype)
    # the mean input vector: S itself for one-hot words
    x = S if table.vectors is None else np.asarray(S @ table.vectors.astype(dtype, copy=False))
    h = np.maximum(np.asarray(x @ params.W), 0)
    mask = _dropout_mask(h.shape, dropout_rate, rng, dtype)
    out = h if mask is None else h * mask
    # The cache keeps the output, which the caller holds anyway, in place of a relu mask
    cache = {"S": S, "x": x, "out": out, "drop": mask}
    return out, cache


def _mov_backward(params: MovParams, cache, d_out, want_input_grads):
    d_h = d_out if cache["drop"] is None else d_out * cache["drop"]
    # out > 0 exactly where pre > 0 (NaN included) and the dropout mask is not 0; where the
    # mask is 0, d_h is already 0 either way
    d_pre = d_h * (cache["out"] > 0)
    grads = {"W": np.asarray(cache["x"].T @ d_pre)}
    if want_input_grads:
        grads["input"] = np.asarray(cache["S"].T @ (d_pre @ params.W.T))
    return grads


# ---------------------------------------------------------------------------
# Convolutional encoder
# ---------------------------------------------------------------------------

def _cnn_forward(params: CnnParams, table: WordInputTable, token_ids, dropout_rate, rng):
    dtype = params.proj.dtype
    v = table.vocab_size
    wmax = max(params.widths)
    title_lens = np.count_nonzero(token_ids <= v, axis=1)  # UNK counts, PAD not
    lens = np.maximum(title_lens, wmax)
    lmax = int(lens.max(initial=wmax))
    T = np.minimum(token_ids[:, :lmax], v)  # PAD reads as UNK: a zero vector
    T = np.pad(T, ((0, 0), (0, lmax - T.shape[1])), constant_values=v)

    vecs = None if table.vectors is None else table.vectors.astype(dtype, copy=False)
    pooled_parts = []
    per_width = {}
    for w in params.widths:
        lw = lmax - w + 1
        fw = params.filters[w]
        nf = fw.shape[0]
        # resp[o, t, f]: filter f's response at offset o to word t; row V (UNK/PAD) is zero
        words = (fw.transpose(1, 2, 0) if vecs is None
                 else np.tensordot(vecs, fw, axes=(1, 2)).transpose(2, 0, 1))
        resp = np.concatenate([words, np.zeros((w, 1, nf), dtype=dtype)], axis=1)
        conv = np.zeros((len(T), lw, nf), dtype=dtype)
        for o in range(w):
            conv += resp[o][T[:, o: o + lw]]
        conv += params.biases[w]
        act = np.maximum(conv, 0)
        invalid = np.arange(lw)[None, :] > (lens - w)[:, None]
        act = np.where(invalid[:, :, None], -np.inf, act)
        tstar = np.argmax(act, axis=1)  # (n, F); ties -> first position
        pooled = np.take_along_axis(act, tstar[:, None, :], axis=1)[:, 0, :]
        convstar = np.take_along_axis(conv, tstar[:, None, :], axis=1)[:, 0, :]
        pooled_parts.append(pooled.astype(dtype, copy=False))
        per_width[w] = {"tstar": tstar, "relu": convstar > 0}
    features = np.concatenate(pooled_parts, axis=1)
    mask = _dropout_mask(features.shape, dropout_rate, rng, dtype)
    feat_d = features if mask is None else features * mask
    z = feat_d @ params.proj + params.proj_bias
    empty = (title_lens == 0)[:, None]
    out = np.where(empty, 0, np.maximum(z, 0))
    cache = {"T": T, "per_width": per_width, "feat_d": feat_d, "drop": mask,
             "zmask": (z > 0) & ~empty, "table": table}
    return out, cache


def _cnn_backward(params: CnnParams, cache, d_out, want_input_grads):
    T, table = cache["T"], cache["table"]
    n, v = T.shape[0], table.vocab_size
    d_z = d_out * cache["zmask"]
    grads = {"proj": cache["feat_d"].T @ d_z, "proj_bias": d_z.sum(axis=0)}
    d_feat = d_z @ params.proj.T
    if cache["drop"] is not None:
        d_feat = d_feat * cache["drop"]
    if want_input_grads:
        grads["input"] = np.zeros((v, table.dim), dtype=params.proj.dtype)
    p_idx = np.arange(n)[:, None]
    offset = 0
    for w in params.widths:
        fw = params.filters[w]
        nf = fw.shape[0]
        pw = cache["per_width"][w]
        val = d_feat[:, offset: offset + nf] * pw["relu"]
        offset += nf
        grads[f"bias{w}"] = val.sum(axis=0)
        tstar = pw["tstar"]
        # d_resp[o, t, f] sums val[p, f] over the titles p whose max for f has word t at offset o
        d_resp = np.stack([
            scatter_rows((T[p_idx, tstar + o] * nf + np.arange(nf)).ravel(), val.ravel(),
                         (v + 1) * nf).reshape(v + 1, nf)[:v] for o in range(w)])
        if table.vectors is None:
            grads[f"conv{w}"] = d_resp.transpose(2, 0, 1)
        else:
            grads[f"conv{w}"] = np.tensordot(d_resp, table.vectors.astype(fw.dtype, copy=False),
                                             axes=(1, 0)).transpose(1, 0, 2)
        if want_input_grads:
            grads["input"] += np.tensordot(d_resp, fw, axes=([0, 2], [1, 0]))
    return grads


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------

def encode_batch(params, table: WordInputTable, token_ids: np.ndarray, *,
                 dropout_rate: float = 0.0, rng: np.random.Generator | None = None):
    """Encode the rows of a title matrix; returns (n, K) outputs plus a backward cache."""
    if isinstance(params, MovParams):
        return _mov_forward(params, table, token_ids, dropout_rate, rng)
    if isinstance(params, CnnParams):
        return _cnn_forward(params, table, token_ids, dropout_rate, rng)
    raise EncoderError(f"unknown encoder parameters: {type(params)!r}")


def backward_batch(params, cache, d_out: np.ndarray, *, want_input_grads: bool = False):
    """Exact gradients of encode_batch w.r.t. parameters (and, optionally, input vectors)."""
    if d_out.shape[1] != (params.W.shape[1] if isinstance(params, MovParams)
                          else params.proj.shape[1]):
        raise EncoderError(f"output-gradient width {d_out.shape[1]} does not match encoder")
    if isinstance(params, MovParams):
        return _mov_backward(params, cache, d_out, want_input_grads)
    return _cnn_backward(params, cache, d_out, want_input_grads)
