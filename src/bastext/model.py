"""Two-tower basket scorer and trainer.

One encoder produces the embedding vector of a candidate product, a second
encoder with identical architecture but separate weights produces the context
vector of each product already in the basket. The probability that the
candidate joins the basket is sigma(h_candidate . mean of context vectors).
Training minimizes binary cross-entropy over leave-one-out positives plus
uniform negatives resampled fresh at every mini-batch, optimized with Adam.
"""

from __future__ import annotations

import copy
import json
import os
import struct
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.special import expit

from .corpus import Baskets, Catalog, Vocabulary, atomic_write, encode_catalog, leave_one_out
from .encoders import (CnnParams, EncoderError, MovParams, WordInputTable, backward_batch,
                       encode_batch, init_cnn, init_mov)
from .evaluation import ContextScorer, TestCases, rank_cases
from .kernels import scatter_rows, segment_mean

MODEL_MAGIC = b"BSTX"
MODEL_VERSION = 3
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ModelError(RuntimeError):
    pass


@dataclass
class ModelConfig:
    k: int = 64
    negatives: int = 8
    encoder: str = "mov"  # "mov" | "cnn"
    finetune_pretrained: bool = False  # Adam tunes the pretrained word table too
    cnn_widths: tuple[int, ...] = (2, 3)
    cnn_filters: int = 64
    batch_size: int = 1024
    learning_rate: float = 1e-3
    dropout: float = 0.2
    epochs: int = 30
    seed: int = 0
    patience: int = 3
    use_bias: bool = False  # optional global score bias, off by default
    validation_sample: int = 2000  # test cases sampled for per-epoch Recall@20

    def __post_init__(self):
        if min(self.k, self.negatives, self.batch_size, self.epochs, self.patience) < 1:
            raise ModelError("k, negatives, batch_size, epochs and patience must all be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError("dropout must lie in [0, 1)")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ModelError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.encoder not in ("mov", "cnn"):
            raise ModelError(f"unknown encoder kind {self.encoder!r}")
        self.cnn_widths = tuple(self.cnn_widths)


@dataclass
class ModelState:
    config: ModelConfig
    vocab: Vocabulary
    table: WordInputTable
    params_e: MovParams | CnnParams
    params_c: MovParams | CnnParams
    bias: np.ndarray  # scalar, used only when config.use_bias
    catalog_hash: str = ""

    def named_params(self) -> dict[str, np.ndarray]:
        out = {f"E/{k}": v for k, v in self.params_e.as_dict().items()}
        out.update({f"C/{k}": v for k, v in self.params_c.as_dict().items()})
        if self.config.use_bias:
            out["bias"] = self.bias
        if self.config.finetune_pretrained:
            out["table"] = self.table.vectors
        return out

    def file_tensors(self) -> dict[str, np.ndarray]:
        """Every tensor a model file holds: the tuned ones, plus any pretrained word table."""
        out = self.named_params()
        if self.table.vectors is not None:
            out["table"] = self.table.vectors
        return out


@dataclass
class ProductVectors:
    embedding: np.ndarray  # (M, K) rows h_i
    context: np.ndarray  # (M, K) rows h'_i, or a query's context products' rows only


def init_model(config: ModelConfig, vocab: Vocabulary, table: WordInputTable | None = None,
               dtype=np.float32, catalog_hash: str = "") -> ModelState:
    """Fresh model state over `table` (one-hot rows of the vocabulary when None).

    Both towers start from the identical random draw and diverge only through
    their gradients. Starting from the same point makes every candidate/context
    dot product positive for products that share tokens, which bootstraps
    learning: with both outputs ReLU-clamped to the nonnegative orthant,
    independently drawn towers frequently start (and stay) near-orthogonal, and
    whole co-purchase clusters then never receive a usable positive gradient.
    """
    if table is None:
        table = WordInputTable.one_hot(vocab.size)
    if config.finetune_pretrained:  # Adam tunes a copy, not the caller's
        if table.vectors is None:
            raise ModelError("finetune_pretrained needs a pretrained word table")
        table = replace(table, vectors=table.vectors.astype(dtype, copy=True))
    rng = np.random.default_rng(config.seed)
    if config.encoder == "mov":
        params_e = init_mov(table.dim, config.k, rng, dtype)
    else:
        params_e = init_cnn(table.dim, config.k, config.cnn_widths, config.cnn_filters, rng,
                            dtype)
    return ModelState(config, vocab, table, params_e, copy.deepcopy(params_e),
                      np.zeros(1, dtype=dtype), catalog_hash)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

class BastextScorer(ContextScorer):
    """Evaluator-facing scorer over materialized product vectors."""

    def __init__(self, vectors: ProductVectors, bias: float = 0.0):
        self.vectors = vectors
        self.bias = bias

    @property
    def num_products(self) -> int:
        return self.vectors.embedding.shape[0]

    def logits(self, indptr, ctx_flat, case_ids=None) -> np.ndarray:
        """(cases x M) logits: row i is `E @ hbar_i`, hbar_i the mean context vector of case i.

        `np.matmul` over the stack of hbar columns takes one matrix-vector
        product per case, so every row is bitwise the one-case call. A GEMM
        (`hbar @ E.T`) sums in another order and can flip exact ties.
        """
        hbar = segment_mean(self.vectors.context[ctx_flat], indptr)
        return np.matmul(self.vectors.embedding, hbar[:, :, None])[:, :, 0]

    def score_cases(self, indptr, ctx_flat, case_ids) -> np.ndarray:
        return expit(self.logits(indptr, ctx_flat) + self.bias)


# ---------------------------------------------------------------------------
# Loss and optimizer
# ---------------------------------------------------------------------------

def _loss_arrays(state: ModelState, token_ids: np.ndarray,
                 cand_ids: np.ndarray, ex_ctx: np.ndarray,
                 ctx_flat: np.ndarray, ctx_lens: np.ndarray,
                 labels: np.ndarray, training: bool, rng) -> tuple[float, dict[str, np.ndarray]]:
    """Vectorized batch loss + gradients.

    `token_ids` is the catalog's title matrix. `ctx_flat/ctx_lens` describe the
    distinct contexts, concatenated in order; `ex_ctx[e]` names the context of
    example e, so negatives share their positive's context.
    """
    cfg = state.config
    drop = cfg.dropout if training else 0.0
    want_input = cfg.finetune_pretrained

    ucand, cand_inv = np.unique(cand_ids, return_inverse=True)
    uctx, ctx_inv = np.unique(ctx_flat, return_inverse=True)
    he, cache_e = encode_batch(state.params_e, state.table, token_ids[ucand],
                               dropout_rate=drop, rng=rng)
    hc, cache_c = encode_batch(state.params_c, state.table, token_ids[uctx],
                               dropout_rate=drop, rng=rng)
    dtype = he.dtype  # the parameters' dtype

    hbar = segment_mean(hc[ctx_inv], np.concatenate([[0], np.cumsum(ctx_lens)]))

    h_cand = he[cand_inv]
    z = np.einsum("ek,ek->e", h_cand, hbar[ex_ctx])
    if cfg.use_bias:
        z = z + state.bias[0]
    y = (labels > 0).astype(z.dtype)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    if not np.isfinite(loss):
        raise ModelError("non-finite training loss; lower the learning rate or check init")

    g = (expit(z) - y) / len(z)
    d_he = scatter_rows(cand_inv, g[:, None] * hbar[ex_ctx], len(he))
    d_hbar = scatter_rows(ex_ctx, g[:, None] * h_cand, len(hbar))
    lens = ctx_lens.astype(dtype)[:, None]  # an int64 divisor would promote to float64
    d_hc = scatter_rows(ctx_inv, np.repeat(d_hbar / lens, ctx_lens, axis=0), len(hc))

    ge = backward_batch(state.params_e, cache_e, d_he, want_input_grads=want_input)
    gc = backward_batch(state.params_c, cache_c, d_hc, want_input_grads=want_input)
    grads = {f"E/{k}": v for k, v in ge.items() if k != "input"}
    grads.update({f"C/{k}": v for k, v in gc.items() if k != "input"})
    if cfg.use_bias:
        grads["bias"] = np.array([g.sum()], dtype=dtype)
    if want_input:
        grads["table"] = ge.get("input", 0) + gc.get("input", 0)
    return loss, grads


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], moments, t: int,
              lr: float) -> None:
    """Step `t` (from 1) of Adam with bias correction, in place on `params` and on
    `moments`, the pair of first- and second-moment dicts keyed like `params`."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise ModelError(f"missing gradient for parameter {name!r}")
        if g.shape != p.shape:
            raise ModelError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        m, v = moments[0][name], moments[1][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def materialize_product_vectors(state: ModelState, catalog: Catalog) -> ProductVectors:
    """Encode every catalog title through both towers with dropout disabled."""
    token_ids = encode_catalog(catalog, state.vocab)
    emb, _ = encode_batch(state.params_e, state.table, token_ids)
    ctx, _ = encode_batch(state.params_c, state.table, token_ids)
    return ProductVectors(np.ascontiguousarray(emb), np.ascontiguousarray(ctx))


def _sample_negative_matrix(basket_rows: np.ndarray, member_keys: np.ndarray,
                            n: int, num_products: int, rng: np.random.Generator) -> np.ndarray:
    """(b, n) uniform draws per positive, redrawing (in row-major order) ids inside the
    positive's basket; `member_keys` are the sorted `basket * num_products + product` keys."""
    draws = rng.integers(0, num_products, size=(len(basket_rows), n))
    flat = draws.reshape(-1)
    base = np.repeat(basket_rows * num_products, n)
    bad = np.arange(flat.size)
    while True:
        keys = base[bad] + flat[bad]
        at = np.minimum(np.searchsorted(member_keys, keys), len(member_keys) - 1)
        bad = bad[member_keys[at] == keys]
        if not len(bad):
            return draws
        flat[bad] = rng.integers(0, num_products, size=len(bad))


def _validation_recall(state: ModelState, catalog: Catalog, cases: TestCases, n: int = 20) -> float:
    """Recall@n of the raw logits over `cases`."""
    if not len(cases):
        return float("nan")
    scorer = BastextScorer(materialize_product_vectors(state, catalog))
    ranks = rank_cases(scorer.logits, len(catalog), cases)
    return int(np.count_nonzero(ranks <= n)) / len(cases)


def train(config: ModelConfig, train_baskets: Baskets, validation_baskets: Baskets,
          catalog: Catalog, vocab: Vocabulary, table: WordInputTable | None = None,
          log=None) -> tuple[ModelState, list[str]]:
    """Train the model; returns the best-validation state plus a per-epoch log.

    Per epoch: shuffle the leave-one-out positives, draw fresh uniform negatives
    for every mini-batch, update with Adam, then measure Recall@20 on a fixed
    sample of validation test cases. The state with the best validation recall
    is retained; training stops early after `patience` stagnant epochs. Adam's
    moments and step count live only here, never in the model state.
    """
    if not train_baskets:
        raise ModelError("no training baskets")
    state = init_model(config, vocab, table, catalog_hash=catalog.content_hash())
    params = state.named_params()
    moments = ({k: np.zeros_like(p) for k, p in params.items()},
               {k: np.zeros_like(p) for k, p in params.items()})
    token_ids = encode_catalog(catalog, vocab)
    num_products = len(catalog)

    indptr, indices = train_baskets.indptr, train_baskets.indices
    if np.diff(indptr).max() >= num_products:
        raise ModelError("a training basket holds every catalog product; "
                         "no negative can be sampled for it")
    member_keys = np.sort(np.repeat(np.arange(len(train_baskets)), np.diff(indptr))
                          * num_products + indices)
    n_pos = len(indices)

    pos, sample = np.arange(len(validation_baskets.indices)), config.validation_sample
    if len(pos) > sample:  # a fixed sample of the validation cases
        pos = np.sort(np.random.default_rng(config.seed + 9173).choice(len(pos), sample, False))
    val_cases = TestCases.from_positions(validation_baskets, pos)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    lines: list[str] = []
    best = (-np.inf, None)
    stale = step = 0
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n_pos)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_pos, config.batch_size):
            cands, ctx_flat, ctx_lens, bids = leave_one_out(
                indptr, indices, order[start: start + config.batch_size])
            b = len(cands)

            batch_rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence([config.seed, 2, epoch, n_batches])))
            negs = _sample_negative_matrix(bids, member_keys, config.negatives,
                                           num_products, batch_rng)
            cand_ids = np.concatenate([cands, negs.ravel()])
            ex_ctx = np.concatenate([np.arange(b),
                                     np.repeat(np.arange(b), config.negatives)])
            labels = np.concatenate([np.ones(b, dtype=np.int64),
                                     -np.ones(b * config.negatives, dtype=np.int64)])
            loss, grads = _loss_arrays(state, token_ids, cand_ids, ex_ctx, ctx_flat, ctx_lens,
                                       labels, True, batch_rng)
            step += 1
            adam_step(params, grads, moments, step, config.learning_rate)
            epoch_loss += loss
            n_batches += 1
        mean_loss = epoch_loss / max(n_batches, 1)
        recall = _validation_recall(state, catalog, val_cases)
        dt = time.perf_counter() - t0
        line = f"epoch {epoch}\tloss {mean_loss:.6f}\trecall@20 {recall:.4f}\twall {dt:.2f}s"
        lines.append(line)
        if log is not None:
            log(line)
        score_now = recall if np.isfinite(recall) else -mean_loss
        if score_now > best[0]:  # every tensor Adam tunes, a fine-tuned table included
            best = (score_now, {k: p.copy() for k, p in params.items()})
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    for name, p in params.items():
        p[...] = best[1][name]
    return state, lines


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_model(state: ModelState, path) -> None:
    """Binary container: magic, version, JSON header, then f32 tensors row-major LE."""
    tensors = state.file_tensors()
    names = sorted(tensors)
    header = {
        "config": asdict(state.config),
        "vocab": state.vocab.words(),
        "catalog_hash": state.catalog_hash,
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(tensors[n], dtype="<f4").tobytes())


def load_model(path) -> ModelState:
    """The model saved at `path`. Its tensors are writable views of one buffer that the
    file is read into, placed so that they start 4-byte aligned: no tensor is copied."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(16)
            hlen = struct.unpack_from("<Q", head, 8)[0] if len(head) == 16 else 0
            pad = -(16 + hlen) % 4  # puts the first tensor at a multiple of 4 in `data`
            data = bytearray(pad + max(os.fstat(fh.fileno()).st_size, len(head)))
            view = memoryview(data)[pad:]
            view[:len(head)] = head
            size = len(head) + fh.readinto(view[len(head):])
    except OSError as exc:
        raise ModelError(f"{path}: cannot read model file: {exc.strerror}") from exc
    view = view[:size]
    if size < 16 or view[:4] != MODEL_MAGIC:
        raise ModelError(f"{path}: not a model file (bad magic)")
    (version,) = struct.unpack_from("<I", view, 4)
    if version != MODEL_VERSION:
        raise ModelError(f"{path}: unsupported model version {version}")
    if size < 16 + hlen:
        raise ModelError(f"{path}: truncated header")
    try:
        return _decode_model(view, hlen, path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelError(f"{path}: corrupt model header: {exc!r}") from exc
    except EncoderError as exc:
        raise ModelError(f"{path}: {exc}") from exc


def _decode_model(data: memoryview, hlen: int, path) -> ModelState:
    header = json.loads(bytes(data[16: 16 + hlen]).decode("utf-8"))
    cfg_dict = dict(header["config"])
    cfg_dict["cnn_widths"] = tuple(cfg_dict["cnn_widths"])
    config = ModelConfig(**cfg_dict)
    vocab = Vocabulary(dict(zip(header["vocab"], range(len(header["vocab"])))))
    offset = 16 + hlen
    tensors = {}
    for spec in header["tensors"]:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 4 * count
        if count < 0:
            raise ValueError(f"negative dimension in tensor {spec['name']!r}")
        if end > len(data):
            raise ModelError(f"{path}: truncated tensor {spec['name']!r}")
        if spec["name"] in tensors:
            raise ModelError(f"{path}: tensor {spec['name']!r} listed twice")
        tensors[spec["name"]] = np.frombuffer(data, "<f4", count, offset).reshape(shape)
        if not np.isfinite(tensors[spec["name"]]).all():
            raise ModelError(f"{path}: non-finite values in tensor '{spec['name']}'")
        offset = end
    if offset != len(data):
        raise ModelError(f"{path}: {len(data) - offset} trailing bytes after the last tensor")

    # Every tensor is checked against the config and the vocabulary: names and shapes.
    vectors = tensors.get("table")
    if vectors is None:
        table = WordInputTable.one_hot(vocab.size)
    elif vectors.ndim != 2 or len(vectors) != vocab.size:
        raise ModelError(f"{path}: tensor 'table' has shape {vectors.shape}, "
                         f"expected ({vocab.size}, d)")
    else:
        table = WordInputTable.pretrained(vectors)

    def tower(prefix):
        if config.encoder == "mov":
            return MovParams.from_dict(tensors, table.dim, config.k, prefix)
        return CnnParams.from_dict(tensors, table.dim, config.k, config.cnn_widths,
                                   config.cnn_filters, prefix)

    bias = tensors.get("bias", np.zeros(1, dtype=np.float32))
    if bias.shape != (1,):
        raise ModelError(f"{path}: tensor 'bias' has shape {bias.shape}, expected (1,)")
    state = ModelState(config, vocab, table, tower("E/"), tower("C/"), bias,
                       header["catalog_hash"])
    if odd := sorted(tensors.keys() ^ state.file_tensors().keys()):  # bias, table, extras
        kind = "unexpected" if odd[0] in tensors else "missing"
        raise ModelError(f"{path}: {kind} tensor {odd[0]!r}")
    return state


def check_catalog_hash(state: ModelState, catalog: Catalog) -> bool:
    """True when the catalog matches the one the model was trained on."""
    return state.catalog_hash == catalog.content_hash()
