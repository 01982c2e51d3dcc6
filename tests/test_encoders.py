import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from bastext.corpus import Catalog, build_vocabulary, title_matrix
from bastext.encoders import (CnnParams, EncoderError, MovParams, WordInputTable,
                              _mean_matrix, backward_batch, encode_batch, init_cnn, init_mov,
                              load_pretrained_vectors)

F64 = np.float64


def _rand_tokens(rng, n, v):
    return [rng.integers(0, v, size=rng.integers(1, 6)).astype(np.int64) for _ in range(n)]


def _encode(params, table, toks):
    """One token sequence through `encode_batch`: its (K,) output vector."""
    out, _ = encode_batch(params, table, title_matrix([toks], table.vocab_size))
    return out[0]


# ---------------------------------------------------------------------------
# MoV forward
# ---------------------------------------------------------------------------

def test_mov_identity_one_token():
    v = 4
    table = WordInputTable.one_hot(v)
    params = MovParams(np.eye(v, dtype=F64))
    out = _encode(params, table, np.array([2]))
    assert np.array_equal(out, np.eye(v)[2])


def test_mov_negative_weights_relu_zero():
    table = WordInputTable.one_hot(3)
    params = MovParams(-np.ones((3, 5), dtype=F64))
    out = _encode(params, table, np.array([0, 1]))
    assert np.array_equal(out, np.zeros(5))


def test_mov_matches_dense_oracle():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 4))
    table = WordInputTable.one_hot(5)
    toks = np.array([1, 3, 3])
    out = _encode(MovParams(w), table, toks)
    expected = np.maximum(w[toks].mean(axis=0), 0.0)
    assert np.allclose(out, expected, atol=1e-12)


def test_mov_unk_counts_in_denominator():
    # UNK contributes a zero vector but still divides the mean
    rng = np.random.default_rng(1)
    w = np.abs(rng.normal(size=(3, 4)))
    table = WordInputTable.one_hot(3)
    with_unk = _encode(MovParams(w), table, np.array([0, 3]))  # 3 == UNK for V=3
    alone = _encode(MovParams(w), table, np.array([0]))
    assert np.allclose(with_unk, alone / 2.0)


def test_mov_empty_tokens_degenerate():
    table = WordInputTable.one_hot(3)
    out = _encode(MovParams(np.ones((3, 2))), table, np.array([], dtype=np.int64))
    assert np.array_equal(out, np.zeros(2))


def test_mov_order_invariance():
    rng = np.random.default_rng(2)
    params = MovParams(rng.normal(size=(6, 4)))
    table = WordInputTable.one_hot(6)
    a = _encode(params, table, np.array([0, 2, 5]))
    b = _encode(params, table, np.array([5, 0, 2]))
    assert np.array_equal(a, b)


def test_mov_preactivation_homogeneity():
    # scaling the pretrained input vectors by c scales pre-ReLU activations by c
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(5, 3))
    params = MovParams(rng.normal(size=(3, 4)))
    toks = np.array([0, 2])
    for c in (0.5, 2.0, 7.0):
        a = _encode(params, WordInputTable.pretrained(vecs), toks)
        b = _encode(params, WordInputTable.pretrained(c * vecs), toks)
        # compare through ReLU on a nonnegative reference point: use pre-activation caches
        pre_a = vecs[toks].mean(axis=0) @ params.W
        pre_b = (c * vecs)[toks].mean(axis=0) @ params.W
        assert np.allclose(pre_b, c * pre_a, atol=1e-12)
        assert np.allclose(b, np.maximum(c * pre_a, 0), atol=1e-12)
        assert np.allclose(a, np.maximum(pre_a, 0), atol=1e-12)


def _mean_matrix_per_row(token_ids, vocab_size, dtype):
    """Reference: row p holds 1/|s_p| at each in-vocabulary token of title p."""
    rows, cols, vals = [], [], []
    for p, toks in enumerate(token_ids):
        if len(toks) == 0:
            continue
        inv = 1.0 / len(toks)
        valid = toks[toks < vocab_size]
        rows.append(np.full(len(valid), p, dtype=np.int64))
        cols.append(valid)
        vals.append(np.full(len(valid), inv, dtype=dtype))
    if rows:
        rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0, dtype=dtype)
    m = sparse.coo_matrix((vals, (rows, cols)), shape=(len(token_ids), vocab_size)).tocsr()
    m.sum_duplicates()
    return m


@settings(max_examples=100, deadline=None)
@given(v=st.integers(1, 6), dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
def test_mean_matrix_matches_per_row_definition(v, dtype, data):
    """Empty titles, all-UNK titles (token V) and repeated tokens, compared exactly."""
    titles = data.draw(st.lists(st.lists(st.integers(0, v), max_size=6), max_size=8))
    got = _mean_matrix(title_matrix(titles, v), v, dtype)
    want = _mean_matrix_per_row([np.array(t, dtype=np.int64) for t in titles], v, dtype)
    assert got.shape == want.shape
    assert got.dtype == want.dtype == dtype
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_encoder_outputs_nonnegative(seed):
    rng = np.random.default_rng(seed)
    v, k = 7, 5
    table = WordInputTable.one_hot(v)
    mov = init_mov(v, k, rng, F64)
    cnn = init_cnn(v, k, (2, 3), 3, rng, F64)
    toks = rng.integers(0, v + 1, size=rng.integers(1, 6)).astype(np.int64)
    assert np.all(_encode(mov, table, toks) >= 0)
    assert np.all(_encode(cnn, table, toks) >= 0)


# ---------------------------------------------------------------------------
# CNN forward
# ---------------------------------------------------------------------------

def test_cnn_zero_filters_gives_relu_proj_bias():
    rng = np.random.default_rng(4)
    params = init_cnn(5, 4, (2, 3), 3, rng, F64)
    for w in params.widths:
        params.filters[w][:] = 0.0
    params.proj_bias[:] = rng.normal(size=4)
    table = WordInputTable.one_hot(5)
    out = _encode(params, table, np.array([0, 1, 2]))
    assert np.allclose(out, np.maximum(params.proj_bias, 0), atol=1e-12)


def test_cnn_short_title_equals_explicit_padding():
    rng = np.random.default_rng(5)
    params = init_cnn(5, 4, (2, 3), 3, rng, F64)
    table = WordInputTable.one_hot(5)
    short = _encode(params, table, np.array([1]))
    padded = _encode(params, table, np.array([1, 5, 5]))  # 5 == UNK/pad id for V=5
    assert np.allclose(short, padded, atol=1e-12)


def test_cnn_hand_computed_single_filter():
    # width-2 single filter over 3 one-hot tokens, identity-ish projection
    v, k = 3, 2
    table = WordInputTable.one_hot(v)
    filt = np.zeros((1, 2, v))
    filt[0, 0, 0] = 1.0  # fires when token 0 is first in the window
    filt[0, 1, 2] = 2.0  # plus 2 when token 2 follows
    proj = np.array([[1.0, -1.0]])
    params = CnnParams((2,), {2: filt}, {2: np.zeros(1)}, proj, np.zeros(k))
    out = _encode(params, table, np.array([0, 2, 1]))
    # windows: (0,2) -> 1+2 = 3; (2,1) -> 0; max-pool = 3; proj -> (3, -3); ReLU -> (3, 0)
    assert np.allclose(out, [3.0, 0.0], atol=1e-12)


def test_cnn_order_sensitivity():
    rng = np.random.default_rng(6)
    params = init_cnn(6, 4, (2,), 4, rng, F64)
    table = WordInputTable.one_hot(6)
    a = _encode(params, table, np.array([0, 1, 2]))
    b = _encode(params, table, np.array([2, 1, 0]))
    assert not np.allclose(a, b)


def test_cnn_empty_tokens_degenerate():
    rng = np.random.default_rng(7)
    params = init_cnn(4, 3, (2, 3), 2, rng, F64)
    table = WordInputTable.one_hot(4)
    out = _encode(params, table, np.array([], dtype=np.int64))
    assert np.array_equal(out, np.zeros(3))


def test_cnn_onehot_equals_pretrained_identity():
    """An identity table gives one-hot's outputs and gradients bit for bit: both run the
    same convolution over per-word responses, which the identity leaves unchanged."""
    rng = np.random.default_rng(8)
    v = 5
    toks = title_matrix([[0, 3, 2, 4], [1, v, 1], [4]], v)
    for dtype in (np.float32, F64):
        params = init_cnn(v, 4, (2, 3), 3, rng, dtype)
        for w in params.widths:
            params.biases[w][:] = rng.normal(0, 0.3, size=3)
        probe = rng.normal(size=(3, 4)).astype(dtype)
        results = []
        for table in (WordInputTable.one_hot(v),
                      WordInputTable.pretrained(np.eye(v, dtype=dtype))):
            out, cache = encode_batch(params, table, toks)
            results.append((out, backward_batch(params, cache, probe, want_input_grads=True)))
        (a, ga), (b, gb) = results
        assert a.dtype == dtype and np.array_equal(a, b)
        assert ga.keys() == gb.keys() == params.as_dict().keys() | {"input"}
        for name in ga:
            assert ga[name].dtype == dtype and np.array_equal(ga[name], gb[name]), (dtype, name)


def test_init_cnn_rejects_bad_widths():
    rng = np.random.default_rng(9)
    with pytest.raises(EncoderError):
        init_cnn(4, 3, (3, 2), 2, rng)


def test_from_dict_inverts_as_dict_and_checks_every_shape():
    """`from_dict(as_dict())` gives back the same arrays; a tensor of another shape than
    the dimensions imply, or a missing one, is an `EncoderError` naming it."""
    rng = np.random.default_rng(9)
    for params, dims in ((init_mov(6, 4, rng), (6, 4)),
                         (init_cnn(6, 4, (2, 3), 3, rng), (6, 4, (2, 3), 3))):
        tensors = params.as_dict()
        back = type(params).from_dict(tensors, *dims).as_dict()
        assert back.keys() == tensors.keys()
        assert all(back[name] is t for name, t in tensors.items())
        for i in range(len(dims)):  # input dim, K, widths, filters: each is checked
            wrong = dims[:i] + (((2,) if i == 2 else dims[i] + 1),) + dims[i + 1:]
            with pytest.raises(EncoderError, match="tensor '.*' has shape .*, expected"):
                type(params).from_dict(tensors, *wrong)
        with pytest.raises(EncoderError, match="missing tensor 'E/"):
            type(params).from_dict(tensors, *dims, prefix="E/")
    with pytest.raises(EncoderError, match="filter widths"):
        CnnParams.from_dict({}, 6, 4, (), 3)


# ---------------------------------------------------------------------------
# Backward: finite differences
# ---------------------------------------------------------------------------

def _fd_check(params, table, toks, rng, eps=1e-6, tol=1e-7, want_input_grads=False):
    """Compare analytic encoder gradients against central differences on a
    random scalar projection of the output; with `want_input_grads`, also the
    gradient of the pretrained input vectors (`grads["input"]`)."""
    out, cache = encode_batch(params, table, title_matrix([toks], table.vocab_size))
    probe = rng.normal(size=out.shape[1])
    grads = backward_batch(params, cache, probe[None, :], want_input_grads=want_input_grads)
    tensors = params.as_dict()
    if want_input_grads:
        tensors["input"] = table.vectors
    for name, tensor in tensors.items():
        g = grads[name]
        flat = tensor.ravel()
        for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            fp = float(_encode(params, table, toks) @ probe)
            flat[idx] = orig - eps
            fm = float(_encode(params, table, toks) @ probe)
            flat[idx] = orig
            num = (fp - fm) / (2 * eps)
            ana = g.ravel()[idx]
            assert abs(num - ana) <= tol * max(1.0, abs(num), abs(ana)), \
                f"{name}[{idx}]: analytic {ana} vs numeric {num}"


def test_mov_gradient_finite_differences():
    rng = np.random.default_rng(10)
    v, k = 8, 5
    table = WordInputTable.one_hot(v)
    for _ in range(5):
        params = init_mov(v, k, rng, F64)
        toks = rng.integers(0, v + 1, size=rng.integers(1, 5)).astype(np.int64)
        _fd_check(params, table, toks, rng)


def test_cnn_gradient_finite_differences():
    rng = np.random.default_rng(11)
    v, k = 8, 5
    table = WordInputTable.one_hot(v)
    for _ in range(5):
        params = init_cnn(v, k, (2, 3), 3, rng, F64)
        for w in params.widths:
            # keep pre-activations away from the exact ReLU kink that zero
            # biases put padded windows on (subgradient-0 vs central diffs)
            params.biases[w][:] = rng.normal(0, 0.3, size=params.biases[w].shape)
        params.proj_bias[:] = rng.normal(0, 0.3, size=params.proj_bias.shape)
        toks = rng.integers(0, v, size=rng.integers(1, 6)).astype(np.int64)
        _fd_check(params, table, toks, rng)


def test_pretrained_cnn_gradient_finite_differences():
    """Parameter and fine-tuning input gradients over a pretrained table."""
    rng = np.random.default_rng(12)
    v, d, k = 6, 4, 3
    table = WordInputTable.pretrained(rng.normal(size=(v, d)))
    params = init_cnn(d, k, (2,), 3, rng, F64)
    params.biases[2][:] = rng.normal(0, 0.3, size=3)
    params.proj_bias[:] = rng.normal(0, 0.3, size=k)
    toks = rng.integers(0, v, size=4).astype(np.int64)
    _fd_check(params, table, toks, rng)
    # a repeated word and an UNK (which has no input vector) in one title
    _fd_check(params, table, np.array([1, 4, 1, v, 3]), rng, want_input_grads=True)


def test_pretrained_mov_gradient_finite_differences():
    """Parameter and fine-tuning input gradients over a pretrained table."""
    rng = np.random.default_rng(17)
    v, d, k = 6, 4, 3
    table = WordInputTable.pretrained(rng.normal(size=(v, d)))
    for toks in (np.array([2]), np.array([1, 4, 1, v, 3])):
        _fd_check(init_mov(d, k, rng, F64), table, toks, rng, want_input_grads=True)


def test_zero_output_gradient_gives_zero_param_gradients():
    rng = np.random.default_rng(13)
    table = WordInputTable.one_hot(6)
    for params in (init_mov(6, 4, rng, F64), init_cnn(6, 4, (2,), 2, rng, F64)):
        _, cache = encode_batch(params, table, title_matrix([[1, 2]], 6))
        grads = backward_batch(params, cache, np.zeros((1, 4)))
        for g in grads.values():
            if isinstance(g, np.ndarray):
                assert not np.any(g)


def test_mov_backward_single_token_row():
    rng = np.random.default_rng(14)
    v, k = 5, 3
    params = MovParams(rng.normal(size=(v, k)))
    table = WordInputTable.one_hot(v)
    _, cache = encode_batch(params, table, title_matrix([[2]], v))
    probe = rng.normal(size=k)
    grads = backward_batch(params, cache, probe[None, :])
    relu_mask = (params.W[2] > 0).astype(float)
    expected = probe * relu_mask  # |s| = 1
    assert np.allclose(grads["W"][2], expected, atol=1e-12)
    other = np.delete(grads["W"], 2, axis=0)
    assert not np.any(other)


# ---------------------------------------------------------------------------
# Batch interface and dropout
# ---------------------------------------------------------------------------

def test_encode_batch_matches_single_calls():
    rng = np.random.default_rng(15)
    v, k = 9, 4
    table = WordInputTable.one_hot(v)
    toks = _rand_tokens(rng, 12, v) + [np.zeros(0, dtype=np.int64), np.array([v, 1])]
    # rows of a wider matrix, as the loss slices them from the catalog's: PAD past every title
    wide = title_matrix(toks + [np.zeros(9, dtype=np.int64)], v)[:-1]
    for params in (init_mov(v, k, rng, F64), init_cnn(v, k, (2, 3), 3, rng, F64)):
        vecs, _ = encode_batch(params, table, title_matrix(toks, v))
        assert np.array_equal(encode_batch(params, table, wide)[0], vecs)
        for i, t in enumerate(toks):
            assert np.allclose(vecs[i], _encode(params, table, t), atol=1e-12)


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(16)
    v, k = 6, 400
    params = MovParams(np.abs(rng.normal(size=(v, k))))  # all-positive: ReLU inactive
    table = WordInputTable.one_hot(v)
    toks = title_matrix([[0, 1]], v)
    base, _ = encode_batch(params, table, toks)
    dropped, _ = encode_batch(params, table, toks, dropout_rate=0.2,
                              rng=np.random.default_rng(99))
    kept = dropped != 0
    assert 0.6 < kept.mean() < 0.95  # roughly 80% of units kept
    assert np.allclose(dropped[kept], base[kept] / 0.8, atol=1e-9)


def test_load_pretrained_vectors(tmp_path):
    cat = Catalog(["x"], ["alpha beta gamma"])
    vocab = build_vocabulary(cat)
    f = tmp_path / "vecs.txt"
    f.write_text("alpha 1 0 0 0\nbeta 0 1 0 0\nunrelated 9 9 9 9\n")
    table, coverage = load_pretrained_vectors(f, vocab)
    assert table.dim == 4
    assert coverage == pytest.approx(2 / 3)
    assert np.array_equal(table.vectors[vocab.word_to_index["gamma"]], np.zeros(4))


@pytest.mark.parametrize("line, expect", [
    (b"beta 0 abc\n", "vecs.txt:2: non-numeric vector component"),
    (b"beta inf 1\n", "vecs.txt:2: non-finite vector component"),
    (b"beta 1e50 1\n", "vecs.txt:2: non-finite vector component"),  # overflows float32
    (b"b\xe9ta 0 1\n", "vecs.txt:2: invalid UTF-8"),
], ids=["text", "inf", "overflow", "utf8"])
def test_load_pretrained_vectors_bad_line_fatal(tmp_path, line, expect):
    cat = Catalog(["x"], ["alpha beta"])
    vocab = build_vocabulary(cat)
    f = tmp_path / "vecs.txt"
    f.write_bytes(b"alpha 1 0\n" + line)
    with pytest.raises(EncoderError, match=expect):
        load_pretrained_vectors(f, vocab)


def test_load_pretrained_vectors_checks_only_vocabulary_lines(tmp_path):
    """Only a vocabulary word's line is parsed; other lines need only the right width."""
    cat = Catalog(["x"], ["alpha"])
    vocab = build_vocabulary(cat)
    f = tmp_path / "vecs.txt"
    f.write_text("other nan abc\nalpha 1 2\n")
    table, coverage = load_pretrained_vectors(f, vocab)
    assert coverage == 1.0
    assert np.array_equal(table.vectors[vocab.word_to_index["alpha"]], [1.0, 2.0])


def test_load_pretrained_vectors_dim_mismatch(tmp_path):
    cat = Catalog(["x"], ["alpha beta"])
    vocab = build_vocabulary(cat)
    f = tmp_path / "vecs.txt"
    f.write_text("alpha 1 0\nbeta 0 1 3\n")
    with pytest.raises(EncoderError):
        load_pretrained_vectors(f, vocab)


def test_load_pretrained_vectors_no_match(tmp_path):
    cat = Catalog(["x"], ["alpha"])
    vocab = build_vocabulary(cat)
    f = tmp_path / "vecs.txt"
    f.write_text("other 1 2\n")
    with pytest.raises(EncoderError):
        load_pretrained_vectors(f, vocab)
