import numpy as np
import pytest
from scipy.special import expit

import bastext.model as M
from bastext.corpus import build_vocabulary, split_warm, title_matrix
from bastext.encoders import WordInputTable
from bastext.model import (BastextScorer, ModelConfig, ModelError, adam_step,
                           check_catalog_hash, init_model, load_model,
                           materialize_product_vectors, save_model, train)
from bastext.synthetic import make_planted_corpus, make_random_corpus

from conftest import make_baskets


def _small_state(tiny_vocab, encoder="mov", seed=0, **kw):
    cfg = ModelConfig(k=6, negatives=2, encoder=encoder, seed=seed, dropout=0.0,
                      cnn_filters=3, **kw)
    return cfg, init_model(cfg, tiny_vocab, dtype=np.float64)


# ---------------------------------------------------------------------------
# Config validation and initialization
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ModelError):
        ModelConfig(k=0)
    with pytest.raises(ModelError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ModelError):
        ModelConfig(encoder="rnn")
    for patience in (0, -5):
        with pytest.raises(ModelError, match="patience"):
            ModelConfig(patience=patience)
    for lr in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ModelError, match="learning_rate"):
            ModelConfig(learning_rate=lr)


def test_towers_not_aliased(tiny_vocab):
    _, state = _small_state(tiny_vocab)
    assert state.params_e.W is not state.params_c.W
    assert np.array_equal(state.params_e.W, state.params_c.W)  # tied start
    state.params_e.W[0, 0] += 1.0
    assert not np.array_equal(state.params_e.W, state.params_c.W)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def test_score_zero_embedding_is_half():
    vecs = M.ProductVectors(np.zeros((3, 4)), np.ones((3, 4)))
    assert BastextScorer(vecs).score_all(np.array([1, 2]))[0] == 0.5


def test_score_saturation():
    k = 64
    vecs = M.ProductVectors(np.ones((2, k)), np.ones((2, k)))
    assert BastextScorer(vecs).score_all(np.array([1]))[0] == pytest.approx(1.0, abs=1e-12)


def test_score_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    emb, ctx = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    vecs = M.ProductVectors(emb, ctx)
    ids = np.array([2, 4, 5])
    expected = expit(float(np.dot(emb[1], ctx[ids].mean(axis=0))))
    assert BastextScorer(vecs).score_all(ids)[1] == pytest.approx(expected, abs=1e-12)


def test_score_all_ranking_equals_dot_ranking():
    rng = np.random.default_rng(1)
    emb, ctx = rng.normal(size=(20, 5)), rng.normal(size=(20, 5))
    vecs = M.ProductVectors(emb, ctx)
    scorer = BastextScorer(vecs)
    context = np.array([3, 7])
    probs = scorer.score_all(context)
    dots = emb @ ctx[context].mean(axis=0)
    assert np.array_equal(np.argsort(-probs), np.argsort(-dots))


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def _one_example_loss(state, token_ids, context, candidate, label):
    return M._loss_arrays(state, token_ids, np.array([candidate]), np.zeros(1, dtype=np.int64),
                          np.array(context, dtype=np.int64), np.array([len(context)]),
                          np.array([label]), False, None)


def test_single_positive_at_init_loss_ln2(tiny_vocab, tiny_tokens):
    # make every encoder output zero so mu = 0.5 exactly
    _, state = _small_state(tiny_vocab)
    state.params_e.W[:] = -1.0
    state.params_c.W[:] = -1.0
    loss, _ = _one_example_loss(state, tiny_tokens, [1, 2], 0, +1)
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_single_negative_zero_embedding_loss_ln2(tiny_vocab, tiny_tokens):
    _, state = _small_state(tiny_vocab)
    state.params_e.W[:] = -1.0  # candidate side h = 0 -> mu = 0.5
    loss, _ = _one_example_loss(state, tiny_tokens, [1, 2], 0, -1)
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_rejects_empty_context(tiny_vocab, tiny_tokens):
    _, state = _small_state(tiny_vocab)
    with pytest.raises(ValueError, match="non-empty segments"):
        _one_example_loss(state, tiny_tokens, [], 0, +1)


def _full_model_fd(state, batch, token_ids, tol=1e-6):
    """Central differences of `_loss_arrays` against its gradients; `batch` is arguments 3-7."""
    loss, grads = M._loss_arrays(state, token_ids, *batch, False, None)
    eps = 1e-6
    rng = np.random.default_rng(77)
    for name, p in state.named_params().items():
        flat = p.ravel()
        for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp, _ = M._loss_arrays(state, token_ids, *batch, False, None)
            flat[idx] = orig - eps
            lm, _ = M._loss_arrays(state, token_ids, *batch, False, None)
            flat[idx] = orig
            num = (lp - lm) / (2 * eps)
            ana = grads[name].ravel()[idx]
            assert abs(num - ana) <= tol * max(1.0, abs(num), abs(ana)), \
                f"{name}[{idx}]: analytic {ana} vs numeric {num}"


def _random_batch(loss_batch, rng, num_products=5, n_pos=2, n_neg=2):
    baskets = make_baskets(*[rng.choice(num_products, size=3, replace=False)
                             for _ in range(n_pos)])
    return loss_batch(baskets, n_neg, num_products, rng)


def test_full_model_gradients_mov(tiny_vocab, tiny_tokens, loss_batch):
    rng = np.random.default_rng(3)
    _, state = _small_state(tiny_vocab, seed=1)
    _full_model_fd(state, _random_batch(loss_batch, rng), tiny_tokens)


def test_full_model_gradients_cnn(tiny_vocab, tiny_tokens, loss_batch):
    rng = np.random.default_rng(4)
    _, state = _small_state(tiny_vocab, encoder="cnn", seed=1)
    for prm in (state.params_e, state.params_c):
        for w in prm.widths:
            prm.biases[w][:] = rng.normal(0, 0.3, size=prm.biases[w].shape)
        prm.proj_bias[:] = rng.normal(0, 0.3, size=prm.proj_bias.shape)
    _full_model_fd(state, _random_batch(loss_batch, rng), tiny_tokens)


def test_full_model_gradients_with_bias(tiny_vocab, tiny_tokens, loss_batch):
    rng = np.random.default_rng(5)
    _, state = _small_state(tiny_vocab, seed=2, use_bias=True)
    state.bias[0] = 0.3
    _full_model_fd(state, _random_batch(loss_batch, rng), tiny_tokens)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _zero_moments(params):
    """Adam's first and second moments at step 0, keyed like `params`."""
    return ({k: np.zeros_like(p) for k, p in params.items()},
            {k: np.zeros_like(p) for k, p in params.items()})


def test_adam_zero_gradient_keeps_parameters(tiny_vocab):
    cfg, state = _small_state(tiny_vocab)
    params = state.named_params()
    before = {k: v.copy() for k, v in params.items()}
    moments = _zero_moments(params)
    adam_step(params, {k: np.zeros_like(v) for k, v in before.items()}, moments, 1,
              cfg.learning_rate)
    for k, v in state.named_params().items():
        assert np.array_equal(v, before[k])
        assert not moments[0][k].any() and not moments[1][k].any()


def test_adam_first_step_magnitude(tiny_vocab):
    cfg, state = _small_state(tiny_vocab)
    params = state.named_params()
    before = state.params_e.W.copy()
    grads = {k: np.ones_like(v) for k, v in params.items()}
    adam_step(params, grads, _zero_moments(params), 1, cfg.learning_rate)
    delta = before - state.params_e.W
    # bias-corrected first step with g=1 moves by ~lr (up to eps)
    assert np.allclose(delta, cfg.learning_rate, rtol=1e-6)


def test_adam_trajectory_matches_scalar_oracle(tiny_vocab):
    cfg, state = _small_state(tiny_vocab)
    lr, b1, b2, eps = cfg.learning_rate, M.ADAM_BETA1, M.ADAM_BETA2, M.ADAM_EPS
    # independent scalar Adam on f(x) = 0.5 x^2 starting from W[0,0]
    x = float(state.params_e.W[0, 0])
    m = v = 0.0
    traj = []
    for t in range(1, 6):
        g = x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        traj.append(x)
    # drive every tuned tensor with gradients that are zero except that one entry
    params = state.named_params()
    moments = _zero_moments(params)
    got = []
    for t in range(1, 6):
        grads = {k: np.zeros_like(p) for k, p in params.items()}
        grads["E/W"][0, 0] = state.params_e.W[0, 0]
        adam_step(params, grads, moments, t, lr)
        got.append(float(state.params_e.W[0, 0]))
    assert np.allclose(got, traj, atol=1e-10)


def test_adam_missing_or_misshaped_gradient_fatal(tiny_vocab):
    cfg, state = _small_state(tiny_vocab)
    params = state.named_params()
    moments = _zero_moments(params)
    with pytest.raises(ModelError, match="missing gradient"):
        adam_step(params, {}, moments, 1, cfg.learning_rate)
    bad = {k: np.zeros((1,)) for k in params}
    with pytest.raises(ModelError, match="gradient shape"):
        adam_step(params, bad, moments, 1, cfg.learning_rate)


def test_train_owns_the_adam_moments(monkeypatch):
    """`train` makes one pair of zero moments for exactly the tensors it tunes, in their
    dtype, passes the same pair to every step and counts the steps from 1."""
    calls = []

    def recording(params, grads, moments, t, lr):
        if not calls:
            assert not any(m.any() for moment in moments for m in moment.values())
        calls.append((params, moments, t, lr))
        return adam_step(params, grads, moments, t, lr)

    monkeypatch.setattr(M, "adam_step", recording)
    _, _, state, _ = _train_small(epochs=2)
    params, moments = calls[0][0], calls[0][1]
    assert all(c[0] is params and c[1] is moments for c in calls)
    assert [c[2] for c in calls] == list(range(1, len(calls) + 1)) and len(calls) > 2
    assert {c[3] for c in calls} == {state.config.learning_rate}
    assert params.keys() == moments[0].keys() == moments[1].keys() == state.named_params().keys()
    for name, p in state.named_params().items():
        assert params[name] is p
        assert moments[0][name].dtype == moments[1][name].dtype == p.dtype == np.float32


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _train_small(seed=0, epochs=3, **kw):
    cat, baskets = make_random_corpus(30, 300, seed=8)
    vocab = build_vocabulary(cat)
    sp = split_warm(baskets, seed=1)
    cfg = ModelConfig(k=8, negatives=2, batch_size=64, epochs=epochs, seed=seed,
                      patience=10, validation_sample=50, **kw)
    state, log = train(cfg, sp.train, sp.validation, cat, vocab)
    return cat, vocab, state, log


def test_train_empty_fatal(tiny_catalog, tiny_vocab):
    cfg = ModelConfig(k=4)
    with pytest.raises(ModelError):
        train(cfg, make_baskets(), make_baskets(), tiny_catalog, tiny_vocab)


def _csr_keys(baskets, m):
    indptr, indices = baskets.indptr, baskets.indices
    return np.sort(np.repeat(np.arange(len(baskets)), np.diff(indptr)) * m + indices)


def test_sample_negative_matrix_excludes_own_basket_only():
    m = 6
    # basket 0 holds product M-1; basket 1 holds every product but M-1, so its
    # one legal draw has a key past the last member key
    baskets = make_baskets([1, 5], range(5))
    rows = np.array([0, 1, 0, 1])
    draws = M._sample_negative_matrix(rows, _csr_keys(baskets, m), 50, m,
                                      np.random.default_rng(0))
    assert draws.shape == (4, 50)
    assert np.all(draws[rows == 1] == 5)
    assert set(draws[rows == 0].ravel().tolist()) == {0, 2, 3, 4}


def test_sample_negative_matrix_matches_bitmap_reference():
    """Same draws, consumed from the RNG in the same order, as a dense-bitmap sampler."""
    def bitmap_sampler(rows, members, n, m, rng):
        bitmap = np.zeros((len(members), m), dtype=bool)
        for r, ids in enumerate(members):
            bitmap[r, ids] = True
        draws = rng.integers(0, m, size=(len(rows), n))
        bad = bitmap[rows[:, None], draws]
        while bad.any():
            draws[bad] = rng.integers(0, m, size=int(bad.sum()))
            bad = bitmap[rows[:, None], draws]
        return draws

    rng = np.random.default_rng(5)
    for m in (3, 7, 40):
        baskets = make_baskets(*[rng.choice(m, size=rng.integers(1, m), replace=False)
                                 for _ in range(6)])
        rows = rng.integers(0, len(baskets), size=30)
        members = list(baskets)
        got = M._sample_negative_matrix(rows, _csr_keys(baskets, m), 4, m,
                                        np.random.default_rng(m))
        want = bitmap_sampler(rows, members, 4, m, np.random.default_rng(m))
        assert np.array_equal(got, want)


def test_train_basket_covering_catalog_fatal(tiny_catalog, tiny_vocab):
    """No negative exists for a basket holding every product: fail fast, never hang."""
    import signal

    def hang(signum, frame):
        raise AssertionError("train did not return")

    baskets = make_baskets([0, 1], range(len(tiny_catalog)))
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        with pytest.raises(ModelError, match="every catalog product"):
            train(ModelConfig(k=4, epochs=1), baskets, make_baskets(), tiny_catalog,
                  tiny_vocab)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_train_loss_decreases_and_log_format():
    cat, baskets, _, _ = make_planted_corpus(num_baskets=500)
    vocab = build_vocabulary(cat)
    sp = split_warm(baskets, seed=1)
    cfg = ModelConfig(k=8, negatives=2, batch_size=64, epochs=5, seed=0,
                      dropout=0.0, patience=10, validation_sample=50)
    _, log = train(cfg, sp.train, sp.validation, cat, vocab)
    losses = [float(line.split("\t")[1].split()[1]) for line in log]
    assert losses[-1] < np.log(2.0)  # below the initialization plateau
    for line in log:
        fields = line.split("\t")
        assert fields[0].startswith("epoch ")
        assert fields[1].startswith("loss ")
        assert fields[2].startswith("recall@20 ")
        assert fields[3].startswith("wall ")


def test_train_deterministic():
    _, _, a, log_a = _train_small(seed=3)
    _, _, b, log_b = _train_small(seed=3)
    # wall times differ; everything else must match bit-exactly
    strip = lambda log: [line.rsplit("\t", 1)[0] for line in log]
    assert strip(log_a) == strip(log_b)
    for k in a.named_params():
        assert np.array_equal(a.named_params()[k], b.named_params()[k])


def test_finetune_tunes_a_copy_of_the_callers_table():
    """Two identical fine-tuning runs from one table agree, and the table itself is unchanged."""
    cat, baskets = make_random_corpus(30, 300, seed=8)
    vocab = build_vocabulary(cat)
    sp = split_warm(baskets, seed=1)
    vectors = np.random.default_rng(0).normal(size=(vocab.size, 4)).astype(np.float32)
    table = WordInputTable.pretrained(vectors.copy())
    cfg = ModelConfig(k=8, negatives=2, batch_size=64, epochs=2, seed=0, patience=10,
                      validation_sample=50, finetune_pretrained=True)
    a, _ = train(cfg, sp.train, sp.validation, cat, vocab, table)
    b, _ = train(cfg, sp.train, sp.validation, cat, vocab, table)
    assert np.array_equal(table.vectors, vectors)
    assert not np.array_equal(a.table.vectors, vectors)  # the run's own copy was tuned
    assert a.named_params().keys() == b.named_params().keys()
    for k in a.named_params():
        assert np.array_equal(a.named_params()[k], b.named_params()[k]), k


def test_best_epoch_snapshot_includes_finetuned_table():
    """With a best epoch before the last, every tuned tensor (the fine-tuned table too) is
    the one a run stopped at the best epoch returns, byte for byte."""
    cat, baskets = make_random_corpus(30, 300, seed=8)
    vocab = build_vocabulary(cat)
    sp = split_warm(baskets, seed=1)
    vectors = np.random.default_rng(0).normal(size=(vocab.size, 4)).astype(np.float32)

    def run(epochs):
        cfg = ModelConfig(k=8, negatives=2, batch_size=64, epochs=epochs, seed=0,
                          patience=10, learning_rate=5e-3, validation_sample=50,
                          finetune_pretrained=True)
        return train(cfg, sp.train, sp.validation, cat, vocab,
                     WordInputTable.pretrained(vectors.copy()))

    full, log = run(4)
    recalls = [float(line.split("\t")[2].split()[1]) for line in log]
    best = int(np.argmax(recalls)) + 1
    assert len(log) == 4 and best < 4, recalls  # the case under test
    stopped, _ = run(best)
    assert full.named_params().keys() == stopped.named_params().keys() >= {"table"}
    for name, p in full.named_params().items():
        assert p.tobytes() == stopped.named_params()[name].tobytes(), name


def test_train_batch_consumes_expected_examples(monkeypatch):
    seen = []
    orig = M._loss_arrays

    def spy(state, token_ids, cand_ids, *args, **kw):
        seen.append(len(cand_ids))
        return orig(state, token_ids, cand_ids, *args, **kw)

    monkeypatch.setattr(M, "_loss_arrays", spy)
    cat, baskets = make_random_corpus(20, 50, seed=3)
    vocab = build_vocabulary(cat)
    sp = split_warm(baskets, seed=0)
    n_pos = sum(len(b) for b in sp.train)
    cfg = ModelConfig(k=4, negatives=3, batch_size=16, epochs=1, seed=0,
                      validation_sample=10)
    train(cfg, sp.train, sp.validation, cat, vocab)
    full_batches, remainder = divmod(n_pos, 16)
    expected = [16 * (1 + 3)] * full_batches
    if remainder:
        expected.append(remainder * (1 + 3))
    assert seen == expected


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("encoder", ["mov", "cnn"])
def test_training_step_keeps_parameter_dtype(tiny_catalog, tiny_vocab, tiny_tokens, monkeypatch,
                                             loss_batch, encoder, dtype):
    """Every scatter source, gradient, Adam moment and product vector is in the params' dtype."""
    import bastext.encoders as E
    from bastext.kernels import scatter_rows
    sources = []

    def recording(index, values, n):
        sources.append(values.dtype)
        return scatter_rows(index, values, n)

    monkeypatch.setattr(M, "scatter_rows", recording)
    monkeypatch.setattr(E, "scatter_rows", recording)
    cfg = ModelConfig(k=6, negatives=2, encoder=encoder, dropout=0.2, cnn_filters=3,
                      use_bias=True)
    state = init_model(cfg, tiny_vocab, dtype=dtype)
    batch = _random_batch(loss_batch, np.random.default_rng(0))
    _, grads = M._loss_arrays(state, tiny_tokens, *batch, True, np.random.default_rng(1))
    want = np.dtype(dtype)
    assert len(sources) >= 3 and set(sources) == {want}
    assert {name: g.dtype for name, g in grads.items()} == dict.fromkeys(grads, want)
    params = state.named_params()
    moments = _zero_moments(params)
    adam_step(params, grads, moments, 1, cfg.learning_rate)
    for name, p in params.items():
        assert (p.dtype, moments[0][name].dtype, moments[1][name].dtype) == (want,) * 3, name
    vecs = materialize_product_vectors(state, tiny_catalog)
    assert vecs.embedding.dtype == vecs.context.dtype == want


# ---------------------------------------------------------------------------
# Materialization and serialization
# ---------------------------------------------------------------------------

def test_materialize_matches_per_product_calls(tiny_catalog, tiny_vocab):
    from bastext.encoders import encode_batch
    for encoder in ("mov", "cnn"):
        _, state = _small_state(tiny_vocab, encoder=encoder)
        vecs = materialize_product_vectors(state, tiny_catalog)
        for i, p in enumerate(tiny_catalog.products):
            title = title_matrix([tiny_vocab.encode(p.tokens)], tiny_vocab.size)
            assert np.allclose(vecs.embedding[i],
                               encode_batch(state.params_e, state.table, title)[0][0],
                               atol=1e-12)
            assert np.allclose(vecs.context[i],
                               encode_batch(state.params_c, state.table, title)[0][0],
                               atol=1e-12)


def test_materialize_empty_title_is_zero_vector():
    from bastext.corpus import Catalog
    cat = Catalog(["a", "b"], ["apple", ""])
    vocab = build_vocabulary(cat)
    for encoder in ("mov", "cnn"):
        state = init_model(ModelConfig(k=4, seed=0, encoder=encoder, cnn_filters=3), vocab)
        vecs = materialize_product_vectors(state, cat)
        assert not np.any(vecs.embedding[1]) and not np.any(vecs.context[1]), encoder


def test_save_load_round_trip(tmp_path):
    cat, vocab, state, _ = _train_small(epochs=1)
    path = tmp_path / "model.bin"
    save_model(state, path)
    back = load_model(path)
    for k in state.named_params():
        assert np.array_equal(back.named_params()[k],
                              state.named_params()[k].astype(np.float32))
    assert back.config == state.config
    assert back.vocab.word_to_index == vocab.word_to_index
    assert check_catalog_hash(back, cat)
    # scoring agrees for random queries
    va, vb = materialize_product_vectors(state, cat), materialize_product_vectors(back, cat)
    rng = np.random.default_rng(0)
    for _ in range(100):
        ids = np.sort(rng.choice(len(cat), size=3, replace=False))
        assert (BastextScorer(va).score_all(ids[1:])[ids[0]]
                == BastextScorer(vb).score_all(ids[1:])[ids[0]])


def test_save_is_byte_stable(tmp_path):
    _, _, state, _ = _train_small(epochs=1)
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_model(state, p1)
    save_model(state, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("encoder", ["mov", "cnn"])
def test_load_gives_writable_separate_tensors(tmp_path, encoder):
    """Loaded tensors are aligned, writable, C-contiguous views that share no bytes, for
    every header length mod 4, and saving a loaded model writes the same bytes."""
    _, _, state, _ = _train_small(epochs=1, encoder=encoder, use_bias=True)
    for extra in range(4):
        state.catalog_hash = "h" * extra
        path = tmp_path / f"model{extra}.bin"
        save_model(state, path)
        back = load_model(path)
        tensors = back.named_params()
        assert len(tensors) == len(state.named_params())
        for name, t in tensors.items():
            assert t.dtype == np.float32, name
            assert t.flags.writeable and t.flags.c_contiguous and t.flags.aligned, name
        before = {name: t.copy() for name, t in tensors.items()}
        for name, t in tensors.items():
            t[...] = 7.0
            assert all(np.array_equal(u, before[other]) for other, u in tensors.items()
                       if other != name), name
            t[...] = before[name]
        save_model(back, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_load_truncated_fatal(tmp_path):
    _, _, state, _ = _train_small(epochs=1)
    path = tmp_path / "model.bin"
    save_model(state, path)
    blob = path.read_bytes()
    for cut in (2, 10, len(blob) // 2, len(blob) - 3):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[:cut])
        with pytest.raises(ModelError):
            load_model(bad)


def _rewrite_header(blob: bytes, edit) -> bytes:
    """The model container with its JSON header replaced by `edit(header_bytes)`."""
    import struct

    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = edit(blob[16: 16 + hlen])
    return blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + hlen:]


def test_load_corrupt_header_fatal(tmp_path):
    _, _, state, _ = _train_small(epochs=1)
    path = tmp_path / "model.bin"
    save_model(state, path)
    path.write_bytes(_rewrite_header(path.read_bytes(), lambda h: b"x" + h[1:]))
    with pytest.raises(ModelError, match="corrupt model header"):
        load_model(path)


def test_load_missing_header_key_fatal(tmp_path):
    import json

    _, _, state, _ = _train_small(epochs=1)
    path = tmp_path / "model.bin"
    save_model(state, path)

    def drop_hash(h):
        header = json.loads(h)
        del header["catalog_hash"]
        return json.dumps(header).encode()

    path.write_bytes(_rewrite_header(path.read_bytes(), drop_hash))
    with pytest.raises(ModelError, match="catalog_hash"):
        load_model(path)


def test_load_negative_tensor_shape_fatal(tmp_path):
    """A tensor view is taken with the header's element count; a negative one would
    make it reach to the end of the file."""
    import json

    _, _, state, _ = _train_small(epochs=1)
    path = tmp_path / "model.bin"
    save_model(state, path)

    def negate(h):
        header = json.loads(h)
        header["tensors"][0]["shape"][0] *= -1
        return json.dumps(header).encode()

    path.write_bytes(_rewrite_header(path.read_bytes(), negate))
    with pytest.raises(ModelError, match="negative dimension"):
        load_model(path)


def test_load_trailing_bytes_fatal(tmp_path):
    _, _, state, _ = _train_small(epochs=1)
    path = tmp_path / "model.bin"
    save_model(state, path)
    path.write_bytes(path.read_bytes() + b"\0\0\0\0")
    with pytest.raises(ModelError, match="4 trailing bytes"):
        load_model(path)


def test_load_bad_magic_fatal(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ModelError):
        load_model(path)


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def test_scores_at_least_half_without_bias():
    cat, baskets, _, _ = make_planted_corpus(num_baskets=300)
    vocab = build_vocabulary(cat)
    sp = split_warm(baskets, seed=0)
    cfg = ModelConfig(k=8, negatives=2, batch_size=64, epochs=2, seed=0,
                      validation_sample=20)
    state, _ = train(cfg, sp.train, sp.validation, cat, vocab)
    scorer = BastextScorer(materialize_product_vectors(state, cat))
    rng = np.random.default_rng(0)
    for _ in range(20):
        ctx = np.sort(rng.choice(len(cat), size=3, replace=False))
        s = scorer.score_all(ctx)
        assert np.all(s >= 0.5) and np.all(s < 1.0)


def test_context_pathway_learns_cooccurrence_disjoint_titles():
    # products 0 and 1 share no title words but always co-occur
    from bastext.corpus import Catalog
    cat = Catalog(["a", "b", *(f"f{i}" for i in range(8))],
                  ["alpha axe", "bolt bay", *(f"filler{i} junk{i}" for i in range(8))])
    rng = np.random.default_rng(0)
    members = []
    for i in range(300):
        if i % 2 == 0:
            extra = 2 + rng.integers(8)
            members.append([0, 1, extra])
        else:
            members.append(rng.choice(np.arange(2, 10), size=2, replace=False))
    baskets = make_baskets(*members)
    vocab = build_vocabulary(cat)
    cfg = ModelConfig(k=8, negatives=4, batch_size=32, epochs=15, seed=0,
                      dropout=0.0, learning_rate=5e-3, patience=50, validation_sample=20)
    state, _ = train(cfg, baskets, baskets.take(np.arange(20)), cat, vocab)
    vecs = materialize_product_vectors(state, cat)
    also_buy = vecs.embedding @ vecs.context[1]  # buying b -> score for every candidate
    assert also_buy[0] > np.median(also_buy)
