import numpy as np
import pytest

from bastext.corpus import Baskets, Catalog, build_vocabulary, encode_catalog, leave_one_out
from bastext.evaluation import TestCases, compute_ranks
from bastext.model import _sample_negative_matrix


@pytest.fixture
def tiny_catalog():
    cat = Catalog()
    cat.add("a", "red apple fruit")
    cat.add("b", "green apple fruit")
    cat.add("c", "wheat bread loaf")
    cat.add("d", "rye bread loaf")
    cat.add("e", "sparkling water bottle")
    return cat


def make_baskets(*members, source_ids=None):
    """`Baskets` from one id list per basket (sorted here), named s0, s1, ... by default."""
    return Baskets.from_lists([sorted(m) for m in members],
                              source_ids or [f"s{i}" for i in range(len(members))])


def evaluated_order(scorer):
    """Every product in the order `evaluate` ranks it: each is held out once with an empty
    context, and `compute_ranks` gives its rank."""
    m = scorer.num_products
    empty = np.zeros(0, dtype=np.int64)
    ranks = compute_ranks(scorer, TestCases(np.arange(m), np.zeros(m + 1, dtype=np.int64),
                                            empty, np.arange(m)))
    return list(np.argsort(ranks, kind="stable"))


@pytest.fixture
def tiny_baskets():
    return make_baskets([0, 1], [0, 1, 4], [2, 3], [2, 3, 4], [0, 2],
                        source_ids=["t0", "t1", "t2", "t3", "t4"])


@pytest.fixture
def tiny_vocab(tiny_catalog):
    return build_vocabulary(tiny_catalog)


@pytest.fixture
def tiny_tokens(tiny_catalog, tiny_vocab):
    return encode_catalog(tiny_catalog, tiny_vocab)


@pytest.fixture
def loss_batch():
    """`build(baskets, n_neg, num_products, rng)` -> the arguments 3-7 of `_loss_arrays` for a
    batch that holds out each basket's first member, assembled as `train` assembles them:
    `leave_one_out` positives, then `_sample_negative_matrix` negatives sharing their context."""
    def build(baskets, n_neg, num_products, rng):
        indptr, indices = baskets.indptr, baskets.indices
        keys = np.sort(np.repeat(np.arange(len(baskets)), np.diff(indptr)) * num_products
                       + indices)
        cands, ctx_flat, ctx_lens, rows = leave_one_out(indptr, indices, indptr[:-1])
        negs = _sample_negative_matrix(rows, keys, n_neg, num_products, rng)
        b = len(cands)
        return (np.concatenate([cands, negs.ravel()]),
                np.concatenate([np.arange(b), np.repeat(np.arange(b), n_neg)]),
                ctx_flat, ctx_lens,
                np.concatenate([np.ones(b, dtype=np.int64), -np.ones(b * n_neg, dtype=np.int64)]))
    return build


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance-criterion verdict lines after the test summary."""
    import sys
    mod = next((m for name, m in sys.modules.items()
                if name.rpartition(".")[2] == "test_acceptance"), None)
    lines = getattr(mod, "VERDICT_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
