import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bastext.kernels import cosine_to_all, scatter_rows, segment_mean


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), rows=st.integers(0, 40), width=st.sampled_from([None, 1, 5]),
       dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
def test_scatter_rows_matches_unbuffered_add(n, rows, width, dtype, data):
    """Repeated indices, an empty index and outputs no index hits, 1-D and 2-D values."""
    # indices drawn from a narrow range repeat often and leave most outputs unhit
    hi = data.draw(st.integers(0, n - 1))
    index = np.array(data.draw(st.lists(st.integers(0, hi), min_size=rows, max_size=rows)),
                     dtype=np.int64)
    shape = (rows,) if width is None else (rows, width)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=shape).astype(dtype)

    out = scatter_rows(index, values, n)

    expected = np.zeros((n,) + shape[1:], dtype=dtype)
    np.add.at(expected, index, values)
    assert out.dtype == dtype
    assert out.shape == expected.shape
    np.testing.assert_allclose(out, expected, rtol=1e-5 if dtype == np.float32 else 1e-12,
                               atol=1e-5 if dtype == np.float32 else 1e-12)
    assert not out[np.setdiff1d(np.arange(n), index)].any()


def test_segment_mean_singleton_and_mean():
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(segment_mean(rows, np.array([0, 1, 3])), [[0.0, 1.0], [0.5, 0.5]])


@settings(max_examples=100, deadline=None)
@given(lens=st.lists(st.integers(1, 7), max_size=12), width=st.sampled_from([None, 1, 16]),
       dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
def test_segment_mean_rows_are_their_own_segments(lens, width, dtype, data):
    """Every block row is bitwise its one-segment call, and close to `np.mean`."""
    indptr = np.concatenate([[0], np.cumsum(lens, dtype=np.int64)])
    shape = (indptr[-1],) if width is None else (indptr[-1], width)
    rows = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).normal(size=shape)
    rows = rows.astype(dtype)

    out = segment_mean(rows, indptr)

    assert out.dtype == dtype
    assert out.shape == (len(lens),) + shape[1:]
    for i, (a, b) in enumerate(zip(indptr[:-1], indptr[1:])):
        one = segment_mean(rows[a:b], np.array([0, b - a]))
        assert one[0].tobytes() == out[i].tobytes()
        np.testing.assert_allclose(out[i], rows[a:b].mean(axis=0),
                                   rtol=1e-6 if dtype == np.float32 else 1e-14,
                                   atol=1e-6 if dtype == np.float32 else 1e-14)
    empty_at = data.draw(st.integers(0, len(lens)))
    with pytest.raises(ValueError, match="non-empty segments"):
        segment_mean(rows, np.insert(indptr, empty_at, indptr[empty_at]))


def _cosine_one(vec, matrix):
    """Reference: one query against the table, its norms taken per call."""
    norms = np.linalg.norm(matrix, axis=1)
    vn = np.linalg.norm(vec)
    out = np.zeros(matrix.shape[0])
    nz = (norms > 0) & (vn > 0)
    out[nz] = (matrix @ vec)[nz] / (norms[nz] * vn)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m, k", [(3000, 21), (200, 327), (20000, 3)])
def test_cosine_block_rows_are_their_one_query_calls(m, k, dtype):
    """Bitwise the per-query reference, with a zero table row and a zero query scoring 0."""
    rng = np.random.default_rng(m + k)
    matrix = rng.normal(size=(m, k)).astype(dtype)
    matrix[1] = 0
    vecs = rng.normal(size=(5, k)).astype(dtype)
    vecs[2] = 0

    out = cosine_to_all(vecs, matrix)

    assert out.shape == (5, m) and out.dtype == np.float64
    for i, vec in enumerate(vecs):
        assert out[i].tobytes() == _cosine_one(vec, matrix).tobytes()
        assert out[i].tobytes() == cosine_to_all(vecs[i:i + 1], matrix)[0].tobytes()
    assert not out[2].any() and not out[:, 1].any()
    unit = matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-30)
    np.testing.assert_allclose(out[0], unit @ (vecs[0] / np.linalg.norm(vecs[0])),
                               atol=1e-5 if dtype == np.float32 else 1e-12)
