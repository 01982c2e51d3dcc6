import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bastext.kernels import scatter_rows


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
