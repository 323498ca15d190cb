"""Property-based tests for ShardedOperator (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg.operators import as_operator
from repro.linalg.sparse import CSRMatrix
from repro.parallel import ShardedOperator, shard_bounds

pytestmark = pytest.mark.parallel


def sparse_arrays(max_rows=16, max_cols=10):
    shapes = st.tuples(
        st.integers(1, max_rows), st.integers(1, max_cols)
    )
    return shapes.flatmap(
        lambda shape: hnp.arrays(
            np.float64,
            shape,
            elements=st.one_of(
                st.just(0.0),
                st.floats(-10, 10, allow_nan=False, width=64),
            ),
        )
    )


@settings(max_examples=60, deadline=None)
@given(sparse_arrays(), st.integers(1, 20), st.integers(0, 2**31 - 1))
def test_csr_products_bitwise_for_any_shard_count(dense, n_shards, seed):
    """CSR matvec/rmatvec/matmat never depend on the shard layout."""
    matrix = CSRMatrix.from_dense(dense)
    m, n = matrix.shape
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    u = rng.standard_normal(m)
    B = rng.standard_normal((n, 3))
    direct = as_operator(matrix)
    with ShardedOperator(matrix, n_shards=n_shards) as op:
        assert np.array_equal(op.matvec(v), direct.matvec(v))
        assert np.array_equal(op.rmatvec(u), direct.rmatvec(u))
        assert np.array_equal(op.matmat(B), direct.matmat(B))


@settings(max_examples=60, deadline=None)
@given(sparse_arrays(), st.integers(1, 20), st.integers(0, 2**31 - 1))
def test_rmatmat_bitwise_for_any_shard_count(dense, n_shards, seed):
    """The block adjoint runs on row blocks of the transpose: no fold."""
    matrix = CSRMatrix.from_dense(dense)
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((matrix.shape[0], 2))
    direct = as_operator(matrix)
    with ShardedOperator(matrix, n_shards=n_shards) as op:
        assert op.rmatmat(U).tobytes() == direct.rmatmat(U).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 64))
def test_shard_bounds_partition_rows(m, n_shards):
    bounds = shard_bounds(m, n_shards)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == m
    assert all(start < stop for start, stop in bounds)
    assert all(
        prev_stop == start
        for (_, prev_stop), (start, _) in zip(bounds, bounds[1:])
    )
    sizes = [stop - start for start, stop in bounds]
    assert max(sizes) - min(sizes) <= 1
