"""Property-based parity for the CSR kernel dispatch layer.

Random shapes, densities, and dtypes; the invariant is always the same:
whatever backend runs, the dispatch functions return byte-identical
results to the pure-numpy reference kernels of ``CSRMatrix``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import kernels
from repro.linalg.sparse import CSRMatrix

BACKENDS = ("reference",) + (
    ("compiled",) if kernels.compiled_available() else ()
)


def csr_case(seed, k):
    """A random CSR matrix plus conforming operands for every kernel,
    with ``k``-column blocks for the block products."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    n = int(rng.integers(1, 30))
    density = float(rng.uniform(0.0, 1.0))
    dtype = np.float32 if rng.integers(2) else np.float64
    dense = rng.standard_normal((m, n))
    dense[rng.random((m, n)) > density] = 0.0
    matrix = CSRMatrix.from_dense(dense.astype(dtype))
    return (
        matrix,
        rng.standard_normal(n).astype(dtype),
        rng.standard_normal(m).astype(dtype),
        rng.standard_normal((n, k)).astype(dtype),
        rng.standard_normal((m, k)).astype(dtype),
    )


#: Block widths: k = 1 takes the mat-vec route, k >= 2 the row-streamed
#: block kernel.
block_widths = st.integers(1, 24)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), block_widths)
def test_dispatch_bitwise_equals_reference(seed, k):
    matrix, v, u, B, U = csr_case(seed, k)
    want = (
        matrix.matvec(v),
        matrix.rmatvec(u),
        matrix.matmat(B),
        matrix.rmatmat(U),
    )
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            got = (
                kernels.csr_matvec(matrix, v),
                kernels.csr_rmatvec(matrix, u),
                kernels.csr_matmat(matrix, B),
                kernels.csr_rmatmat(matrix, U),
            )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_adjoint_two_stage_bitwise(seed):
    """Shard decomposition (products then reduce) equals the one-shot
    adjoint under every backend — the sharded-rmatvec invariant."""
    matrix, _, u, _, _ = csr_case(seed, 1)
    want = matrix.rmatvec(u)
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            products = kernels.csr_adjoint_products(matrix, u)
            reduced = kernels.csr_reduce_adjoint(matrix, products)
        assert products.tobytes() == (
            (matrix.data * u[matrix._row_ids]).tobytes()
        )
        assert reduced.tobytes() == want.tobytes()


@pytest.mark.skipif(
    len(BACKENDS) < 2, reason="compiled kernel extension not built"
)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), block_widths)
def test_backends_agree_with_each_other(seed, k):
    """Direct compiled-vs-reference comparison, independent of the
    reference-methods cross-check above."""
    matrix, v, u, B, U = csr_case(seed, k)
    results = {}
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            results[backend] = (
                kernels.csr_matvec(matrix, v).tobytes(),
                kernels.csr_rmatvec(matrix, u).tobytes(),
                kernels.csr_matmat(matrix, B).tobytes(),
                kernels.csr_rmatmat(matrix, U).tobytes(),
            )
    assert results["reference"] == results["compiled"]
