"""Parity and dispatch tests for the CSR kernel backends.

The compiled backend's whole contract is *bitwise* equality with the
pure-numpy reference — interchangeable results, different speed.  Every
parity assertion here is therefore ``array_equal`` on the raw values
(and dtype checks), never ``allclose``.
"""

import warnings

import numpy as np
import pytest

from repro.linalg import kernels
from repro.linalg.kernels import (
    KERNEL_BACKEND_ENV,
    KERNEL_BACKENDS,
    active_backend,
    compiled_available,
    csr_adjoint_products,
    csr_matmat,
    csr_matvec,
    csr_reduce_adjoint,
    csr_rmatmat,
    csr_rmatvec,
    requested_backend,
    use_backend,
)
from repro.linalg.sparse import CSRMatrix
from repro.robustness.report import RobustnessWarning

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel extension not built",
)


@pytest.fixture(
    params=[
        "reference",
        pytest.param("compiled", marks=needs_compiled),
    ]
)
def backend(request):
    """Run the test under each concrete backend selection."""
    with use_backend(request.param):
        yield request.param


def corner_matrices(dtype):
    """CSR corner cases the kernels must agree on, as (label, matrix).

    Covers: no stored entries, empty rows interleaved with full ones, a
    single row/column, duplicate column indices within one row (CSR
    permits them; products must accumulate both), and a row longer than
    128 entries (numpy's pairwise summation switches to its recursive
    split there — the compiled port must follow it exactly).
    """
    rng = np.random.default_rng(987)

    def from_dense(dense):
        return CSRMatrix.from_dense(np.asarray(dense, dtype=dtype))

    dense = rng.standard_normal((13, 9))
    dense[rng.random((13, 9)) > 0.4] = 0.0
    dense[3] = 0.0
    dense[7] = 0.0
    yield "mixed", from_dense(dense)
    yield "all_zero", from_dense(np.zeros((4, 5)))
    yield "single_row", from_dense(rng.standard_normal((1, 6)))
    yield "single_col", from_dense(rng.standard_normal((6, 1)))
    yield "dense_block", from_dense(rng.standard_normal((8, 7)))

    # duplicate column indices inside one row
    data = np.asarray([1.5, -2.25, 0.75, 3.0], dtype=dtype)
    indices = np.array([2, 2, 0, 2], dtype=np.int64)
    indptr = np.array([0, 3, 4], dtype=np.int64)
    yield "duplicate_cols", CSRMatrix(data, indices, indptr, (2, 4))

    # one long row (> 128 nnz) hits the recursive pairwise split; one
    # mid row (8 < nnz <= 128) hits the unrolled 8-accumulator loop
    long_row = rng.standard_normal((1, 300))
    long_row[0, rng.random(300) > 0.9] = 0.0  # keep most entries
    tall = np.vstack([long_row, np.zeros((1, 300)),
                      rng.standard_normal((2, 300))])
    yield "long_rows", from_dense(tall)


def operands(matrix, seed=0):
    rng = np.random.default_rng(seed)
    dtype = matrix.dtype
    m, n = matrix.shape
    return {
        "v": rng.standard_normal(n).astype(dtype),
        "u": rng.standard_normal(m).astype(dtype),
        "B": rng.standard_normal((n, 3)).astype(dtype),
        "U": rng.standard_normal((m, 3)).astype(dtype),
    }


class TestBitwiseParity:
    """Dispatch output must equal the reference kernels bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_all_kernels_all_corners(self, backend, dtype):
        for label, matrix in corner_matrices(dtype):
            ops = operands(matrix)
            cases = [
                ("matvec", csr_matvec(matrix, ops["v"]),
                 matrix.matvec(ops["v"])),
                ("rmatvec", csr_rmatvec(matrix, ops["u"]),
                 matrix.rmatvec(ops["u"])),
                ("matmat", csr_matmat(matrix, ops["B"]),
                 matrix.matmat(ops["B"])),
                ("rmatmat", csr_rmatmat(matrix, ops["U"]),
                 matrix.rmatmat(ops["U"])),
            ]
            for kernel, got, want in cases:
                assert got.dtype == want.dtype, (backend, label, kernel)
                assert got.tobytes() == want.tobytes(), (
                    backend, label, kernel,
                )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adjoint_split_recombines_bitwise(self, backend, dtype):
        """products + reduce == the one-shot rmatvec, bit for bit."""
        for label, matrix in corner_matrices(dtype):
            u = operands(matrix)["u"]
            products = csr_adjoint_products(matrix, u)
            reference = matrix.data * u[matrix._row_ids]
            assert products.tobytes() == reference.tobytes(), (
                backend, label,
            )
            reduced = csr_reduce_adjoint(matrix, products)
            assert reduced.tobytes() == matrix.rmatvec(u).tobytes(), (
                backend, label,
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_reduce_adjoint_out_form(self, backend, dtype):
        for _, matrix in corner_matrices(dtype):
            u = operands(matrix)["u"]
            products = csr_adjoint_products(matrix, u)
            out = np.full(matrix.shape[1], np.nan, dtype=products.dtype)
            result = csr_reduce_adjoint(matrix, products, out=out)
            assert result is out
            assert out.tobytes() == matrix.rmatvec(u).tobytes()

    def test_matvec_negative_zero_semantics(self, backend):
        """An all-zero row yields +0.0 on both backends (scatter seeds
        from 0.0, so the sign of zero is the seed's, not the data's)."""
        matrix = CSRMatrix.from_dense(
            np.array([[0.0, 0.0], [1.0, -1.0]])
        )
        v = np.array([1.0, 1.0])
        got = csr_matvec(matrix, v)
        want = matrix.matvec(v)
        assert got.tobytes() == want.tobytes()


#: Row lengths that walk every branch of the pairwise tree: empty and
#: single-entry rows, the plain loop (< 8 after seg[0]), the
#: 8-accumulator blocks and their tails, and one, two and three or more
#: levels of recursive halving (> 128, > 256, >= 1100).
STREAM_ROW_LENGTHS = (0, 1, 2, 7, 8, 9, 128, 129, 257, 1100, 1300)


def streamed_matrix(dtype, seed=11):
    """Rows of every length in STREAM_ROW_LENGTHS, ~10% negative zeros.

    Column indices repeat within a row (CSR permits it) and the signed
    zeros make the seed of numpy's short pairwise loop visible.
    """
    rng = np.random.default_rng(seed)
    n_cols = 1500
    lengths = np.asarray(STREAM_ROW_LENGTHS, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = rng.integers(0, n_cols, int(indptr[-1]))
    data = rng.standard_normal(int(indptr[-1]))
    data[rng.random(data.size) < 0.1] = -0.0
    return CSRMatrix(
        data.astype(dtype), indices, indptr, (lengths.size, n_cols)
    )


def signed_block(rng, shape, dtype, layout):
    """A dense block with ~10% negative zeros, in the given layout."""
    block = rng.standard_normal(shape).astype(dtype)
    block[rng.random(shape) < 0.1] = -0.0
    if layout == "F":
        return np.asfortranarray(block)
    if layout == "strided":
        wide = np.repeat(block, 2, axis=1)
        return wide[:, ::2]
    return block


class TestRowStreamedMatmat:
    """The block kernel reads each row once for all k columns; every
    output column must still be the reference's reduceat, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 19, 64])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_matmat_every_row_length(self, backend, dtype, k, layout):
        matrix = streamed_matrix(dtype)
        rng = np.random.default_rng(k)
        B = signed_block(rng, (matrix.shape[1], k), dtype, layout)
        got = csr_matmat(matrix, B)
        want = matrix.matmat(B)
        assert got.dtype == want.dtype
        assert got.flags.f_contiguous and want.flags.f_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 19, 64])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_rmatmat_every_column_length(self, backend, dtype, k, layout):
        """The adjoint runs the same kernel on the cached transpose; a
        transposed operand puts the row lengths on its columns."""
        adjoint = streamed_matrix(dtype).T
        rng = np.random.default_rng(100 + k)
        U = signed_block(rng, (adjoint.shape[0], k), dtype, layout)
        got = csr_rmatmat(adjoint, U)
        want = adjoint.rmatmat(U)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("length", [2, 3, 7, 8, 9, 129])
    def test_all_negative_zero_rows(self, backend, dtype, length):
        """A row of -0.0 products sums to the sign numpy gives it."""
        data = np.full(length, -0.0, dtype=dtype)
        indices = np.zeros(length, dtype=np.int64)
        matrix = CSRMatrix(data, indices, np.array([0, length]), (1, 1))
        B = np.ones((1, 3), dtype=dtype)
        cases = [
            (csr_matmat(matrix, B), matrix.matmat(B)),
            (csr_matvec(matrix, B[:, 0]), matrix.matvec(B[:, 0])),
            (csr_rmatmat(matrix.T, B), matrix.T.rmatmat(B)),
            (csr_rmatvec(matrix.T, B[:, 0]), matrix.T.rmatvec(B[:, 0])),
        ]
        for got, want in cases:
            assert got.tobytes() == want.tobytes()

    @needs_compiled
    def test_extension_takes_c_ordered_block(self):
        matrix = streamed_matrix(np.float64)
        out = np.zeros((matrix.shape[0], 3), order="F")
        args = (matrix.data, matrix.indices, matrix.indptr)
        block = np.ones((matrix.shape[1], 3))
        kernels._compiled.csr_matmat(*args, block, out)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels._compiled.csr_matmat(*args, np.asfortranarray(block), out)
        with pytest.raises(ValueError, match="Fortran-contiguous"):
            kernels._compiled.csr_matmat(*args, block, np.zeros((11, 3)))


class TestMixedDtypeRouting:
    """Ineligible calls fall back to the reference — never new numerics."""

    def test_f32_operand_on_f64_matrix(self, backend, rng):
        dense = rng.standard_normal((10, 6))
        matrix = CSRMatrix.from_dense(dense)
        v32 = rng.standard_normal(6).astype(np.float32)
        got = csr_matvec(matrix, v32)
        want = matrix.matvec(v32)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_f64_operand_on_f32_matrix_falls_back(self, backend, rng):
        dense = rng.standard_normal((10, 6)).astype(np.float32)
        matrix = CSRMatrix.from_dense(dense)
        v64 = rng.standard_normal(6)
        got = csr_matvec(matrix, v64)
        want = matrix.matvec(v64)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_mixed_dtype_matmat(self, backend, rng):
        dense = rng.standard_normal((10, 6)).astype(np.float32)
        matrix = CSRMatrix.from_dense(dense)
        B64 = rng.standard_normal((6, 3))
        got = csr_matmat(matrix, B64)
        want = matrix.matmat(B64)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_noncontiguous_storage_falls_back(self, backend, rng):
        base = CSRMatrix.from_dense(rng.standard_normal((8, 5)))
        # a strided view of a larger buffer is still a valid CSRMatrix,
        # but the C kernels require native layout
        padded = np.zeros(2 * base.nnz)
        padded[::2] = base.data
        strided = CSRMatrix(
            padded[::2], base.indices, base.indptr, base.shape
        )
        v = rng.standard_normal(5)
        assert csr_matvec(strided, v).tobytes() == (
            base.matvec(v).tobytes()
        )

    def test_shape_errors_match_reference(self, backend, rng):
        matrix = CSRMatrix.from_dense(rng.standard_normal((6, 4)))
        with pytest.raises(ValueError, match="matvec"):
            csr_matvec(matrix, np.ones(5))
        with pytest.raises(ValueError, match="rmatvec"):
            csr_rmatvec(matrix, np.ones(7))
        with pytest.raises(ValueError, match="dimension"):
            csr_matmat(matrix, np.ones((5, 2)))
        with pytest.raises(ValueError, match="dimension"):
            csr_rmatmat(matrix, np.ones((7, 2)))

    def test_vector_block_routing(self, backend, rng):
        """1-D and single-column blocks route through the matvec pair
        exactly as the reference does."""
        matrix = CSRMatrix.from_dense(rng.standard_normal((6, 4)))
        v = rng.standard_normal(4)
        u = rng.standard_normal(6)
        assert csr_matmat(matrix, v).ndim == 1
        assert csr_matmat(matrix, v[:, None]).shape == (6, 1)
        assert csr_rmatmat(matrix, u).ndim == 1
        assert csr_rmatmat(matrix, u[:, None]).shape == (4, 1)
        assert csr_matmat(matrix, v[:, None]).tobytes() == (
            matrix.matmat(v[:, None]).tobytes()
        )
        assert csr_rmatmat(matrix, u[:, None]).tobytes() == (
            matrix.rmatmat(u[:, None]).tobytes()
        )


class TestSelection:
    """Backend resolution: context override > env var > auto."""

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert requested_backend() == "auto"
        assert active_backend() in ("reference", "compiled")

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "reference")
        assert requested_backend() == "reference"
        assert active_backend() == "reference"

    def test_env_var_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "fortran")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            requested_backend()

    def test_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "auto")
        with use_backend("reference"):
            assert requested_backend() == "reference"
        assert requested_backend() == "auto"

    def test_use_backend_nests_and_restores(self):
        before = requested_backend()
        with use_backend("reference"):
            with use_backend("auto"):
                assert requested_backend() == "auto"
            assert requested_backend() == "reference"
        assert requested_backend() == before

    def test_use_backend_none_is_noop(self):
        before = requested_backend()
        with use_backend(None):
            assert requested_backend() == before

    def test_use_backend_invalid_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with use_backend("simd"):
                pass  # pragma: no cover

    def test_backend_names_frozen(self):
        assert KERNEL_BACKENDS == ("auto", "reference", "compiled")

    @needs_compiled
    def test_auto_prefers_compiled(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        with use_backend("auto"):
            assert active_backend() == "compiled"


class TestMissingExtensionFallback:
    """Explicit 'compiled' without the extension warns once, then runs
    the reference; 'auto' stays silent."""

    @pytest.fixture
    def no_extension(self, monkeypatch):
        monkeypatch.setattr(kernels, "_compiled", None)
        kernels._reset_missing_warning()
        yield
        kernels._reset_missing_warning()

    def test_explicit_compiled_warns_once(self, no_extension, rng):
        matrix = CSRMatrix.from_dense(rng.standard_normal((5, 4)))
        v = rng.standard_normal(4)
        with use_backend("compiled"):
            with pytest.warns(RobustnessWarning, match="not built"):
                first = csr_matvec(matrix, v)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                second = csr_matvec(matrix, v)
        assert first.tobytes() == matrix.matvec(v).tobytes()
        assert second.tobytes() == first.tobytes()

    def test_auto_falls_back_silently(self, no_extension, rng):
        matrix = CSRMatrix.from_dense(rng.standard_normal((5, 4)))
        v = rng.standard_normal(4)
        with use_backend("auto"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert active_backend() == "reference"
                result = csr_matvec(matrix, v)
        assert result.tobytes() == matrix.matvec(v).tobytes()

    def test_compiled_available_reports_false(self, no_extension):
        assert not compiled_available()


class TestConfigIntegration:
    """SolverConfig carries the knob; SRDA scopes it around fits."""

    def test_config_validates_backend_name(self):
        from repro.core.solver_config import SolverConfig

        for name in (None,) + KERNEL_BACKENDS:
            assert SolverConfig(kernel_backend=name).kernel_backend == name
        with pytest.raises(ValueError, match="kernel_backend"):
            SolverConfig(kernel_backend="gpu")

    def test_config_param_dict_round_trip(self):
        from repro.core.solver_config import SolverConfig

        config = SolverConfig(kernel_backend="reference")
        params = config.to_param_dict()
        assert params["kernel_backend"] == "reference"
        assert SolverConfig(**params) == config

    @needs_compiled
    def test_srda_fit_bitwise_across_backends(self, sparse_classification):
        from repro.core.solver_config import SolverConfig
        from repro.core.srda import SRDA

        matrix, _, y = sparse_classification
        fits = {}
        for name in ("reference", "compiled"):
            model = SRDA(
                alpha=0.1,
                config=SolverConfig(solver="lsqr", kernel_backend=name),
            ).fit(matrix, y)
            fits[name] = model.components_
        assert fits["reference"].tobytes() == fits["compiled"].tobytes()

    def test_model_io_round_trips_backend(self, tmp_path,
                                          sparse_classification):
        from repro.core.solver_config import SolverConfig
        from repro.core.srda import SRDA
        from repro.io import load_model, save_model

        matrix, _, y = sparse_classification
        model = SRDA(
            alpha=0.1,
            config=SolverConfig(kernel_backend="reference"),
        ).fit(matrix, y)
        path = save_model(model, tmp_path / "model")
        loaded = load_model(path)
        assert loaded.config.kernel_backend == "reference"

    @needs_compiled
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transform_runs_the_dispatched_kernel(
        self, monkeypatch, sparse_classification, dtype
    ):
        """A CSR embedding goes through the dispatcher: the compiled
        block kernel runs, and its bytes equal the reference's."""
        from repro.core.srda import SRDA

        matrix, _, y = sparse_classification
        X = CSRMatrix(
            matrix.data.astype(dtype), matrix.indices, matrix.indptr,
            matrix.shape,
        )
        model = SRDA(alpha=0.1).fit(X, y)
        calls = []
        compiled = kernels._compiled

        class Spy:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(compiled, name)

        monkeypatch.setattr(kernels, "_compiled", Spy())
        embeddings = {}
        for name in ("reference", "compiled"):
            calls.clear()
            with use_backend(name):
                embeddings[name] = model.transform(X)
            assert ("csr_matmat" in calls) == (name == "compiled")
        assert embeddings["compiled"].dtype == dtype
        assert (
            embeddings["compiled"].tobytes()
            == embeddings["reference"].tobytes()
        )
