"""Row-partitioned operators: LSQR-shaped sharding with disjoint writes.

SRDA's whole cost is products against the data operator, and those
products decompose along rows.  For ``X`` split into contiguous row
blocks ``X_s``, and its one transpose ``T = X.T`` split into
contiguous row blocks ``T_t``:

- forward:       ``X v   = concat_s (X_s v)``       (disjoint writes)
- CSR adjoint:   ``X.T u = concat_t (T_t u)``       (disjoint writes)
- dense adjoint: ``X.T u = sum_s   (X_s.T u_s)``    (a reduction)

A CSR adjoint is therefore the *forward* kernel on a second, nnz-
balanced partition — the rows of the transpose, built once per
operator — and needs no reduction: each shard writes its own block of
output rows.  Dense and operator-sequence shards keep the fold.

:class:`ShardedOperator` realizes that decomposition behind the
standard :class:`~repro.linalg.operators.LinearOperator` contract, so
``block_lsqr``, ``verify_operator`` and FLAM counting all work
unchanged, and fans the per-shard kernels out on any
:class:`~repro.parallel.backends.Backend`.

Determinism contract
--------------------
Results never depend on the backend or worker count, and CSR results
do not depend on the shard layout either:

- Every CSR product — ``matvec``, ``rmatvec``, ``matmat`` and
  ``rmatmat`` — is **bitwise identical** to the unsharded kernels
  (:mod:`repro.linalg.kernels`).  Each output row is computed by exactly
  one shard, by the row kernel the direct path runs (the direct adjoint
  is the same kernel on the same transpose), and row segments never
  straddle a shard boundary.
- Dense products, and dense and operator-sequence adjoints, depend on
  the *shard layout* (a pure function of the row count): they are
  reproducible for a given layout (identical across backends and
  worker counts) but only within a few ulp of the unsharded product.
  Adjoints fold per-shard partials in fixed shard order, and dense
  forward products go through BLAS, whose internal reduction order can
  depend on the block's row count.

Process transport
-----------------
On a backend without closure support (the process backend), shard
payloads — for CSR, the row blocks of both ``X`` and its transpose —
are broadcast into shared memory **once** at construction; each
product ships only small picklable task dicts, with the operand and
result travelling through two reusable shared-memory mailboxes.
Workers rebuild shard objects lazily and cache them for the life of
the pool.

Per-shard wall times are recorded into the current tracer's metrics
(histogram ``parallel.shard_seconds``, counter
``parallel.shard_products``), so shard balance shows up in the same
trace as the fit spans.
"""

from __future__ import annotations

import atexit
import gc
import time
from typing import (
    Any,
    Dict,
    List,
    Literal,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro._typing import FloatArray, FloatDType, IntArray
from repro.exceptions import TransportError
from repro.linalg import kernels
from repro.linalg.operators import LinearOperator, as_operator
from repro.linalg.sparse import CSRMatrix
from repro.observability import current_tracer
from repro.parallel.backends import Backend, SerialBackend, resolve_backend
from repro.parallel.shm import attach_array

__all__ = [
    "ShardedOperator",
    "csr_row_slice",
    "default_shard_count",
    "nnz_shard_bounds",
    "shard_bounds",
    "shard_kernel_result",
]

#: Rows per shard below which splitting stops paying for itself.
_MIN_SHARD_ROWS = 512

#: Default cap on shard count (matches the largest pool the benchmarks
#: exercise; more shards than cores only adds fan-in overhead).
_MAX_DEFAULT_SHARDS = 8


def default_shard_count(m: int) -> int:
    """Shard count used when the caller does not pick one.

    Complexity: O(1) — integer arithmetic on ``m``.

    A pure function of ``m`` — *not* of the backend or worker count — so
    that the default layout (and therefore the exact floating-point
    result of every product) is identical on every backend.
    """
    if m < _MIN_SHARD_ROWS:
        return 1
    return max(2, min(_MAX_DEFAULT_SHARDS, m // _MIN_SHARD_ROWS))


def shard_bounds(m: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous, nearly equal ``[start, stop)`` row ranges.

    Complexity: O(k) for ``k`` shards — the edge list itself.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, max(1, m))
    edges = [(m * i) // n_shards for i in range(n_shards + 1)]
    return [(edges[i], edges[i + 1]) for i in range(n_shards)]


def nnz_shard_bounds(
    indptr: IntArray, n_shards: int
) -> List[Tuple[int, int]]:
    """Contiguous row ranges balanced by *stored-entry* count.

    Complexity: O(k·log m) for ``k`` shards — one binary search into
    ``indptr`` per cut.

    A CSR shard's kernel cost is proportional to its non-zeros, not its
    rows; on skewed data (a few heavy rows, a long sparse tail) the
    row-count splits of :func:`shard_bounds` leave one worker doing most
    of the arithmetic while the rest idle.  This picks the row cut for
    shard ``i`` as the ``indptr`` position nearest ``total·i/n_shards``,
    so every shard carries within one row's worth of nnz of the ideal
    share — while staying a pure function of the data (never of the
    backend or worker count), preserving the determinism contract.

    Each shard keeps at least one row; with fewer rows than shards, or
    an all-zero matrix, this degrades to :func:`shard_bounds`.
    """
    m = int(len(indptr)) - 1
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, max(1, m))
    total = int(indptr[-1]) if m >= 0 else 0
    if n_shards == 1 or total == 0:
        return shard_bounds(m, n_shards)
    cuts: List[int] = [0]
    for i in range(1, n_shards):
        target = (total * i) // n_shards
        # First row boundary at or past the nnz target, then snap back
        # when the previous boundary is nearer in nnz space.
        cut = int(np.searchsorted(indptr, target, side="left"))
        cut = min(cut, m)
        if cut > 0 and (target - int(indptr[cut - 1])) < (
            int(indptr[cut]) - target
        ):
            cut -= 1
        # Keep shards non-empty and strictly increasing.
        cut = max(cut, cuts[-1] + 1)
        cut = min(cut, m - (n_shards - i))
        cuts.append(cut)
    cuts.append(m)
    return [(cuts[i], cuts[i + 1]) for i in range(n_shards)]


def csr_row_slice(matrix: CSRMatrix, start: int, stop: int) -> CSRMatrix:
    """The contiguous row block ``matrix[start:stop]`` as a CSRMatrix.

    Complexity: O(m) worst case — the localized ``indptr`` copy; the
    ``data``/``indices`` views are O(1).

    ``data``/``indices`` are views into the parent's storage (zero
    copy); only the localized ``indptr`` is materialized.
    """
    if not 0 <= start <= stop <= matrix.shape[0]:
        raise ValueError(
            f"invalid row range [{start}, {stop}) for {matrix.shape[0]} rows"
        )
    lo = int(matrix.indptr[start])
    hi = int(matrix.indptr[stop])
    return CSRMatrix(
        matrix.data[lo:hi],
        matrix.indices[lo:hi],
        matrix.indptr[start : stop + 1] - lo,
        (stop - start, matrix.shape[1]),
    )


#: Kernels whose shards read the whole operand and write disjoint rows.
_FORWARD = ("matvec", "matmat")


def _ordered_fold(partials: FloatArray) -> FloatArray:
    """Sum dense/operator-sequence adjoint partials in shard order.

    A plain left fold — not ``np.sum``, whose pairwise reduction would
    tie the association (and thus the low bits) to internal blocking
    heuristics instead of the shard layout.
    """
    acc = np.array(partials[0])
    for i in range(1, partials.shape[0]):
        acc += partials[i]
    return acc


def shard_kernel_result(
    mode: str,
    shard: Any,
    kernel: str,
    operand: FloatArray,
) -> FloatArray:
    """One shard's share of a product, as a returned array.

    Complexity: O(nnz) per shard-local kernel call (``nnz`` = the
    shard's stored entries; ``O(nnz·c)`` for ``c``-column blocks).

    The single arithmetic body behind every transport: in-process
    backends write the returned block into a coordinator-owned buffer
    (:func:`_apply_shard_kernel`), and distributed workers ship it back
    over a socket.  Forward kernels expect the full operand; adjoint
    kernels — dense and operator-sequence shards only — expect the
    caller's pre-sliced ``operand[r0:r1]`` block.  A CSR shard runs
    forward kernels only: a CSR adjoint is the forward kernel on a row
    block of the transpose.  Both transports evaluating these exact
    expressions is what makes the distributed backend bitwise-identical
    to the local ones.
    """
    if mode == "dense":
        if kernel in _FORWARD:
            return shard @ operand
        return shard.T @ operand
    if mode == "csr":
        # CSR shards go through the kernel dispatcher, so thread
        # workers run the GIL-free compiled backend when selected.
        if kernel == "matvec":
            return kernels.csr_matvec(shard, operand)
        if kernel == "matmat":
            return kernels.csr_matmat(shard, operand)
        raise ValueError(
            f"CSR shards run forward kernels only, got {kernel!r}; the "
            "adjoint runs them on row blocks of the transpose"
        )
    if kernel == "matvec":
        return shard.matvec(operand)
    if kernel == "rmatvec":
        return shard.rmatvec(operand)
    if kernel == "matmat":
        return shard.matmat(operand)
    return shard.rmatmat(operand)


def _apply_shard_kernel(
    mode: str,
    shard: Any,
    kernel: str,
    operand: FloatArray,
    out: FloatArray,
    rows: Tuple[int, int],
    slot: int,
) -> None:
    """Run one shard's share of a product, writing into ``out``.

    The write-into-buffer form of :func:`shard_kernel_result` used by
    in-process backends (including process workers writing into
    shared-memory views).  Forward kernels write their disjoint row
    block ``out[r0:r1]``; fold adjoints write their partial into slot
    ``slot`` for the coordinator's ordered fold.
    """
    r0, r1 = rows
    if kernel in _FORWARD:
        out[r0:r1] = shard_kernel_result(mode, shard, kernel, operand)
    else:
        out[slot] = shard_kernel_result(mode, shard, kernel, operand[r0:r1])


# ----------------------------------------------------------------------
# Process-worker side
# ----------------------------------------------------------------------

#: Shards this worker has rebuilt from shared memory, keyed by bundle
#: key; cached so their segment caches survive across products.
_SHARD_CACHE: Dict[str, Any] = {}


def _clear_shard_cache() -> None:
    """Drop rebuilt shards so their views release the shm buffers.

    Registered *after* :mod:`repro.parallel.shm`'s attachment cleanup
    (atexit is LIFO), so by the time the worker unmaps its attached
    blocks no cached ndarray still pins a buffer.  The explicit
    collection frees anything a reference cycle still holds, so no
    cached view outlives the unmap.
    """
    _SHARD_CACHE.clear()
    gc.collect()


atexit.register(_clear_shard_cache)


def _materialize_shard(bundle: Dict[str, Any]) -> Any:
    key = bundle["key"]
    shard = _SHARD_CACHE.get(key)
    if shard is None:
        refs = bundle["refs"]
        if bundle["kind"] == "csr":
            shard = CSRMatrix(
                attach_array(refs["data"]),
                attach_array(refs["indices"]),
                attach_array(refs["indptr"]),
                bundle["shape"],
            )
        else:
            shard = attach_array(refs["block"])
        _SHARD_CACHE[key] = shard
    return shard


def _process_shard_task(task: Dict[str, Any]) -> float:
    """Worker entry point: one shard kernel on shared-memory views."""
    t0 = time.perf_counter()
    shard = _materialize_shard(task["bundle"])
    _apply_shard_kernel(
        task["bundle"]["kind"],
        shard,
        task["kernel"],
        attach_array(task["operand"]),
        attach_array(task["out"]),
        task["rows"],
        task["slot"],
    )
    return time.perf_counter() - t0


class _Partition:
    """Contiguous row blocks that one product fans out over.

    ``bounds[i]`` is block ``i``'s ``[start, stop)`` row range and
    ``shards[i]`` its local shard; ``bundles`` (shared-memory handles)
    and ``keys`` (remote shard keys) are filled in when the blocks are
    broadcast or shipped.
    """

    def __init__(
        self, bounds: List[Tuple[int, int]], shards: List[Any]
    ) -> None:
        self.bounds = bounds
        self.shards = shards
        self.bundles: List[Dict[str, Any]] = []
        self.keys: List[str] = []


def _row_blocks(
    source: Union[CSRMatrix, FloatArray], bounds: List[Tuple[int, int]]
) -> _Partition:
    """Zero-copy row blocks of a CSR matrix or dense array."""
    if isinstance(source, CSRMatrix):
        return _Partition(
            bounds, [csr_row_slice(source, r0, r1) for r0, r1 in bounds]
        )
    return _Partition(bounds, [source[r0:r1] for r0, r1 in bounds])


class ShardedOperator(LinearOperator):
    """Row-partitioned view of a CSR/dense matrix (or operator stack).

    Complexity: O(nnz) per ``matvec``/``rmatvec`` summed across shards
    (``O(nnz·c)`` for ``c``-column blocks), plus O(m + n) coordinator
    work per product for the gather (and, for dense shards, the
    ordered fold); a CSR operator builds the transpose once, in O(nnz).

    Parameters
    ----------
    X:
        What to shard.  Accepts a :class:`CSRMatrix` / scipy sparse
        matrix / :class:`~repro.linalg.operators.CSROperator` (CSR
        mode), a dense ndarray / ``DenseOperator`` (dense mode), or a
        sequence of :class:`LinearOperator` row blocks (ops mode — the
        hook fault-injection tests use to plant a
        :class:`~repro.linalg.operators.FaultyOperator` inside one
        shard; serial/thread backends only).
    n_shards:
        Number of contiguous row shards.  Default:
        :func:`default_shard_count` of the row count — deliberately
        independent of the backend so results never depend on *where*
        the product ran.  Clamped to the row count.
    backend:
        A :class:`~repro.parallel.backends.Backend` instance (caller
        keeps ownership), a backend name, or ``None``; names and
        ``None`` go through
        :func:`~repro.parallel.backends.resolve_backend` sized by
        ``n_jobs``, and the resulting backend is owned (and closed) by
        this operator.
    n_jobs:
        Worker count used only when ``backend`` is not already an
        instance.

    With one shard every product delegates straight to the unsharded
    kernel — the degenerate layout is a true passthrough.  With more, a
    CSR operator builds the matrix's transpose once, holds it for its
    own lifetime, and partitions its rows for the adjoint products.
    """

    def __init__(
        self,
        X: Union[
            CSRMatrix, FloatArray, LinearOperator, Sequence[LinearOperator], Any
        ],
        n_shards: Optional[int] = None,
        backend: Union[None, str, Backend] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._owns_backend = not isinstance(backend, Backend)
        self.backend = resolve_backend(backend, n_jobs)
        self._closed = False

        self.matrix: Optional[CSRMatrix] = None
        self.array: Optional[FloatArray] = None
        self._ops: Optional[List[LinearOperator]] = None

        if isinstance(X, (list, tuple)):
            self._mode = "ops"
            self._init_ops(list(X), n_shards)
        else:
            base = as_operator(X)
            inner_matrix = getattr(base, "matrix", None)
            inner_array = getattr(base, "array", None)
            if isinstance(inner_matrix, CSRMatrix):
                self._mode = "csr"
                self.matrix = inner_matrix
            elif inner_array is not None:
                self._mode = "dense"
                self.array = np.asarray(inner_array)
            else:
                raise TypeError(
                    "ShardedOperator needs a CSR/dense matrix (or a "
                    "sequence of row-block operators); got "
                    f"{type(X).__name__} — wrap structural operators "
                    "around the sharded data operator instead"
                )
            m = base.shape[0]
            self.shape = (m, base.shape[1])
            count = default_shard_count(m) if n_shards is None else int(n_shards)
            if self.matrix is not None:
                # Balance shards by stored entries, not rows — kernel
                # cost is O(nnz), and the cut is still a pure function
                # of the data, so the determinism contract holds.
                self._forward = _row_blocks(
                    self.matrix, nnz_shard_bounds(self.matrix.indptr, count)
                )
            else:
                assert self.array is not None
                self._forward = _row_blocks(self.array, shard_bounds(m, count))

        self.n_shards = len(self._forward.bounds)
        self._single = self.n_shards == 1
        #: CSR adjoints run the forward kernel on nnz-balanced row blocks
        #: of the transpose: each output row of ``X.T U`` is computed
        #: once, by one shard, exactly as the direct adjoint computes it
        #: on the transpose — no reduction.  The transpose is built on a
        #: cache-free view of the matrix, so it lives as long as this
        #: operator and nothing is left cached on the caller's matrix.
        self._adjoint: Optional[_Partition] = None
        if self.matrix is not None and not self._single:
            transpose = csr_row_slice(self.matrix, 0, self.shape[0]).T
            self._adjoint = _row_blocks(
                transpose, nnz_shard_bounds(transpose.indptr, self.n_shards)
            )
        self._partitions = [
            p for p in (self._forward, self._adjoint) if p is not None
        ]
        self._direct: Optional[LinearOperator] = None
        if self._single:
            if self._mode == "ops":
                assert self._ops is not None
                self._direct = self._ops[0]
            elif self._mode == "csr":
                self._direct = as_operator(self.matrix)
            else:
                self._direct = as_operator(self.array)

        #: Set when a remote cluster failed and products fell back to a
        #: local backend; surfaced into ``fit_report_`` by the solvers.
        self.degraded_from: Optional[str] = None
        self.degradation_reason: Optional[str] = None

        self._uses_remote = bool(getattr(self.backend, "remote", False))
        self._uses_shm = (
            not self.backend.supports_closures and not self._uses_remote
        )
        if not self._single:
            if self._uses_shm:
                self._broadcast_shards()
            elif self._uses_remote:
                try:
                    self._ship_remote_shards()
                except TransportError as exc:
                    if (
                        getattr(self.backend, "on_unhealthy", "degrade")
                        != "degrade"
                    ):
                        self.close()
                        raise
                    self._degrade(exc)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _init_ops(
        self, ops: List[LinearOperator], n_shards: Optional[int]
    ) -> None:
        if not ops:
            raise ValueError("ops mode needs at least one row-block operator")
        if not all(isinstance(op, LinearOperator) for op in ops):
            raise TypeError("ops mode expects LinearOperator row blocks")
        n_cols = ops[0].shape[1]
        if any(op.shape[1] != n_cols for op in ops):
            raise ValueError("row-block operators must share column count")
        if n_shards is not None and int(n_shards) != len(ops):
            raise ValueError(
                f"n_shards={n_shards} conflicts with {len(ops)} row blocks"
            )
        if not self.backend.supports_closures:
            raise ValueError(
                "operator-sequence sharding cannot cross a process "
                "boundary; use a serial or thread backend"
            )
        self._ops = ops
        bounds = []
        row = 0
        for op in ops:
            bounds.append((row, row + op.shape[0]))
            row += op.shape[0]
        self._forward = _Partition(bounds, list(ops))
        self.shape = (row, n_cols)

    def _shard_arrays(self, shard: Any) -> Dict[str, FloatArray]:
        if self._mode == "csr":
            return {
                "data": shard.data,
                "indices": shard.indices,
                "indptr": shard.indptr,
            }
        return {"block": np.ascontiguousarray(shard)}

    def _broadcast_shards(self) -> None:
        """One-time shared-memory broadcast of every shard's payload."""
        arena = getattr(self.backend, "arena", None)
        if arena is None:
            raise ValueError(
                f"backend {self.backend.name!r} does not support closures "
                "and has no shared-memory arena"
            )
        for partition in self._partitions:
            for shard in partition.shards:
                refs = arena.share(self._shard_arrays(shard))
                # The first block's shm name is globally unique — it
                # doubles as the worker-side cache key for the shard.
                key = next(iter(refs.values())).name
                partition.bundles.append(
                    {
                        "kind": self._mode,
                        "refs": refs,
                        "shape": shard.shape,
                        "key": key,
                    }
                )
        self._role_in = f"{self._forward.bundles[0]['key']}:in"
        self._role_out = f"{self._forward.bundles[0]['key']}:out"

    def _ship_remote_shards(self) -> None:
        """One-time checksummed shipment of every shard to the cluster.

        Mirrors :meth:`_broadcast_shards` for remote backends: shard
        payloads cross the wire exactly once; per-product traffic is
        limited to operand and result blocks.
        """
        for partition in self._partitions:
            partition.keys = self.backend.ship_shards(
                [
                    {
                        "kind": self._mode,
                        "shape": shard.shape,
                        "arrays": self._shard_arrays(shard),
                    }
                    for shard in partition.shards
                ]
            )

    def _degrade(self, exc: BaseException) -> None:
        """Fall back to the serial backend after cluster failure.

        The local shards built at construction make this a pure
        transport switch: the shard layout — and therefore every bit
        of every subsequent product — is unchanged.
        """
        reason = f"{type(exc).__name__}: {exc}"
        self.degraded_from = self.backend.name
        self.degradation_reason = reason
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metrics.counter("parallel.degradations").add(1.0)
            tracer.event(
                "parallel.backend_degraded",
                from_backend=self.backend.name,
                reason=reason[:200],
            )
        if self._owns_backend:
            self.backend.close()
        self.backend = SerialBackend()
        self._owns_backend = True
        self._uses_remote = False
        self._uses_shm = False

    # ------------------------------------------------------------------
    # Operator contract
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> FloatDType:
        if self._mode == "csr":
            assert self.matrix is not None
            return self.matrix.dtype
        if self._mode == "dense":
            assert self.array is not None
            return self.array.dtype
        assert self._ops is not None
        return np.result_type(*[op.dtype for op in self._ops])

    @property
    def shard_layout(self) -> List[Tuple[int, int]]:
        """The contiguous ``[start, stop)`` row range of each shard."""
        return list(self._forward.bounds)

    def _record(self, timings: List[float]) -> None:
        tracer = current_tracer()
        if not tracer.enabled:
            return
        histogram = tracer.metrics.histogram("parallel.shard_seconds")
        for elapsed in timings:
            histogram.observe(elapsed)
        tracer.metrics.counter("parallel.shard_products").add(
            float(len(timings))
        )

    def _run(
        self,
        partition: _Partition,
        kernel: str,
        operand: FloatArray,
        out_shape: Tuple[int, ...],
        out_dtype: FloatDType,
        order: Literal["C", "F"] = "C",
    ) -> FloatArray:
        """Fan a kernel out over a partition; return the fan-in buffer."""
        if self._uses_remote:
            try:
                return self._run_remote(
                    partition, kernel, operand, out_shape, out_dtype, order
                )
            except TransportError as exc:
                if (
                    getattr(self.backend, "on_unhealthy", "degrade")
                    != "degrade"
                ):
                    raise
                # Fall through to the local path: same shard layout,
                # same kernels — the product below is bit-for-bit what
                # the cluster would have returned.
                self._degrade(exc)
        if self._uses_shm:
            arena = getattr(self.backend, "arena")
            in_view, in_ref = arena.ndarray(
                self._role_in, operand.shape, operand.dtype
            )
            in_view[...] = operand
            out_view, out_ref = arena.ndarray(
                self._role_out, out_shape, out_dtype
            )
            tasks = [
                {
                    "bundle": bundle,
                    "kernel": kernel,
                    "operand": in_ref,
                    "out": out_ref,
                    "rows": rows,
                    "slot": i,
                }
                for i, (bundle, rows) in enumerate(
                    zip(partition.bundles, partition.bounds)
                )
            ]
            timings = self.backend.map(_process_shard_task, tasks)
            # Copy out before the mailbox is reused by the next product.
            result = np.array(out_view, order=order)
        else:
            out = np.empty(out_shape, dtype=out_dtype, order=order)

            def run_shard(index: int) -> float:
                t0 = time.perf_counter()
                _apply_shard_kernel(
                    self._mode,
                    partition.shards[index],
                    kernel,
                    operand,
                    out,
                    partition.bounds[index],
                    index,
                )
                return time.perf_counter() - t0

            timings = self.backend.map(
                run_shard, list(range(len(partition.shards)))
            )
            result = out
        self._record(timings)
        return result

    def _run_remote(
        self,
        partition: _Partition,
        kernel: str,
        operand: FloatArray,
        out_shape: Tuple[int, ...],
        out_dtype: FloatDType,
        order: Literal["C", "F"],
    ) -> FloatArray:
        """Stream one product through the remote cluster.

        Forward kernels ship the full operand (every shard multiplies
        against all columns); fold adjoints ship only each shard's
        ``operand[r0:r1]`` block.  Assembly mirrors
        :func:`_apply_shard_kernel`'s writes exactly, so the returned
        buffer is bitwise what the local paths produce.
        """
        forward = kernel in _FORWARD
        tasks = [
            {
                "key": key,
                "kernel": kernel,
                "operand": operand if forward else operand[r0:r1],
            }
            for key, (r0, r1) in zip(partition.keys, partition.bounds)
        ]
        arrays = self.backend.run_tasks(tasks)
        out = np.empty(out_shape, dtype=out_dtype, order=order)
        for slot, (rows, array) in enumerate(zip(partition.bounds, arrays)):
            r0, r1 = rows
            if forward:
                out[r0:r1] = array
            else:
                out[slot] = array
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metrics.counter("parallel.shard_products").add(
                float(len(tasks))
            )
        return out

    def _matvec(self, v: FloatArray) -> FloatArray:
        if self._direct is not None:
            return self._direct.matvec(v)
        out_dtype = np.result_type(self.dtype, v.dtype)
        return self._run(
            self._forward, "matvec", v, (self.shape[0],), out_dtype
        )

    def _rmatvec(self, u: FloatArray) -> FloatArray:
        if self._direct is not None:
            return self._direct.rmatvec(u)
        out_dtype = np.result_type(self.dtype, u.dtype)
        if self._adjoint is not None:
            return self._run(
                self._adjoint, "matvec", u, (self.shape[1],), out_dtype
            )
        partials = self._run(
            self._forward,
            "rmatvec",
            u,
            (self.n_shards, self.shape[1]),
            out_dtype,
        )
        return _ordered_fold(partials)

    def _forward_block(
        self, partition: _Partition, B: FloatArray, n_rows: int
    ) -> FloatArray:
        out_dtype = np.result_type(self.dtype, B.dtype)
        return self._run(
            partition, "matmat", B, (n_rows, B.shape[1]), out_dtype, order="F"
        )

    def _matmat(self, B: FloatArray) -> FloatArray:
        if self._direct is not None:
            return self._direct.matmat(B)
        if self._mode == "csr":
            # Every shard reads the whole operand; the row-streamed
            # kernel wants it C-ordered, so convert once, not per shard.
            B = np.ascontiguousarray(B)
        return self._forward_block(self._forward, B, self.shape[0])

    def _rmatmat(self, U: FloatArray) -> FloatArray:
        if self._direct is not None:
            return self._direct.rmatmat(U)
        if self._adjoint is not None:
            # The forward block kernel on the transpose's row blocks,
            # fed one C-ordered operand exactly as _matmat feeds it.
            return self._forward_block(
                self._adjoint, np.ascontiguousarray(U), self.shape[1]
            )
        out_dtype = np.result_type(self.dtype, U.dtype)
        partials = self._run(
            self._forward,
            "rmatmat",
            U,
            (self.n_shards, self.shape[1], U.shape[1]),
            out_dtype,
        )
        return _ordered_fold(partials)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the backend if this operator owns it.  Idempotent.

        Shared-memory broadcast blocks live in the backend's arena and
        are unlinked when the backend closes — a caller-supplied
        backend therefore keeps shard payloads mapped (by design: it
        may be serving several operators) until the caller closes it.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "ShardedOperator":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedOperator(shape={self.shape}, mode={self._mode!r}, "
            f"n_shards={self.n_shards}, backend={self.backend.name!r})"
        )
