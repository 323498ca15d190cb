"""Per-layer timing by wrapping the program's entry points from outside.

Nothing under ``src/`` is instrumented.  :class:`LayerTracer` replaces
module and class attributes of :mod:`repro` with thin wrappers, each of
which opens a *frame* for one layer, and :meth:`LayerTracer.restore`
puts every original attribute back.

Self time, not inclusive time
-----------------------------
A frame's self time is its duration minus the part covered by its
child frames, so nested calls are counted once:

- ``csr_rmatmat`` calling ``csr_matmat`` on the cached transpose: a
  kernel called inside a kernel folds into the outer frame (it is the
  same adjoint product), while the first ``CSRMatrix.T`` build inside
  it opens an ``operator_build`` child;
- ``block_lsqr`` calling operator products: the products are child
  frames, so ``lsqr`` self time is the recurrence alone;
- ``ShardedOperator`` products running kernels on worker threads: the
  current frame rides a ``ContextVar``, which the thread backend copies
  into each task, so a worker's frame knows its parent on the calling
  thread.  The worker intervals cover part of the product's wall time;
  the product's self time is what they leave uncovered, and the
  workers' self times are scaled by ``covered / busy`` so a layer sum
  never exceeds wall time.  Unscaled kernel busy time is kept apart
  for ``sharded.kernel_overlap``.

Each frame with no parent (a cold fit, an update, a served batch) is a
*root*; its layer self times are merged into the totals of its
category, so fit-path layers can be reported per fit or per update.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

KERNEL_FORWARD = ("csr_matvec", "csr_matmat")
KERNEL_ADJOINT = (
    "csr_rmatvec",
    "csr_rmatmat",
    "csr_adjoint_products",
    "csr_reduce_adjoint",
)
OPERATOR_PRODUCTS = ("matvec", "rmatvec", "matmat", "rmatmat")

#: Layers whose nested calls fold into the outer frame of the same group.
_FOLDING = {
    "kernels.forward": "kernels",
    "kernels.adjoint": "kernels",
    "operators": "operators",
    "predict": "predict",
}

#: Durations recorded per call, keyed by (layer, parent layer).
_SAMPLED = {
    ("predict", "batcher"): "batcher.model_call_s",
    ("fit", "update"): "update.partial_fit_s",
}


class Frame:
    """One open call into a layer."""

    __slots__ = (
        "layer",
        "start",
        "parent",
        "thread",
        "child",
        "buf",
        "remote",
        "sharded",
        "kernel_busy",
        "reached",
    )

    def __init__(self, layer: str, parent: Optional["Frame"]) -> None:
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.child = 0.0
        self.remote: List[Tuple[float, float, Dict[str, float]]] = []
        self.kernel_busy = 0.0
        self.reached = False
        if parent is not None and parent.thread == self.thread:
            self.buf = parent.buf
        else:
            self.buf: Dict[str, float] = defaultdict(float)
        if layer == "sharded":
            self.sharded: Optional[Frame] = self
        else:
            self.sharded = parent.sharded if parent is not None else None
        self.start = time.perf_counter()

    def ancestor(self, layer: str) -> Optional["Frame"]:
        frame: Optional[Frame] = self
        while frame is not None:
            if frame.layer == layer:
                return frame
            frame = frame.parent
        return None


def _covered(start: float, end: float, spans: List[Tuple[float, float]]) -> float:
    """Length of the union of ``spans`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(spans):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _nbytes(array: Any) -> int:
    return int(getattr(array, "nbytes", 0))


class LayerTracer:
    """Frames, per-category layer totals, and the wrappers that feed them."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar[Optional[Frame]] = (
            contextvars.ContextVar("perfbench_frame", default=None)
        )
        self._lock = threading.Lock()
        self._saved: List[Tuple[Any, str, Any]] = []
        #: category (root layer) -> layer -> wall-attributed self seconds
        self.totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: category -> named counters (kernel calls, bytes, iterations...)
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: named sample lists (queue waits, batch sizes, durations...)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: (wall seconds, sum of layer self seconds) per root fit
        self.fit_sums: List[Tuple[float, float]] = []
        #: stored entries per row (the paper's ``s``) for the flam model;
        #: ``None`` for dense data, where ``s`` is the column count
        self.density: Optional[float] = None

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def current(self) -> Optional[Frame]:
        return self._current.get()

    def category(self) -> Optional[str]:
        """Layer of the root frame the caller is running under."""
        frame = self._current.get()
        while frame is not None and frame.parent is not None:
            frame = frame.parent
        return frame.layer if frame is not None else None

    def _open(self, layer: str) -> Tuple[Frame, contextvars.Token]:
        frame = Frame(layer, self._current.get())
        return frame, self._current.set(frame)

    def _close(self, frame: Frame, token: contextvars.Token) -> float:
        end = time.perf_counter()
        self._current.reset(token)
        duration = end - frame.start
        covered = 0.0
        if frame.remote:
            with self._lock:
                remote = list(frame.remote)
            covered = _covered(
                frame.start, end, [(lo, hi) for lo, hi, _ in remote]
            )
            busy = sum(hi - lo for lo, hi, _ in remote)
            scale = covered / busy if busy > 0 else 0.0
            for _, _, buf in remote:
                for layer, seconds in buf.items():
                    frame.buf[layer] += seconds * scale
        self_time = max(0.0, duration - frame.child - covered)
        frame.buf[frame.layer] += self_time
        sharded = frame.sharded
        if sharded is not None and frame.layer.startswith("kernels."):
            with self._lock:
                sharded.kernel_busy += self_time
        if frame.layer == "sharded":
            self.count("sharded.product_wall_s", duration)
            self.count("sharded.kernel_busy_s", frame.kernel_busy)
        parent = frame.parent
        if parent is not None and (frame.layer, parent.layer) in _SAMPLED:
            self.sample(_SAMPLED[frame.layer, parent.layer], duration)
        if parent is None:
            self._merge_root(frame, duration)
        elif parent.thread == frame.thread:
            parent.child += duration
        else:
            with self._lock:
                parent.remote.append((frame.start, end, frame.buf))
        return duration

    def _merge_root(self, frame: Frame, duration: float) -> None:
        with self._lock:
            totals = self.totals[frame.layer]
            for layer, seconds in frame.buf.items():
                totals[layer] += seconds
            if frame.layer == "fit":
                self.fit_sums.append((duration, sum(frame.buf.values())))
            elif frame.layer == "update":
                self.samples["update.handler_s"].append(duration)

    @contextmanager
    def span(self, layer: str) -> Iterator[Frame]:
        """A frame around a block of the benchmark's own code."""
        frame, token = self._open(layer)
        try:
            yield frame
        finally:
            self._close(frame, token)

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a counter of the caller's root category."""
        category = self.category() or "none"
        with self._lock:
            self.counts[category][name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def _folds(self, layer: str) -> bool:
        """True when ``layer`` continues the caller's frame on this thread."""
        frame = self._current.get()
        group = _FOLDING.get(layer)
        return (
            group is not None
            and frame is not None
            and frame.thread == threading.get_ident()
            and _FOLDING.get(frame.layer) == group
        )

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, new: Any) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[name]
        else:
            original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, new)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _layer_call(self, layer_of: Callable[..., str], fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            layer = layer_of(*args)
            if self._folds(layer):
                return fn(*args, **kwargs)
            frame, token = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, token)

        return wrapper

    def _wrap_method(self, cls: type, name: str, layer: str) -> None:
        self._patch(
            cls, name, self._layer_call(lambda *a: layer, cls.__dict__[name])
        )

    def _wrap_cached_property(
        self, cls: type, name: str, cache: str, layer: str
    ) -> None:
        getter = cls.__dict__[name].fget
        tracer = self

        def fget(obj: Any) -> Any:
            if getattr(obj, cache) is not None:
                return getter(obj)
            with tracer.span(layer):
                return getter(obj)

        self._patch(cls, name, property(fget, doc=cls.__dict__[name].__doc__))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.core import base, srda
        from repro.linalg import kernels, operators, sparse
        from repro.parallel import sharded
        from repro.serving import batching, server

        self._wrap_cached_property(
            sparse.CSRMatrix, "T", "_transpose_cache", "operator_build"
        )
        self._wrap_cached_property(
            sparse.CSRMatrix, "_col_segments", "_col_cache", "operator_build"
        )
        for name in KERNEL_FORWARD:
            self._patch(
                kernels, name, self._kernel(getattr(kernels, name), "forward")
            )
        for name in KERNEL_ADJOINT:
            self._patch(
                kernels, name, self._kernel(getattr(kernels, name), "adjoint")
            )
        if kernels._compiled is not None:
            self._patch(kernels, "_compiled", _CompiledProbe(self, kernels._compiled))

        def operator_layer(op: Any, *_: Any) -> str:
            return (
                "sharded"
                if isinstance(op, sharded.ShardedOperator)
                else "operators"
            )

        for name in OPERATOR_PRODUCTS:
            self._patch(
                operators.LinearOperator,
                name,
                self._layer_call(
                    operator_layer, operators.LinearOperator.__dict__[name]
                ),
            )
        self._patch(
            sharded.ShardedOperator,
            "__init__",
            self._layer_call(
                lambda *a: "sharded.build",
                sharded.ShardedOperator.__dict__["__init__"],
            ),
        )
        self._patch(srda, "block_lsqr", self._block_lsqr(srda.block_lsqr))
        for name in ("generate_responses", "response_table_from_counts"):
            self._patch(
                srda,
                name,
                self._layer_call(lambda *a: "responses", getattr(srda, name)),
            )
        self._wrap_method(srda.SRDA, "fit", "fit")
        self._wrap_method(srda.SRDA, "partial_fit", "fit")
        self._patch(
            base.LinearEmbedder,
            "transform",
            self._layer_call(
                self._transform_layer, base.LinearEmbedder.__dict__["transform"]
            ),
        )
        self._wrap_method(base.LinearEmbedder, "_store_centroids", "embed")
        for name in ("predict", "decision_function"):
            self._wrap_method(base.LinearEmbedder, name, "predict")
        self._patch(
            batching.BatchingPredictor,
            "_serve_group",
            self._serve_group(batching.BatchingPredictor.__dict__["_serve_group"]),
        )
        self._patch(
            server.ServingApp,
            "partial_fit",
            self._layer_call(
                lambda *a: "update", server.ServingApp.__dict__["partial_fit"]
            ),
        )

    # ------------------------------------------------------------------
    # Layer-specific wrappers
    # ------------------------------------------------------------------
    def _transform_layer(self, *_: Any) -> str:
        frame = self._current.get()
        inside_fit = frame is not None and frame.ancestor("fit") is not None
        return "embed" if inside_fit else "predict"

    def _kernel(self, fn: Callable, direction: str) -> Callable:
        layer = "kernels." + direction

        @functools.wraps(fn)
        def wrapper(matrix: Any, operand: Any, *args: Any, **kwargs: Any) -> Any:
            if self._folds(layer):
                return fn(matrix, operand, *args, **kwargs)
            frame, token = self._open(layer)
            try:
                result = fn(matrix, operand, *args, **kwargs)
            finally:
                self._close(frame, token)
            computed = (
                matrix.nnz * (matrix.data.itemsize + matrix.indices.itemsize)
                + _nbytes(operand)
                + _nbytes(result)
            )
            self.count("kernels.calls")
            self.count("kernels.compiled_calls", float(frame.reached))
            self.count("kernels.bytes", float(computed))
            return result

        return wrapper

    def _block_lsqr(self, fn: Callable) -> Callable:
        from repro.complexity.flam import srda_lsqr_flam

        @functools.wraps(fn)
        def wrapper(A: Any, B: Any, *args: Any, **kwargs: Any) -> Any:
            frame, token = self._open("lsqr")
            try:
                result = fn(A, B, *args, **kwargs)
            finally:
                duration = self._close(frame, token)
            m, n = A.shape
            columns = 1 if getattr(B, "ndim", 1) == 1 else B.shape[1]
            iterations = int(result.itn.max()) if result.itn.size else 0
            self.count("lsqr.iterations", iterations)
            self.count("lsqr.wall_s", duration)
            if iterations:
                self.count(
                    "lsqr.flam",
                    srda_lsqr_flam(m, n, columns + 1, k=iterations, s=self.density),
                )
            return result

        return wrapper

    def _serve_group(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(predictor: Any, model: Any, method: str, group: list) -> Any:
            with self.span("batcher") as frame:
                for ticket in group:
                    self.sample(
                        "batcher.queue_wait_s", frame.start - ticket.submitted_at
                    )
                self.sample("batcher.batch_size", float(len(group)))
                return fn(predictor, model, method, group)

        return wrapper


class _CompiledProbe:
    """Stands in for ``repro.linalg._csr_kernels``; marks kernel frames.

    A public kernel call whose frame saw at least one call into the
    extension counts as compiled; the rest ran the numpy reference.
    """

    def __init__(self, tracer: LayerTracer, module: Any) -> None:
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name: str) -> Any:
        target = getattr(self._module, name)
        if not callable(target):
            return target
        tracer = self._tracer

        def call(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.current()
            while frame is not None and not frame.layer.startswith("kernels."):
                frame = frame.parent
            if frame is not None:
                frame.reached = True
            return target(*args, **kwargs)

        return call
