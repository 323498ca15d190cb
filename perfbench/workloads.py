"""The three workloads: inputs from a seed, the measured lifecycle, checks.

Every workload runs the same lifecycle through :mod:`repro`'s public
API, on its own data and solver configuration:

1. **Cold fits.** ``SRDA(...).fit`` repeated on the training split; each
   fit gets a freshly built input (``CSRMatrix.T`` is cached per
   instance, and users pay the transpose once per fit).  Building that
   input is the set-up sample.
2. **Held-out predict** of the last cold-fit model.
3. **Serving.** A model seeded by ``partial_fit`` is registered in a
   :class:`~repro.serving.ModelRegistry` and served in-process by a
   :class:`~repro.serving.server.ServingApp`.  One generator sends
   single rows open-loop at 1000 rows/s, then at 8000 rows/s.  A writer
   thread applies labelled batches through copy-on-update
   ``partial_fit``: during the phases on ``serve-isolet``, after them on
   the text workloads, whose updates re-solve the whole stream.

Timings are reported normalised by a host probe (``calibrate.py``) timed
while nothing else runs: before the first cold fit, after each one,
after each serve phase and after each update that runs after the
phases.  Each set-up, cold fit and text update is normalised by the
probes either side of it, so host drift between runs does not read as
a change in the program.  Updates that run beside the serve phases
(``serve-isolet``) have no probe next to them and stay raw.  The raw
medians are returned beside the metrics.

Outputs are checked in every run: repeat fits must agree bit for bit,
the held-out error must stay near its pinned value, every served
result must equal the direct ``predict`` of the model version that
served it, and every update must succeed and advance the registry.
"""

from __future__ import annotations

import copy
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from calibrate import HostClock
from loadgen import PhaseLog, Writer, open_loop
from layers import LayerTracer

#: Open-loop rates (rows/s) and their metric suffixes.
RATES = (("r1k", 1000.0), ("r8k", 8000.0))

#: Unmeasured requests sent before the first phase.
WARMUP_REQUESTS = 16

#: Latency limit for ``slo_met_share.r8k``.
SLO_MS = 20.0

MODEL_NAME = "srda"

#: Generator seed of the fixed datasets; ``--seed`` only splits them.
DATA_SEED = 0

EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Most row bytes replayed in one direct predict while verifying.
REPLAY_BYTES = 32 << 20


@dataclass(frozen=True)
class Spec:
    """What distinguishes one workload."""

    name: str
    sparse: bool
    float32: bool
    n_jobs: Optional[int]
    #: shares of ``--seconds`` given to the cold fits and to each serve phase
    fit_share: float
    phase_share: float
    updates: int
    #: updates run during the serve phases (split evenly), or after them
    concurrent_updates: bool


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("text-f64", True, False, None, 0.6, 0.08, 3, False),
        Spec("text-f32-jobs2", True, True, 2, 0.6, 0.08, 3, False),
        Spec("serve-isolet", False, False, None, 0.15, 0.4, 12, True),
    )
}

#: Generator arguments per scale; ``tiny`` is for the self-tests.
SCALES = {
    "full": {
        "text": {"n_docs": 18941, "vocab_size": 26214},
        "isolet": {
            "n_train_speakers": 130,
            "n_test_speakers": 120,
            "noise_scale": 1.5,
        },
        "train_speakers": 120,
        #: rows per update batch
        "update_rows": {"text": 300, "isolet": 50},
        "served_rows": 256,
        "min_fits": 3,
    },
    "tiny": {
        "text": {"n_docs": 400, "vocab_size": 1500},
        "isolet": {
            "n_train_speakers": 8,
            "n_test_speakers": 4,
            "n_features": 64,
        },
        "train_speakers": 7,
        "update_rows": {"text": 30, "isolet": 15},
        "served_rows": 64,
        "min_fits": 2,
    },
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Raw generated arrays; the program receives only these."""

    train: Any
    y_train: np.ndarray
    test: Any
    y_test: np.ndarray
    stream: Any
    y_stream: np.ndarray
    updates: List[Tuple[Any, np.ndarray]]
    served: np.ndarray
    density: Optional[float]


def make_inputs(spec: Spec, seed: int, scale: str) -> Inputs:
    """Split the workload's fixed dataset by ``seed``.

    The dataset is generated from :data:`DATA_SEED`, as a real dataset
    is fixed, and so is its test set, so the held-out error moves only
    with the model.  ``seed`` picks the training rows (which documents
    are held back for updates; which speakers of the training pool
    train), the update batches and the order of served rows.
    """
    sizes = SCALES[scale]
    n_updates = spec.updates
    batch = sizes["update_rows"]["text" if spec.sparse else "isolet"]
    rng = np.random.default_rng(seed)
    if spec.sparse:
        from repro.datasets.text import make_text

        data = make_text(seed=DATA_SEED, **sizes["text"])
        m = data.X.shape[0]
        fixed = np.random.default_rng(DATA_SEED).permutation(m)
        n_test = int(0.4 * m)
        test_idx = np.sort(fixed[:n_test])
        pool = rng.permutation(fixed[n_test:])
        update_idx = pool[: n_updates * batch]
        train_idx = np.sort(pool[n_updates * batch :])
        dtype = np.float32 if spec.float32 else np.float64

        def rows(idx: np.ndarray) -> Any:
            sub = data.X.take_rows(idx)
            return type(sub)(sub.data.astype(dtype), sub.indices, sub.indptr, sub.shape)

        train, test = rows(train_idx), rows(test_idx)
        served_idx = rng.choice(test_idx.size, sizes["served_rows"], replace=False)
        served = test.take_rows(np.sort(served_idx)).to_dense()
        return Inputs(
            train=train,
            y_train=data.y[train_idx],
            test=test,
            y_test=data.y[test_idx],
            stream=train,
            y_stream=data.y[train_idx],
            updates=[
                (rows(chunk), data.y[chunk])
                for chunk in np.split(update_idx, n_updates)
            ],
            served=np.ascontiguousarray(served, dtype=np.float32),
            density=train.nnz / train.shape[0],
        )
    from repro.datasets.spoken_letters import make_spoken_letters

    isolet = sizes["isolet"]
    data = make_spoken_letters(seed=DATA_SEED, **isolet)
    speakers = rng.permutation(isolet["n_train_speakers"])[: sizes["train_speakers"]]
    train_pool = rng.permutation(
        np.flatnonzero(np.isin(data.metadata["speaker_ids"], speakers))
    )
    test_idx = data.metadata["test_pool"]
    n_stream = train_pool.size - n_updates * batch
    return Inputs(
        train=data.X[np.sort(train_pool)],
        y_train=data.y[np.sort(train_pool)],
        test=data.X[test_idx],
        y_test=data.y[test_idx],
        stream=data.X[train_pool[:n_stream]],
        y_stream=data.y[train_pool[:n_stream]],
        updates=[
            (data.X[chunk], data.y[chunk])
            for chunk in np.split(train_pool[n_stream:], n_updates)
        ],
        served=np.ascontiguousarray(data.X[test_idx], dtype=np.float32),
        density=None,
    )


def fresh_input(train: Any) -> Any:
    """A new copy of the training input, as a user would build it."""
    if isinstance(train, np.ndarray):
        return np.array(train)
    return type(train)(
        train.data.copy(), train.indices.copy(), train.indptr.copy(), train.shape
    )


def make_model(spec: Spec) -> Any:
    from repro import SRDA
    from repro.core.solver_config import SolverConfig

    if spec.n_jobs is None:
        return SRDA()
    return SRDA(config=SolverConfig(n_jobs=spec.n_jobs, backend="thread"))


# ----------------------------------------------------------------------
# Serving harness
# ----------------------------------------------------------------------
class ServedLog:
    """Which model version answered each block call, and what it said.

    Every model registered gets an instance ``predict`` that records its
    version before delegating to the class method, so the served
    results can later be replayed against that exact version.  The log
    keeps a predict-only copy of each version (its fitted attributes
    without the training responses), so it does not keep the registry's
    models, and their data, alive.
    """

    def __init__(self, registry: Any) -> None:
        #: (version, rows, results, perf_counter when the call returned)
        self.calls: List[Tuple[int, int, np.ndarray, float]] = []
        self.models: Dict[int, Any] = {}
        register = registry.register

        def recording_register(name: str, model: Any, note: str = "") -> int:
            version = register(name, model, note)
            snapshot = model.clone()
            for attr, value in model.fitted_attributes().items():
                if attr != "responses_":
                    setattr(snapshot, attr, value)
            self.models[version] = snapshot
            model.predict = self._recorder(version, model)
            return version

        registry.register = recording_register

    def _recorder(self, version: int, model: Any) -> Callable[[Any], Any]:
        def predict(X: Any) -> Any:
            result = type(model).predict(model, X)
            finished = time.perf_counter()
            self.calls.append((version, X.shape[0], np.asarray(result), finished))
            return result

        return predict


def settle_served(log: ServedLog, phases: List[PhaseLog], rows: np.ndarray) -> int:
    """Stamp each answered request's finish time; count wrong results.

    The batcher answers requests in submission order, so the k-th
    answered request is the k-th row across the recorded block calls,
    and it finished when that call returned.  A served result is wrong
    when it differs from the direct ``predict`` of the version that
    served it.  Consecutive blocks of one version are replayed
    together, up to :data:`REPLAY_BYTES` of rows; a replay that
    disagrees is repeated block by block, so only a real mismatch
    counts.
    """
    answered = [
        (phase, index) for phase in phases for index in np.flatnonzero(~phase.failed)
    ]
    if sum(n for _, n, _, _ in log.calls) != len(answered):
        return len(answered)
    served_rows = np.array([phase.rows[index] for phase, index in answered])
    cap = max(1, REPLAY_BYTES // rows[0].nbytes)
    mismatches = 0
    cursor = 0
    pending: List[Tuple[int, int, np.ndarray]] = []

    def replay() -> int:
        model = log.models[pending[0][0]]

        def wrong(at: int, results: np.ndarray) -> np.ndarray:
            block = rows[served_rows[at : at + len(results)]]
            return type(model).predict(model, block) != results

        served = np.concatenate([result for _, _, result in pending])
        if not wrong(pending[0][1], served).any():
            return 0
        return sum(int(wrong(at, result).sum()) for _, at, result in pending)

    for version, n, result, finished in log.calls:
        for (phase, index), value in zip(answered[cursor : cursor + n], result):
            phase.finished[index] = finished
            mismatches += int(phase.results[index] != value)
        queued = cursor - pending[0][1] if pending else 0
        if pending and (version != pending[0][0] or queued + n > cap):
            mismatches += replay()
            pending = []
        pending.append((version, cursor, result))
        cursor += n
    if pending:
        mismatches += replay()
    return mismatches


# ----------------------------------------------------------------------
# The lifecycle
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Checked operations, the failures among them, and why they failed."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(note)


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]]
    tally: Tally
    #: raw (not normalised) medians and the median probe, in seconds
    raw: Dict[str, float]


#: (perf_counter at the start, seconds) of one timed operation
Timed = Tuple[float, float]


@dataclass
class Fits:
    """Set-ups and cold fits, untraced and traced."""

    setup: List[Timed] = field(default_factory=list)
    plain: List[Timed] = field(default_factory=list)
    traced: List[Timed] = field(default_factory=list)
    model: Any = None


@dataclass
class Serving:
    phases: Dict[str, PhaseLog]
    updates: List[Timed]
    versions: int


def _raw_median(samples: List[Timed]) -> float:
    return statistics.median(seconds for _, seconds in samples)


def _percentile(values: Any, q: float) -> float:
    values = np.asarray(values)
    return float(np.percentile(values, q)) if values.size else 0.0


def run(spec: Spec, seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    """Run one workload; end-to-end metrics, or per-layer ones if ``trace``."""
    inputs = make_inputs(spec, seed, scale)
    tracer = LayerTracer() if trace else None
    if tracer is not None:
        tracer.density = inputs.density
    tally = Tally()
    clock = HostClock(spec.n_jobs or 1)
    fits = _cold_fits(spec, inputs, seconds, scale, tracer, tally, clock)
    error_pct = _held_out_error(spec, scale, fits.model, inputs, tally)
    fits.model = None
    serving = _serve(spec, inputs, seed, seconds, tracer, tally, clock)
    timed = {"setup_s": fits.setup, "fit_s": fits.plain, "update_s": serving.updates}
    raw = {name: _raw_median(samples) for name, samples in timed.items()}
    raw["probe_s"] = statistics.median(clock.probes)
    if tracer is None:
        if spec.concurrent_updates:
            del timed["update_s"]
        metrics: Dict[str, Tuple[float, str]] = {
            name: (
                statistics.median(
                    clock.normalise(seconds, start, start + seconds)
                    for start, seconds in samples
                ),
                "s",
            )
            for name, samples in timed.items()
        }
        metrics.setdefault("update_s", (raw["update_s"], "s"))
        metrics.update(_end_to_end(error_pct))
        return Outcome(metrics, tally, raw)
    for wall, layers in tracer.fit_sums:
        tally.add(
            1,
            int(layers > wall * (1 + 1e-9) + 1e-9),
            f"layer self times {layers:.6f} s exceed fit {wall:.6f} s",
        )
    return Outcome(_per_layer(spec, tracer, fits, serving), tally, raw)


def _cold_fits(
    spec: Spec,
    inputs: Inputs,
    seconds: float,
    scale: str,
    tracer: Optional[LayerTracer],
    tally: Tally,
    clock: HostClock,
) -> Fits:
    """Repeat cold fits for the workload's share of the run.

    The host is probed before the first fit and after each one.  With a
    tracer, fits alternate untraced and traced, so the traced run also
    measures the tracing overhead on the same work.
    """
    fits = Fits()
    clock.measure()
    reference: Optional[bytes] = None
    min_fits = SCALES[scale]["min_fits"] * (2 if tracer is not None else 1)
    budget = spec.fit_share * seconds
    started = time.perf_counter()
    while len(fits.setup) < min_fits or time.perf_counter() - started < budget:
        t0 = time.perf_counter()
        X = fresh_input(inputs.train)
        fits.setup.append((t0, time.perf_counter() - t0))
        traced = tracer is not None and len(fits.setup) % 2 == 0
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            fits.model = make_model(spec).fit(X, inputs.y_train)
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.restore()
        clock.measure()
        (fits.traced if traced else fits.plain).append((t0, elapsed))
        components = np.ascontiguousarray(fits.model.components_).tobytes()
        if reference is None:
            reference = components
        tally.add(1, int(components != reference), "repeat fit changed components_")
        del X
    return fits


def _held_out_error(
    spec: Spec, scale: str, model: Any, inputs: Inputs, tally: Tally
) -> float:
    """Held-out error in percent, checked against the pinned value."""
    error_pct = 100.0 * float(np.mean(model.predict(inputs.test) != inputs.y_test))
    pinned = json.loads(EXPECTED.read_text())[scale][spec.name]
    tally.add(
        1,
        int(abs(error_pct - pinned["test_error_pct"]) > pinned["tolerance_pct"]),
        f"test_error_pct {error_pct:.3f} outside "
        f"{pinned['test_error_pct']} ± {pinned['tolerance_pct']}",
    )
    return error_pct


def _serve(
    spec: Spec,
    inputs: Inputs,
    seed: int,
    seconds: float,
    tracer: Optional[LayerTracer],
    tally: Tally,
    clock: HostClock,
) -> Serving:
    """Open-loop reads at each rate, with the workload's updates."""
    from repro.serving import ModelRegistry
    from repro.serving.server import ServingApp

    registry = ModelRegistry()
    served_log = ServedLog(registry)
    seed_model = make_model(spec).partial_fit(inputs.stream, inputs.y_stream)
    registry.register(MODEL_NAME, seed_model, note="seed")
    del seed_model
    app = ServingApp(registry, MODEL_NAME)
    # A server answers its first requests once; warm it up unmeasured.
    for row in inputs.served[:WARMUP_REQUESTS]:
        app.predictor.predict(row, timeout=60.0)
    served_log.calls.clear()

    def update(batch: Tuple[Any, np.ndarray]) -> None:
        rows, labels = batch
        before = registry.active_version(MODEL_NAME)
        if spec.sparse:
            _sparse_update(registry, rows, labels, tracer)
        else:
            status, body = app.partial_fit({"rows": rows, "labels": labels})
            if status != 200:
                raise RuntimeError(f"partial_fit returned {status}: {body}")
        after = registry.active_version(MODEL_NAME)
        if after != before + 1:
            raise RuntimeError(f"version went {before} -> {after}")

    updates: List[Timed] = []

    def write(batches: List[Any], duration: float, alone: bool) -> Writer:
        # A writer that runs alone may probe the host between updates.
        writer = Writer(update, batches, duration, clock.measure if alone else None)
        writer.start()
        return writer

    def finish(writer: Writer) -> None:
        writer.join()
        # Nothing else runs now: the phase is over and the writer done.
        clock.measure()
        updates.extend(writer.log.updates)
        tally.attempted += len(writer.log.updates)
        tally.failed += len(writer.log.failures)
        tally.notes.extend(writer.log.failures)

    per_phase = spec.updates // len(RATES) if spec.concurrent_updates else 0
    rng = np.random.default_rng(seed + 1)
    phases: Dict[str, PhaseLog] = {}
    duration = spec.phase_share * seconds
    if tracer is not None:
        tracer.install()
    try:
        for index, (label, rate) in enumerate(RATES):
            batches = inputs.updates[index * per_phase : (index + 1) * per_phase]
            writer = write(batches, duration, alone=False)
            order = rng.integers(inputs.served.shape[0], size=int(rate * duration) + 1)
            phases[label] = open_loop(
                app.predictor.submit, inputs.served, order, rate, duration
            )
            finish(writer)
        if not spec.concurrent_updates:
            finish(write(inputs.updates, 0.0, alone=True))
    finally:
        app.close()
        if tracer is not None:
            tracer.restore()

    logs = list(phases.values())
    errors = int(sum(log.failed.sum() for log in logs))
    mismatches = settle_served(served_log, logs, inputs.served)
    tally.add(
        sum(log.failed.size for log in logs),
        errors + mismatches,
        f"{errors} requests failed, {mismatches} results mismatched",
    )
    active = registry.active_version(MODEL_NAME)
    tally.add(1, int(active != 1 + len(updates)), f"active version {active}")
    return Serving(phases, updates, len(registry.versions(MODEL_NAME)))


def _sparse_update(
    registry: Any, rows: Any, labels: np.ndarray, tracer: Optional[LayerTracer]
) -> None:
    """Copy-on-update through the registry, as ``ServingApp.partial_fit`` does.

    ``ServingApp.partial_fit`` turns its rows into a dense float array,
    which a sparse ``partial_fit`` stream rejects, so sparse batches
    take the same steps through the registry's public API.
    """
    if tracer is not None:
        with tracer.span("update"):
            _sparse_update(registry, rows, labels, None)
        return
    candidate = copy.deepcopy(registry.active(MODEL_NAME))
    candidate.partial_fit(rows, labels)
    version = registry.register(MODEL_NAME, candidate, note="partial_fit")
    registry.promote(MODEL_NAME, version)


def _end_to_end(error_pct: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics that are not timings."""
    return {
        "test_error_pct": (error_pct, "%"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def _per_layer(
    spec: Spec, tracer: LayerTracer, fits: Fits, serving: Serving
) -> Dict[str, Tuple[float, str]]:
    """Fit-path layers per cold fit (text) or per update (serve)."""
    samples = tracer.samples
    if spec.sparse:
        category, ops = "fit", len(fits.traced)
    else:
        category, ops = "update", len(samples["update.handler_s"])
    totals = tracer.totals[category]
    counts = tracer.counts[category]
    kernel_s = totals["kernels.forward"] + totals["kernels.adjoint"]
    calls = counts["kernels.calls"]
    copy_s = [
        handler - inner
        for handler, inner in zip(
            samples["update.handler_s"], samples["update.partial_fit_s"]
        )
    ]
    waits_ms = np.asarray(samples["batcher.queue_wait_s"]) * 1e3
    late_ms = np.concatenate([log.late for log in serving.phases.values()]) * 1e3

    def per_op(value: float) -> float:
        return value / max(1, ops)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    def median(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    metrics: Dict[str, Tuple[float, str]] = {
        "operator_build_s": (per_op(totals["operator_build"]), "s"),
        "kernels.matmat_s": (per_op(totals["kernels.forward"]), "s"),
        "kernels.rmatmat_s": (per_op(totals["kernels.adjoint"]), "s"),
        "kernels.calls": (round(per_op(calls)), "count"),
        "kernels.reference_share": (
            1.0 - ratio(counts["kernels.compiled_calls"], calls) if calls else 0.0,
            "share",
        ),
        "kernels.gbps_computed": (
            ratio(counts["kernels.bytes"], kernel_s) / 1e9,
            "GB/s",
        ),
        "lsqr.iterations": (round(per_op(counts["lsqr.iterations"])), "count"),
        "lsqr.recurrence_s": (per_op(totals["lsqr"]), "s"),
        "solve.flam_per_s": (
            ratio(counts["lsqr.flam"], counts["lsqr.wall_s"]),
            "flam/s",
        ),
        "operators.products_s": (per_op(totals["operators"]), "s"),
        "sharded.overhead_s": (
            per_op(totals["sharded"] + totals["sharded.build"]),
            "s",
        ),
        "sharded.kernel_overlap": (
            ratio(counts["sharded.kernel_busy_s"], counts["sharded.product_wall_s"]),
            "ratio",
        ),
        "responses_s": (per_op(totals["responses"]), "s"),
        "embed_s": (per_op(totals["embed"]), "s"),
        "batcher.queue_wait_ms.p50": (_percentile(waits_ms, 50), "ms"),
        "batcher.queue_wait_ms.p99": (_percentile(waits_ms, 99), "ms"),
        "batcher.batch_size": (
            statistics.fmean(samples["batcher.batch_size"] or [0.0]),
            "rows",
        ),
        "batcher.model_call_ms": (1e3 * median(samples["batcher.model_call_s"]), "ms"),
        "update.partial_fit_s": (median(samples["update.partial_fit_s"]), "s"),
        "update.copy_s": (median(copy_s), "s"),
        "registry.versions": (serving.versions, "count"),
        "generator.late_ms.p99": (_percentile(late_ms, 99), "ms"),
    }
    r8k = serving.phases["r8k"]
    met = int(np.sum(r8k.latencies_ms() <= SLO_MS))
    metrics["slo_met_share.r8k"] = (met / r8k.failed.size, "share")
    for label, _ in RATES:
        latencies = serving.phases[label].latencies_ms()
        for q in (50, 99):
            metrics[f"predict_p{q}_ms.{label}"] = (_percentile(latencies, q), "ms")
    metrics["trace_overhead"] = (
        _raw_median(fits.traced) / _raw_median(fits.plain) - 1.0,
        "ratio",
    )
    return metrics
