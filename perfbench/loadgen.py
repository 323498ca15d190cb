"""Open-loop request generator and closed-loop writer for one serve phase.

The generator sends single-row ``predictor.submit`` calls on a fixed
schedule whatever the server's state, so a stall builds a queue.  Each
request is timed from when it was *due* to when the batcher finished
the block call that answered it (see ``workloads.ServedLog``), so the
generator's own wake-ups do not count as server latency; how late the
generator sent is recorded apart.  It sends every request that is due,
collects finished tickets without waiting for them (dropping each as
soon as its result is read) and sleeps until the next request is due.

The writer runs its updates one after another, each due at the middle
of its share of the phase, with at least :data:`MIN_PAUSE_S` between
the end of one and the start of the next.  When nothing else runs
beside it, it can probe the host after each update (``calibrate.py``).
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

#: Seconds the writer rests after each update.
MIN_PAUSE_S = 0.5

#: Seconds after the last send that outstanding requests may still finish.
DRAIN_S = 10.0


@dataclass
class PhaseLog:
    """Per-request outcomes of one phase, as flat arrays.

    Tickets are dropped as soon as they are read, so the phase keeps few
    live objects and the garbage collector's pauses stay short.
    ``finished`` is filled in afterwards from the served-call log.
    """

    due: np.ndarray
    late: np.ndarray
    rows: np.ndarray
    results: List[Any]
    failed: np.ndarray
    finished: np.ndarray

    def latencies_ms(self) -> np.ndarray:
        ok = ~self.failed & ~np.isnan(self.finished)
        return (self.finished[ok] - self.due[ok]) * 1e3


@dataclass
class WriterLog:
    #: (perf_counter at the start, seconds) per update
    updates: List[Tuple[float, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def open_loop(
    submit: Callable[[np.ndarray], Any],
    rows: np.ndarray,
    order: Sequence[int],
    rate: float,
    duration: float,
) -> PhaseLog:
    """Send ``rate × duration`` requests on schedule; collect their results."""
    n = max(1, int(round(rate * duration)))
    interval = 1.0 / rate
    start = time.perf_counter() + 0.005
    log = PhaseLog(
        due=start + interval * np.arange(n),
        late=np.zeros(n),
        rows=np.asarray(order[:n], dtype=np.int64),
        results=[None] * n,
        failed=np.ones(n, dtype=bool),
        finished=np.full(n, np.nan),
    )
    due = log.due.tolist()
    row_ids = log.rows.tolist()
    outstanding: Deque[Tuple[int, Any]] = deque()

    def collect(ticket: Any, index: int) -> None:
        log.results[index] = ticket.result
        log.failed[index] = ticket.error is not None

    sent = 0
    while sent < n:
        now = time.perf_counter()
        while sent < n and due[sent] <= now:
            log.late[sent] = time.perf_counter() - due[sent]
            outstanding.append((sent, submit(rows[row_ids[sent]])))
            sent += 1
        while outstanding and outstanding[0][1].done.is_set():
            index, ticket = outstanding.popleft()
            collect(ticket, index)
        if sent < n:
            time.sleep(max(0.0, due[sent] - time.perf_counter()))
    deadline = due[-1] + DRAIN_S
    for index, ticket in outstanding:
        if ticket.done.wait(max(0.0, deadline - time.perf_counter())):
            collect(ticket, index)
    return log


class Writer(threading.Thread):
    """Run ``update(batch)`` for each batch, spread over ``duration``."""

    def __init__(
        self,
        update: Callable[[Any], None],
        batches: Sequence[Any],
        duration: float,
        probe: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(name="perfbench-writer", daemon=True)
        self._update = update
        self._probe = probe
        self._batches = batches
        self._duration = duration
        self.log = WriterLog()

    def run(self) -> None:
        start = time.perf_counter()
        ready = start
        spacing = self._duration / max(1, len(self._batches))
        for index, batch in enumerate(self._batches):
            target = max(ready, start + (index + 0.5) * spacing)
            time.sleep(max(0.0, target - time.perf_counter()))
            began = time.perf_counter()
            # The writer is a boundary that must keep running: a failed
            # update is recorded and counted, not raised into nowhere.
            try:
                self._update(batch)
            except Exception:  # noqa: BLE001
                self.log.failures.append(traceback.format_exc())
            finished = time.perf_counter()
            self.log.updates.append((began, finished - began))
            if self._probe is not None:
                self._probe()
            ready = time.perf_counter() + MIN_PAUSE_S
