"""A fixed probe of the host's speed, to take host drift out of timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, as neighbours come and go.  In-run medians
remove fast noise but not this drift, so two sets of runs of the same
code disagree.  :class:`Probe` times a fixed piece of numpy work that
touches memory the way the CSR kernels do (gather, multiply, segmented
sums) plus a small dense product, and never calls :mod:`repro`, so no
change to the program can change it.

A run probes the host whenever nothing else runs (:class:`HostClock`)
and normalises each timed operation by the nearest probe before it and
the nearest after it: the reported figure is the operation's seconds on
a host where one probe takes :data:`REF_PROBE_S`.  A change that makes
the program faster lowers the figure; a host that slows down slows the
probe with it and leaves the figure in place.  The raw wall times are
printed beside the result.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List

import numpy as np

#: A fixed reference speed, about one probe on the 2-core host the
#: baseline was recorded on; normalised times are seconds at that speed.
#: Changing it rescales every recorded figure.
REF_PROBE_S = 0.022

#: Probe repeats per measurement; the median is kept.
REPEATS = 5

_ROWS, _COLS, _PER_ROW, _DENSE = 12000, 26000, 90, 192


class Probe:
    """Fixed numpy work, once on one thread and once on ``threads``.

    The arrays come from a fixed seed, never from the run's ``--seed``,
    so every run and every commit times the same work.  Every numpy call
    in the probe releases the GIL.  A probe is the mean of a serial pass
    and a pass on ``threads`` threads at once: a workload that runs two
    threads still has serial parts (the LSQR recurrence, the fold), and
    the parallel pass sees how much of the second core it gets.
    """

    def __init__(self, threads: int = 1) -> None:
        rng = np.random.default_rng(0)
        nnz = _ROWS * _PER_ROW
        self.threads = threads
        self.cols = rng.integers(0, _COLS, nnz)
        self.values = rng.random(nnz)
        self.starts = np.arange(0, nnz, _PER_ROW)
        # The same matrix stored by column, for the adjoint product.
        order = np.argsort(self.cols, kind="stable")
        self.t_rows = np.repeat(np.arange(_ROWS), _PER_ROW)[order]
        self.t_values = self.values[order]
        counts = np.bincount(self.cols, minlength=_COLS)
        self.t_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[counts > 0]
        self.x = rng.random(_COLS)
        self.y = rng.random(_ROWS)
        self.dense = rng.random((_DENSE, _DENSE))

    def _work(self) -> None:
        for _ in range(3):
            np.add.reduceat(self.values * np.take(self.x, self.cols), self.starts)
            np.add.reduceat(
                self.t_values * np.take(self.y, self.t_rows), self.t_starts
            )
        for _ in range(2):
            np.matmul(self.dense, self.dense)

    def _once(self) -> float:
        started = time.perf_counter()
        self._work()
        serial = time.perf_counter() - started
        helpers = [
            threading.Thread(target=self._work, name=f"perfbench-probe-{i}")
            for i in range(self.threads - 1)
        ]
        started = time.perf_counter()
        for helper in helpers:
            helper.start()
        self._work()
        for helper in helpers:
            helper.join()
        return (serial + time.perf_counter() - started) / 2

    def measure(self) -> float:
        """Median seconds of :data:`REPEATS` probes."""
        return statistics.median(self._once() for _ in range(REPEATS))


def normalise(seconds: float, probes: List[float]) -> float:
    """``seconds`` at the speed where the mean probe takes :data:`REF_PROBE_S`."""
    return seconds * REF_PROBE_S / statistics.fmean(probes)


class HostClock:
    """Probes taken while nothing else runs, on the run's timeline."""

    def __init__(self, threads: int = 1) -> None:
        self._probe = Probe(threads)
        #: perf_counter when each probe finished, and its seconds
        self.finished: List[float] = []
        self.probes: List[float] = []

    def measure(self) -> None:
        self.probes.append(self._probe.measure())
        self.finished.append(time.perf_counter())

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """Normalise an operation that ran from ``start`` to ``end``.

        It is scaled by the mean of the last probe that finished before
        it started and the first that finished after it ended (one of
        them where the other does not exist).
        """
        before = bisect.bisect_right(self.finished, start)
        after = bisect.bisect_left(self.finished, end)
        around = self.probes[max(0, before - 1) : before]
        around += self.probes[after : after + 1]
        return normalise(seconds, around)
