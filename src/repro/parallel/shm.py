"""Shared-memory transport for the process backend.

The process backend's contract (see :mod:`repro.parallel.backends`) is
that shard *data* crosses the process boundary exactly once, and that
per-product traffic is limited to small picklable descriptors: operands
and results travel through named ``multiprocessing.shared_memory``
blocks that workers attach to lazily and keep mapped for the life of
the pool.

Two roles, two lifetimes:

- **Broadcast blocks** (:meth:`SharedArena.share`) hold immutable shard
  payloads (CSR ``data``/``indices``/``indptr`` or a dense row block).
  Created once at :class:`~repro.parallel.sharded.ShardedOperator`
  construction, unlinked when the arena closes.
- **Scratch blocks** (:meth:`SharedArena.ndarray`) are reusable
  mailboxes for operands and results.  They grow monotonically (a block
  is recreated only when a product needs more bytes than the current
  capacity), so a solver alternating ``matvec``/``rmatvec`` allocates
  at most twice and then reuses the same two mappings for every
  iteration.

The coordinator — the process that created the arena — owns cleanup:
:meth:`SharedArena.close` unlinks every block.  Workers only ever
attach (:func:`attach_array`) and unmap at exit; spawn workers share
the coordinator's ``resource_tracker``, so the attach-side
re-registration is a set no-op and needs no bpo-39959 workaround.
"""

from __future__ import annotations

import atexit
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

__all__ = ["SharedArrayRef", "SharedArena", "attach_array"]


class SharedArrayRef(NamedTuple):
    """Picklable handle to an ndarray living in a shared-memory block."""

    name: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for extent in self.shape:
            count *= int(extent)
        return count * np.dtype(self.dtype).itemsize


class _Block(shared_memory.SharedMemory):
    """A shared-memory block whose ``close()`` tolerates live views.

    ``SharedMemory.close()`` raises ``BufferError`` while an ndarray
    still views the mapping, and ``__del__`` retries it at collection,
    where the error can only surface as an unraisable exception.  A
    close that meets live views here hands the mapping over to them
    instead: the block drops its own handles, so no later close (the
    one in ``__del__`` included) touches the mapping again, and the
    pages are unmapped when the last view dies.
    """

    def close(self) -> None:
        try:
            super().close()
        except BufferError:
            # The views pin the memoryview, which pins the mmap; forget
            # both and close only the descriptor.
            self._buf = None  # type: ignore[attr-defined]
            self._mmap = None  # type: ignore[attr-defined]
            super().close()


def _block_view(
    shm: shared_memory.SharedMemory, dtype: str, shape: Tuple[int, ...]
) -> np.ndarray:
    """An ndarray view over the head of a (possibly larger) block."""
    count = 1
    for extent in shape:
        count *= int(extent)
    flat = np.frombuffer(shm.buf, dtype=np.dtype(dtype), count=count)
    return flat.reshape(shape)


def _dispose(shm: shared_memory.SharedMemory) -> None:
    """Unmap and unlink one owned block.

    A block still viewed by a live ndarray stays mapped until that view
    dies (:class:`_Block`); the unlink happens regardless (POSIX removes
    the name immediately and frees the pages when the last mapping
    dies), so the two steps are guarded independently.
    """
    try:
        shm.close()
    except OSError:
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass


def _release_blocks(
    broadcast: List[shared_memory.SharedMemory],
    scratch: Dict[str, shared_memory.SharedMemory],
) -> None:
    """Unlink every block in the given containers (in place).

    Module-level (and fed the bare containers, never the arena) so a
    ``weakref.finalize`` can use it without keeping the arena alive.
    """
    for shm in list(broadcast) + list(scratch.values()):
        _dispose(shm)
    broadcast.clear()
    scratch.clear()


class SharedArena:
    """Coordinator-side owner of a set of shared-memory blocks.

    Cleanup is guaranteed on three independent paths: explicit
    :meth:`close` (the normal case, and what the process backend runs
    *eagerly* when a worker crashes mid-map), garbage collection of an
    arena that was never closed (a backend dropped after a crashed
    fit), and interpreter exit — the latter two via one
    ``weakref.finalize``, which unlike the previous bound-method
    ``atexit`` hook holds no strong reference to the arena, so an
    abandoned arena's segments are unlinked at GC time instead of
    leaking until exit.
    """

    def __init__(self) -> None:
        self._broadcast: List[shared_memory.SharedMemory] = []
        self._scratch: Dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release_blocks, self._broadcast, self._scratch
        )

    def share(self, arrays: Dict[str, np.ndarray]) -> Dict[str, SharedArrayRef]:
        """Copy each array into its own block; returns attach handles.

        This is the one-time broadcast: after it returns, workers can
        reconstruct every array zero-copy from the returned refs.
        """
        refs: Dict[str, SharedArrayRef] = {}
        for key, array in arrays.items():
            array = np.ascontiguousarray(array)
            shm = _Block(create=True, size=max(1, array.nbytes))
            self._broadcast.append(shm)
            ref = SharedArrayRef(shm.name, array.dtype.str, array.shape)
            if array.nbytes:
                _block_view(shm, ref.dtype, ref.shape)[...] = array
            refs[key] = ref
        return refs

    def ndarray(
        self, role: str, shape: Tuple[int, ...], dtype: np.dtype
    ) -> Tuple[np.ndarray, SharedArrayRef]:
        """A scratch array for ``role`` (``"in"``/``"out"``), grown on demand.

        Returns the coordinator's writable view plus the picklable ref
        workers attach with.  Capacity is monotone: the backing block is
        only recreated (old one unlinked) when the request outgrows it.
        """
        if self._closed:
            raise ValueError("arena is closed")
        ref_dtype = np.dtype(dtype).str
        need = SharedArrayRef("", ref_dtype, tuple(shape)).nbytes
        shm = self._scratch.get(role)
        if shm is None or shm.size < need:
            if shm is not None:
                _dispose(shm)
            shm = _Block(create=True, size=max(1, need))
            self._scratch[role] = shm
        ref = SharedArrayRef(shm.name, ref_dtype, tuple(int(s) for s in shape))
        return _block_view(shm, ref.dtype, ref.shape), ref

    def close(self) -> None:
        """Unlink every block.  Idempotent; also runs via finalizer."""
        self._closed = True
        # Invoking the finalizer runs _release_blocks exactly once and
        # marks it dead, so GC/exit won't run it again.
        self._finalizer()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Blocks this process has attached, kept mapped for the pool's life.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def _close_attachments() -> None:
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except OSError:
            pass
    _ATTACHED.clear()


atexit.register(_close_attachments)


def _attach_block(name: str) -> shared_memory.SharedMemory:
    # Attaching registers the name with the resource tracker a second
    # time — harmless here, because spawn workers inherit the
    # *coordinator's* tracker process and its registry is a set (the
    # bpo-39959 spurious-unlink hazard only bites unrelated processes
    # with trackers of their own, which this transport never creates).
    shm = _ATTACHED.get(name)
    if shm is None:
        shm = _Block(name=name)
        _ATTACHED[name] = shm
    return shm


def attach_array(ref: SharedArrayRef) -> np.ndarray:
    """Worker-side view of a shared array (attach cached per block)."""
    return _block_view(_attach_block(ref.name), ref.dtype, ref.shape)
