"""LSQR — Paige & Saunders' iterative solver for sparse least squares.

This is the solver behind the paper's title claim.  Each LSQR iteration
touches the data only through one ``A @ v`` and one ``A.T @ u`` product,
so on a sparse matrix with ``s`` non-zeros per row the per-iteration cost
is ``2 m s + 3 m + 5 n`` flam and the total cost for SRDA's ``c-1``
regression problems is linear in both ``m`` and ``n``.  The paper runs a
fixed, small iteration count (15–20) and observes convergence.

The engine is :func:`repro.linalg.block_lsqr.block_lsqr`, which carries
any number of right-hand sides through one Golub–Kahan iteration;
:func:`lsqr` is its one-column case.  A one-column block reaches the
operator as ``matvec``/``rmatvec`` products, so a single solve costs one
of each per iteration.

Works on anything accepted by :func:`repro.linalg.operators.as_operator`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro._typing import FloatArray, MatrixLike

from repro.linalg.block_lsqr import (
    FAILURE_ISTOPS,
    ISTOP_REASONS,
    LSQRResult,
    block_lsqr,
)
from repro.linalg.operators import as_operator
from repro.observability.hooks import IterationHook

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.linalg.sketch import SketchPreconditioner

__all__ = [
    "FAILURE_ISTOPS",
    "ISTOP_REASONS",
    "LSQRResult",
    "lsqr",
    "lsqr_flam_per_iteration",
]


def lsqr(
    A: "MatrixLike",
    b: FloatArray,
    damp: float = 0.0,
    atol: float = 1e-8,
    btol: float = 1e-8,
    conlim: float = 1e8,
    iter_lim: Optional[int] = None,
    x0: Optional[FloatArray] = None,
    record_history: bool = False,
    on_iteration: Optional[IterationHook] = None,
    precondition: Optional["SketchPreconditioner"] = None,
) -> LSQRResult:
    """Solve ``min_x ‖A x - b‖² + damp² ‖x‖²`` by the LSQR iteration.

    Complexity: O(iters·(nnz + m + n)) — the paper's headline: each
    Golub–Kahan step costs one ``matvec`` plus one ``rmatvec``
    (``2·nnz`` flam) and a handful of length-``m``/``n`` vector ops.

    The one-column case of :func:`repro.linalg.block_lsqr.block_lsqr`;
    every parameter means what it means there, with ``b`` of length
    ``m`` and ``x0`` of length ``n``.  ``b`` and ``x0`` are cast to the
    operator's value dtype, and so is the returned ``x``.

    Parameters
    ----------
    A:
        Dense array, sparse matrix, or :class:`LinearOperator` of shape
        ``(m, n)``.
    b:
        Right-hand side of length ``m``.
    damp:
        Tikhonov damping √α; ``damp > 0`` gives exactly the ridge
        solution SRDA needs.
    atol, btol, conlim, iter_lim, record_history, precondition:
        As in :func:`~repro.linalg.block_lsqr.block_lsqr`.
    x0:
        Optional warm start of length ``n``.
    on_iteration:
        Optional observability hook called with one
        :class:`~repro.observability.hooks.IterationEvent`
        (``solver="lsqr"``, no ``active`` list) per counted iteration —
        the firing count always equals the returned ``itn``, including
        on divergence.
    """
    op = as_operator(A)
    m, n = op.shape
    b = np.asarray(b)
    if b.shape != (m,):
        raise ValueError(f"b must have length {m}, got shape {b.shape}")
    if x0 is not None:
        x0 = np.asarray(x0)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have length {n}")
        x0 = x0[:, None]
    return block_lsqr(
        op,
        b[:, None],
        damp=damp,
        atol=atol,
        btol=btol,
        conlim=conlim,
        iter_lim=iter_lim,
        X0=x0,
        record_history=record_history,
        on_iteration=None if on_iteration is None else _relabel(on_iteration),
        precondition=precondition,
    ).column(0)


def _relabel(hook: IterationHook) -> IterationHook:
    """``hook`` fed single-RHS events: ``solver="lsqr"``, no ``active``."""
    return lambda event: hook(
        dataclasses.replace(event, solver="lsqr", active=None)
    )


def lsqr_flam_per_iteration(m: int, n: int, nnz: Optional[int] = None) -> int:
    """Paper's per-iteration cost: ``2·nnz + 3m + 5n`` flam.

    Complexity: O(1) — closed-form arithmetic on three integers.

    With dense data ``nnz = m·n`` this is the ``2mn + 3m + 5n`` of
    Section III-C.2; with sparse data it is ``2ms + 3m + 5n``.
    """
    if nnz is None:
        nnz = m * n
    return 2 * nnz + 3 * m + 5 * n
