"""Block LSQR — the package's one Golub–Kahan least-squares engine.

SRDA's fit cost is ``c-1`` independent damped least-squares solves
against the *same* operator.  This module carries all right-hand sides
through one Golub–Kahan iteration, so each step touches the data
exactly twice (one ``A @ V`` and one ``A.T @ U`` block product) no
matter how many systems ride along.  The scalar QR recurrences are
independent per column, so every column follows Paige & Saunders'
LSQR (*ACM TOMS* 8(1):43–71, 1982) on its own: Golub–Kahan
bidiagonalization started from its right-hand side, Givens QR of the
bidiagonal, built-in Tikhonov damping, the atol/btol/conlim stopping
rules, and this package's istop 8 (non-finite) and 9 (stagnation)
failure codes.  :func:`repro.linalg.lsqr.lsqr` is the one-column case
of :func:`block_lsqr`.

One dtype policy: the right-hand sides and warm starts are cast to the
operator's value dtype, so the ``U``/``V``/``X`` blocks — and every
product the iteration requests — run in the data's precision (float32
data is computed in float32).  The scalar recurrences always run in
float64.

Columns stop independently.  A column whose convergence test fires (or
that hits istop 8/9) is frozen — its solution and diagnostics recorded
at that iteration — and compacted out of the working block, so late
iterations only pay for the columns still running.

:class:`SharedBidiagonalization` exploits the fact that the Golub–Kahan
basis depends only on ``(A, B)`` and never on ``damp``: it records the
basis once (``2·depth + 1`` operator passes over the data) and then
re-solves for any number of damping values with *zero* further operator
products — the engine behind the one-pass alpha sweep.  Recorded and
live bases feed the same QR loop, so a replay is bitwise equal to the
direct solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro._typing import BoolArray, FloatArray, FloatDType, IntArray, MatrixLike

from repro.linalg.operators import (
    IdentityOperator,
    LinearOperator,
    StackedOperator,
    as_operator,
)
from repro.observability.hooks import IterationEvent, IterationHook

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.linalg.sketch import SketchPreconditioner

#: Human-readable meanings of the termination codes.  0–7 follow Paige &
#: Saunders / Algorithm 583; 8 and 9 are this implementation's explicit
#: failure codes — previously those runs silently returned garbage.
ISTOP_REASONS = {
    0: "x = 0 is the exact solution",
    1: "residual small enough (btol test)",
    2: "least-squares optimality reached (atol test)",
    3: "condition estimate exceeded conlim",
    4: "residual as small as machine precision allows",
    5: "optimality as small as machine precision allows",
    6: "condition estimate at machine-precision limit",
    7: "iteration limit reached before convergence tests fired",
    8: "non-finite values encountered (diverged or faulty operator)",
    9: "residual stagnated far from optimality",
}

#: Codes that indicate the run failed to make progress (8 = divergence /
#: NaN contamination, 9 = stagnation).  Code 7 is *not* listed: hitting
#: the iteration cap is normal operation for the paper's fixed 15–20
#: iteration protocol (``tol = 0``); callers decide whether it matters.
FAILURE_ISTOPS = frozenset({8, 9})

#: Consecutive no-progress iterations before stagnation is declared.
_STAGNATION_WINDOW = 5
#: Relative residual decrease below which an iteration counts as stalled.
_STAGNATION_RTOL = 1e-12
#: Optimality levels that must *both* still be poor for a plateau to be
#: stagnation rather than ordinary convergence with tol = 0.
_STAGNATION_FLOOR = 1e-6


@dataclass
class LSQRResult:
    """Outcome of a one-column LSQR run.

    Attributes
    ----------
    x:
        The solution estimate.
    istop:
        Why the iteration stopped: 0 = x=0 is the exact solution,
        1 = residual small (btol test), 2 = least-squares optimality
        (atol test), 3 = condition-number limit, 7 = iteration limit,
        8 = non-finite values (divergence/faulty operator),
        9 = stagnation far from optimality.  See :data:`ISTOP_REASONS`.
    itn:
        Iterations performed.
    r1norm:
        ``‖b - Ax‖`` (undamped residual norm).
    r2norm:
        ``sqrt(‖b - Ax‖² + damp²‖x‖²)`` — the quantity LSQR minimizes.
    anorm, acond:
        Frobenius-norm and condition estimates of the (damped) operator.
    arnorm:
        ``‖Aᵀr‖`` — the least-squares optimality residual.
    xnorm:
        ``‖x‖``.
    residual_history:
        ``r2norm`` after each iteration, when history recording is on.
    """

    x: FloatArray
    istop: int
    itn: int
    r1norm: float
    r2norm: float
    anorm: float
    acond: float
    arnorm: float
    xnorm: float
    residual_history: List[float] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """True when the run diverged (8) or stagnated (9)."""
        return self.istop in FAILURE_ISTOPS

    @property
    def converged(self) -> bool:
        """True when a convergence test fired (not a cap or a failure)."""
        return self.istop in (0, 1, 2, 4, 5)

    @property
    def stop_reason(self) -> str:
        """Human-readable meaning of :attr:`istop`."""
        return ISTOP_REASONS.get(self.istop, f"unknown code {self.istop}")


def _block_event(
    solver: str,
    itn: int,
    state: "_ColumnState",
    istop_iter: IntArray,
    active: IntArray,
) -> IterationEvent:
    """One observability event for a whole block iteration.

    ``r2norm``/``arnorm`` are the maxima over still-finite columns (a
    diverged lane's NaN must not poison the trace); ``istop`` is the
    strongest code any column hit this iteration (0 while all run).
    """
    finite_r2 = state.r2norm[np.isfinite(state.r2norm)]
    finite_ar = state.arnorm[np.isfinite(state.arnorm)]
    return IterationEvent(
        solver=solver,
        itn=itn,
        r2norm=float(finite_r2.max()) if finite_r2.size else 0.0,
        arnorm=float(finite_ar.max()) if finite_ar.size else 0.0,
        istop=int(istop_iter.max()) if istop_iter.size else 0,
        active=[int(col) for col in active],
    )


def _masked_errstate(fn):
    """Silence IEEE warnings from already-poisoned column lanes.

    A column that meets a non-finite quantity is frozen as istop 8 with
    its last finite iterate, but the vectorized updates still run over
    every lane until the end of that iteration (the lane is compacted
    out afterwards) — the resulting ``invalid``/``overflow`` signals
    describe values that never reach the output.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return fn(*args, **kwargs)

    return wrapper


def _column_norms(block: FloatArray) -> FloatArray:
    """Per-column 2-norms of a 2-D block, accumulated in float64."""
    return np.sqrt(np.einsum("ij,ij->j", block, block, dtype=np.float64))


def _as_block(
    array: FloatArray,
    rows: int,
    name: str,
    dtype: FloatDType,
    cols: Optional[int] = None,
) -> FloatArray:
    """``array`` as a ``(rows, k)`` block in the operator's dtype."""
    block = np.asarray(array, dtype=dtype)
    if block.ndim == 1:
        block = block[:, None]
    if (
        block.ndim != 2
        or block.shape[0] != rows
        or (cols is not None and block.shape[1] != cols)
    ):
        expected = "k" if cols is None else cols
        raise ValueError(
            f"{name} must have shape ({rows}, {expected}), "
            f"got {np.shape(array)}"
        )
    return block


@dataclass
class BlockLSQRResult:
    """Outcome of a blocked LSQR run: per-column arrays of diagnostics.

    Attributes mirror :class:`LSQRResult`, vectorized over the ``k``
    right-hand sides: ``X`` is ``(n, k)`` and every diagnostic is a
    length-``k`` array whose entry ``j`` is what a one-column solve of
    column ``j`` reports.
    """

    X: FloatArray
    istop: IntArray
    itn: IntArray
    r1norm: FloatArray
    r2norm: FloatArray
    anorm: FloatArray
    acond: FloatArray
    arnorm: FloatArray
    xnorm: FloatArray
    residual_history: List[List[float]] = field(default_factory=list)

    @property
    def n_columns(self) -> int:
        return int(self.istop.size)

    @property
    def failed(self) -> BoolArray:
        """Boolean mask of columns that diverged (8) or stagnated (9)."""
        return np.isin(self.istop, tuple(FAILURE_ISTOPS))

    @property
    def any_failed(self) -> bool:
        return bool(self.failed.any())

    def column(self, j: int) -> LSQRResult:
        """Column ``j`` repackaged as a one-column :class:`LSQRResult`."""
        return LSQRResult(
            x=np.array(self.X[:, j]),
            istop=int(self.istop[j]),
            itn=int(self.itn[j]),
            r1norm=float(self.r1norm[j]),
            r2norm=float(self.r2norm[j]),
            anorm=float(self.anorm[j]),
            acond=float(self.acond[j]),
            arnorm=float(self.arnorm[j]),
            xnorm=float(self.xnorm[j]),
            residual_history=list(self.residual_history[j]),
        )


class _ColumnState:
    """Per-column scalar recurrences of the damped LSQR QR step.

    Every field is a length-``k_active`` float64 array; :meth:`take`
    compacts all of them together when columns freeze.  The update
    methods are Paige & Saunders' scalar arithmetic, vectorized across
    columns.
    """

    _FIELDS = (
        "rhobar",
        "phibar",
        "bnorm",
        "rnorm",
        "r1norm",
        "r2norm",
        "arnorm",
        "anorm",
        "acond",
        "ddnorm",
        "res2",
        "xnorm",
        "xxnorm",
        "z",
        "cs2",
        "sn2",
        "prev_r2norm",
        "stalled",
        "rho",
        "phi",
        "theta",
        "psi",
        "tau",
    )

    def __init__(self, alfa: FloatArray, beta: FloatArray, dampsq: float):
        k = beta.size
        self.dampsq = float(dampsq)
        self.rhobar = alfa.astype(np.float64, copy=True)
        self.phibar = beta.astype(np.float64, copy=True)
        self.bnorm = self.phibar.copy()
        self.rnorm = self.phibar.copy()
        self.r1norm = self.phibar.copy()
        self.r2norm = self.phibar.copy()
        self.arnorm = self.rhobar * self.phibar
        self.anorm = np.zeros(k)
        self.acond = np.zeros(k)
        self.ddnorm = np.zeros(k)
        self.res2 = np.zeros(k)
        self.xnorm = np.zeros(k)
        self.xxnorm = np.zeros(k)
        self.z = np.zeros(k)
        self.cs2 = np.full(k, -1.0)
        self.sn2 = np.zeros(k)
        self.prev_r2norm = self.r2norm.copy()
        self.stalled = np.zeros(k, dtype=np.int64)
        self.rho = np.zeros(k)
        self.phi = np.zeros(k)
        self.theta = np.zeros(k)
        self.psi = np.zeros(k)
        self.tau = np.zeros(k)

    def take(self, idx: IntArray) -> None:
        """Keep only the columns at ``idx`` (local indices)."""
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name)[idx])

    def rotation(self, alfa: FloatArray, beta: FloatArray, damp: float):
        """Damping + Givens rotations; returns the (t1, t2) step sizes."""
        if damp > 0:
            rhobar1 = np.sqrt(self.rhobar**2 + self.dampsq)
            cs1 = self.rhobar / rhobar1
            sn1 = damp / rhobar1
            psi = sn1 * self.phibar
            self.phibar = cs1 * self.phibar
        else:
            rhobar1 = self.rhobar
            psi = np.zeros_like(rhobar1)
        rho = np.sqrt(rhobar1**2 + beta**2)
        cs = rhobar1 / rho
        sn = beta / rho
        theta = sn * alfa
        self.rhobar = -cs * alfa
        phi = cs * self.phibar
        self.phibar = sn * self.phibar
        self.rho = rho
        self.phi = phi
        self.theta = theta
        self.psi = psi
        self.tau = sn * phi
        return phi / rho, -theta / rho

    def diagnostics(self, alfa: FloatArray, wnorm_sq: FloatArray) -> None:
        """Norm estimates after the rotation (``‖x‖``, residuals, cond)."""
        rho, phi, theta = self.rho, self.phi, self.theta
        self.ddnorm = self.ddnorm + wnorm_sq / rho**2
        delta = self.sn2 * rho
        gambar = -self.cs2 * rho
        rhs = phi - delta * self.z
        zbar = rhs / gambar
        self.xnorm = np.sqrt(self.xxnorm + zbar**2)
        gamma = np.sqrt(gambar**2 + theta**2)
        self.cs2 = gambar / gamma
        self.sn2 = theta / gamma
        self.z = rhs / gamma
        self.xxnorm = self.xxnorm + self.z**2
        self.acond = self.anorm * np.sqrt(self.ddnorm)
        self.res2 = self.res2 + self.psi**2
        self.rnorm = np.sqrt(self.phibar**2 + self.res2)
        self.arnorm = alfa * np.abs(self.tau)
        r1sq = self.rnorm**2 - self.dampsq * self.xxnorm
        r1 = np.sqrt(np.abs(r1sq))
        self.r1norm = np.where(r1sq < 0, -r1, r1)
        self.r2norm = self.rnorm.copy()


def _post_step_istop(
    state: _ColumnState,
    itn: int,
    iter_lim: int,
    atol: float,
    btol: float,
    ctol: float,
) -> FloatArray:
    """Per-column istop after one iteration (0 where nothing fired).

    Check order: non-finite → 8 wins, stagnation → 9 next, then the
    convergence cascade 7…1 where later (stronger) assignments override
    earlier ones, so istop records the strongest condition that fired.
    Stagnation needs several no-progress iterations while *both* the
    residual and optimality tests are still far from firing: a plateau
    at the least-squares optimum (``arnorm → 0``) is not flagged.
    """
    k = state.rnorm.size
    nonfinite = ~np.isfinite(state.r2norm) | ~np.isfinite(state.xnorm)

    stalled_now = (state.prev_r2norm - state.r2norm) <= _STAGNATION_RTOL * (
        np.maximum(state.prev_r2norm, 1.0)
    )
    state.stalled = np.where(stalled_now, state.stalled + 1, 0)
    state.prev_r2norm = state.r2norm.copy()

    bpos = state.bnorm > 0
    test1 = np.divide(state.rnorm, state.bnorm, out=np.zeros(k), where=bpos)
    anr = state.anorm * state.rnorm
    test2 = np.divide(state.arnorm, anr, out=np.zeros(k), where=anr > 0)
    test3 = np.divide(
        1.0, state.acond, out=np.zeros(k), where=state.acond > 0
    )
    stagnated = (
        (state.stalled >= _STAGNATION_WINDOW)
        & (test1 > _STAGNATION_FLOOR)
        & (test2 > _STAGNATION_FLOOR)
    )
    ratio = np.divide(
        state.anorm * state.xnorm, state.bnorm, out=np.zeros(k), where=bpos
    )
    t1_stop = np.where(bpos, test1 / (1.0 + ratio), 0.0)
    rtol = np.where(bpos, btol + atol * ratio, 0.0)

    istop = np.zeros(k, dtype=np.int64)
    if itn >= iter_lim:
        istop[:] = 7
    istop[1.0 + test3 <= 1.0] = 6
    istop[1.0 + test2 <= 1.0] = 5
    istop[1.0 + t1_stop <= 1.0] = 4
    istop[test3 <= ctol] = 3
    istop[test2 <= atol] = 2
    istop[test1 <= rtol] = 1
    istop[stagnated] = 9
    istop[nonfinite] = 8
    return istop


class _Outputs:
    """Full-width result arrays that frozen columns are written into."""

    def __init__(self, n: int, k: int, block_dtype) -> None:
        self.X = np.zeros((n, k), dtype=block_dtype, order="F")
        self.istop = np.zeros(k, dtype=np.int64)
        self.itn = np.zeros(k, dtype=np.int64)
        self.r1norm = np.zeros(k)
        self.r2norm = np.zeros(k)
        self.anorm = np.zeros(k)
        self.acond = np.zeros(k)
        self.arnorm = np.zeros(k)
        self.xnorm = np.zeros(k)
        self.histories: List[List[float]] = [[] for _ in range(k)]

    def freeze(
        self,
        active: FloatArray,
        local_idx: FloatArray,
        state: _ColumnState,
        Xa: Optional[FloatArray],
        istop,
        itn: int,
    ) -> None:
        """Record final state for the active columns at ``local_idx``."""
        if local_idx.size == 0:
            return
        cols = active[local_idx]
        if Xa is not None:
            self.X[:, cols] = Xa[:, local_idx]
        self.istop[cols] = istop
        self.itn[cols] = itn
        self.r1norm[cols] = state.r1norm[local_idx]
        self.r2norm[cols] = state.r2norm[local_idx]
        self.anorm[cols] = state.anorm[local_idx]
        self.acond[cols] = state.acond[local_idx]
        self.arnorm[cols] = state.arnorm[local_idx]
        self.xnorm[cols] = state.xnorm[local_idx]

    def result(self) -> BlockLSQRResult:
        return BlockLSQRResult(
            X=self.X,
            istop=self.istop,
            itn=self.itn,
            r1norm=self.r1norm,
            r2norm=self.r2norm,
            anorm=self.anorm,
            acond=self.acond,
            arnorm=self.arnorm,
            xnorm=self.xnorm,
            residual_history=self.histories,
        )


class _LiveBasis:
    """Golub–Kahan bidiagonalization of ``(op, B)``, advanced on demand.

    :meth:`step` runs one iteration's two block products for the
    columns still active — ``beta·u = A v − alfa·u`` then
    ``alfa·v = Aᵀ u − beta·v`` — compacting the working blocks first
    when columns have frozen since the last step.  A column with
    ``beta == 0`` keeps its previous ``v`` and ``alfa``.
    """

    @_masked_errstate
    def __init__(self, op: LinearOperator, B: FloatArray) -> None:
        n = op.shape[1]
        k = B.shape[1]
        self.op = op
        U = np.array(B, dtype=op.dtype, order="F", copy=True)
        beta0 = _column_norms(U)
        pos0 = beta0 > 0
        np.divide(U, beta0[None, :], out=U, where=pos0[None, :])
        V = (
            np.asfortranarray(op.rmatmat(U))
            if k
            else np.zeros((n, 0), dtype=op.dtype, order="F")
        )
        if not pos0.all():
            # beta == 0 skips the first adjoint product: v = 0, alfa = 0.
            V[:, ~pos0] = 0.0
        alfa0 = _column_norms(V)
        alfa0[~pos0] = 0.0
        apos = alfa0 > 0
        np.divide(V, alfa0[None, :], out=V, where=apos[None, :])
        self.beta0 = beta0
        self.alfa0 = alfa0
        self.columns = np.arange(k)
        self.U = U
        self.V = V
        self.alfa = alfa0.copy()

    def start(self, active: IntArray) -> FloatArray:
        """The first ``v`` block of the ``active`` columns."""
        self._compact(active)
        return self.V

    def _compact(self, active: IntArray) -> None:
        if active.size == self.columns.size:
            return
        keep = np.searchsorted(self.columns, active)
        self.U = np.asfortranarray(self.U[:, keep])
        self.V = np.asfortranarray(self.V[:, keep])
        self.alfa = self.alfa[keep]
        self.columns = active

    def step(
        self, step: int, active: IntArray
    ) -> Tuple[FloatArray, FloatArray, FloatArray]:
        """``(beta, alfa, V)`` of the next step for the ``active`` columns."""
        self._compact(active)
        U, V = self.U, self.V
        AV = self.op.matmat(V)
        U *= -self.alfa[None, :]
        U += AV
        beta = _column_norms(U)
        bpos = beta > 0
        np.divide(U, beta[None, :], out=U, where=bpos[None, :])
        AtU = np.asfortranarray(self.op.rmatmat(U))
        AtU -= beta[None, :] * V
        alfa_new = _column_norms(AtU)
        norm_mask = bpos & (alfa_new > 0)
        np.divide(AtU, alfa_new[None, :], out=AtU, where=norm_mask[None, :])
        if bpos.all():
            V = AtU
            alfa = alfa_new
        else:
            # Copy before the partial update: a recorded step's block
            # must never be mutated in place.
            V = V.copy(order="F")
            cols = np.flatnonzero(bpos)
            V[:, cols] = AtU[:, cols]
            alfa = np.where(bpos, alfa_new, self.alfa)
        self.V = V
        self.alfa = alfa
        return beta, alfa, V


class _RecordedBasis:
    """A bidiagonalization stored by :class:`SharedBidiagonalization`."""

    def __init__(self, shared: "SharedBidiagonalization") -> None:
        self.shared = shared
        self.beta0 = shared.beta0
        self.alfa0 = shared.alfa0

    def start(self, active: IntArray) -> FloatArray:
        return np.asfortranarray(self.shared._V0[:, active])

    def step(
        self, step: int, active: IntArray
    ) -> Tuple[FloatArray, FloatArray, FloatArray]:
        V = self.shared._Vs[step]
        if active.size != V.shape[1]:
            V = V[:, active]
        return (
            self.shared._betas[step][active],
            self.shared._alfas[step][active],
            V,
        )


@_masked_errstate
def _iterate(
    out: _Outputs,
    basis: Union["_LiveBasis", "_RecordedBasis"],
    damp: float,
    atol: float,
    btol: float,
    conlim: float,
    iter_lim: int,
    record_history: bool,
    on_iteration: Optional[IterationHook],
    solver: str,
) -> BlockLSQRResult:
    """The LSQR QR loop over a live or recorded bidiagonalization.

    Per iteration: take the next ``(beta, alfa, V)`` from ``basis``,
    rotate, update ``X`` and the search directions ``W``, and freeze the
    columns whose stopping rule fired into ``out``.  A column whose
    ``beta`` or ``alfa`` turns non-finite is frozen as istop 8 before
    its state absorbs the bad value, so it keeps its last finite
    iterate.
    """
    n, k = out.X.shape
    block_dtype = out.X.dtype

    dampsq = damp * damp
    ctol = 1.0 / conlim if conlim > 0 else 0.0

    state = _ColumnState(basis.alfa0, basis.beta0, dampsq)
    active = np.arange(k)
    # b in the null space of Aᵀ (or b == 0): x = 0 is already optimal.
    frozen0 = (basis.alfa0 * basis.beta0) == 0.0
    if frozen0.any():
        out.freeze(active, np.flatnonzero(frozen0), state, None, 0, 0)
        keep = np.flatnonzero(~frozen0)
        active = active[keep]
        state.take(keep)

    W = np.array(basis.start(active), order="F", copy=True)
    Xa = np.zeros((n, active.size), dtype=block_dtype, order="F")
    alfa_prev = basis.alfa0[active].copy()

    itn = 0
    while active.size and itn < iter_lim:
        beta, alfa, V = basis.step(itn, active)
        itn += 1

        bad_beta = ~np.isfinite(beta)
        if bad_beta.any():
            out.freeze(active, np.flatnonzero(bad_beta), state, Xa, 8, itn)
        bpos = beta > 0
        state.anorm = np.sqrt(
            state.anorm**2
            + alfa_prev**2
            + np.where(bpos, beta, 0.0) ** 2
            + dampsq
        )
        # A bad alfa is frozen after the anorm update, before rotation.
        bad_alfa = bpos & ~np.isfinite(alfa)
        if bad_alfa.any():
            out.freeze(active, np.flatnonzero(bad_alfa), state, Xa, 8, itn)
        pre_frozen = bad_beta | bad_alfa

        t1, t2 = state.rotation(alfa, beta, damp)
        wnorm_sq = np.einsum("ij,ij->j", W, W, dtype=np.float64)
        t1c = t1.astype(block_dtype, copy=False)
        t2c = t2.astype(block_dtype, copy=False)
        Xa += t1c[None, :] * W
        np.multiply(W, t2c[None, :], out=W)
        W += V
        state.diagnostics(alfa, wnorm_sq)

        if record_history:
            for local_j in np.flatnonzero(~pre_frozen):
                out.histories[active[local_j]].append(
                    float(state.r2norm[local_j])
                )

        istop_iter = _post_step_istop(state, itn, iter_lim, atol, btol, ctol)
        istop_iter[pre_frozen] = 8
        if on_iteration is not None:
            # One event per block iteration, before compaction, so the
            # firing count equals the max per-column itn and `active`
            # names the original columns that iterated this step.
            on_iteration(_block_event(solver, itn, state, istop_iter, active))
        newly = (istop_iter != 0) & ~pre_frozen
        if newly.any():
            idx = np.flatnonzero(newly)
            out.freeze(active, idx, state, Xa, istop_iter[idx], itn)

        alfa_prev = alfa
        stopped = istop_iter != 0
        if stopped.any():
            keep = np.flatnonzero(~stopped)
            active = active[keep]
            W = np.asfortranarray(W[:, keep])
            Xa = np.asfortranarray(Xa[:, keep])
            alfa_prev = alfa_prev[keep]
            state.take(keep)

    if active.size:
        # Only reachable with iter_lim == 0: report the initial state.
        out.freeze(active, np.arange(active.size), state, Xa, 0, itn)

    return out.result()


def block_lsqr(
    A: "MatrixLike",
    B: FloatArray,
    damp: float = 0.0,
    atol: float = 1e-8,
    btol: float = 1e-8,
    conlim: float = 1e8,
    iter_lim: Optional[int] = None,
    X0: Optional[FloatArray] = None,
    record_history: bool = False,
    on_iteration: Optional[IterationHook] = None,
    precondition: Optional["SketchPreconditioner"] = None,
) -> BlockLSQRResult:
    """Solve ``min_X ‖A X - B‖² + damp²‖X‖²`` for all columns at once.

    Complexity: O(iters·c·(nnz + m + n)) for ``c`` right-hand-side
    columns — per column, the paper's ``2·nnz + 3m + 5n`` flam per
    iteration, with the operator products amortized across the block
    via ``matmat``.

    Parameters
    ----------
    A:
        Dense array, sparse matrix, or :class:`LinearOperator` of shape
        ``(m, n)``.
    B:
        Right-hand sides ``(m, k)``; a 1-D ``b`` is one column.  Cast to
        the operator's value dtype.
    damp:
        Tikhonov damping √α; ``damp > 0`` gives exactly the ridge
        solutions SRDA needs.
    atol, btol:
        Relative stopping tolerances (see Paige & Saunders §6).
    conlim:
        Stop a column when its condition estimate exceeds this.
    iter_lim:
        Hard iteration cap; defaults to ``2 n``.  SRDA uses small fixed
        values (15–20) per the paper.
    X0:
        Optional warm start ``(n, k)``, cast like ``B``.  The iteration
        solves for the correction ``X - X0`` against the shifted
        residual; with ``damp > 0`` it solves the explicit augmented
        system ``[A; damp·I] D ≈ [B − A·X0; −damp·X0]`` so the penalty
        stays on ``‖X0 + D‖``.
    record_history:
        Keep ``r2norm`` per iteration and column.
    on_iteration:
        Observability hook, fired once per *block* iteration (not per
        column) with the still-active column indices; the firing count
        equals ``int(result.itn.max())``, including on divergence.
    precondition:
        Optional right preconditioner from
        :func:`repro.linalg.sketch.build_preconditioner`.  The iteration
        then runs on ``A R⁻¹`` — damping and warm starts folded into an
        explicit augmented system, since the internal damp would
        penalize ``‖R X‖``, not ``‖X‖`` — and the solutions are mapped
        back through ``R⁻¹``.  ``r1norm``/``r2norm``/``xnorm`` are
        recomputed against the original system; ``anorm``/``acond``/
        ``arnorm`` and the histories describe the preconditioned system.
        For the exact ridge problem build it with ``alpha = damp²``.

    Returns a :class:`BlockLSQRResult`; ``result.column(j)`` recovers a
    one-column :class:`LSQRResult`.  Each column's istop codes, damping,
    warm start and istop-8/9 failure semantics are independent of the
    other columns in the block.
    """
    op = as_operator(A)
    m, n = op.shape
    B = _as_block(B, m, "B", op.dtype)
    k = B.shape[1]
    if X0 is not None:
        X0 = _as_block(X0, n, "X0", op.dtype, k)
    if damp < 0:
        raise ValueError("damp must be non-negative")
    if iter_lim is None:
        iter_lim = 2 * n
    if iter_lim < 0:
        raise ValueError("iter_lim must be non-negative")
    if precondition is not None and precondition.n != n:
        raise ValueError(
            f"preconditioner dimension {precondition.n} does not "
            f"match operator column count {n}"
        )

    def solve(
        system: LinearOperator, rhs: FloatArray, inner_damp: float
    ) -> BlockLSQRResult:
        # The outputs are allocated before the basis blocks: in that
        # order the text benchmark's peak RSS is steady (626 MB over
        # three runs, against 625-671 MB over six the other way round).
        out = _Outputs(n, k, op.dtype)
        return _iterate(
            out,
            _LiveBasis(system, rhs),
            inner_damp,
            atol,
            btol,
            conlim,
            iter_lim,
            record_history,
            on_iteration,
            "block_lsqr",
        )

    rhs = B if X0 is None else B - op.matmat(X0)
    if precondition is None and (X0 is None or damp == 0):
        result = solve(op, rhs, damp)
        if X0 is not None:
            result.X += X0
            result.xnorm = _column_norms(result.X)
        return result

    # Fold damping (and any warm start) into an explicit augmented
    # system solved with damp = 0; one stacked operator serves every
    # column because damp is shared.
    system: LinearOperator = op
    if damp > 0:
        system = StackedOperator(
            op, IdentityOperator(n, scale=damp, dtype=op.dtype)
        )
        rhs = np.concatenate(
            [rhs, np.zeros((n, k), dtype=B.dtype) if X0 is None else -damp * X0],
            axis=0,
        )
    if precondition is not None:
        system = precondition.wrap(system)
    inner = solve(system, rhs, 0.0)
    X = inner.X
    if precondition is not None:
        X = np.asarray(precondition.apply(X)).astype(X.dtype, copy=False)
    if X0 is not None:
        X = X + X0
    residual = B - op.matmat(X)
    r1norm = _column_norms(residual)
    xnorm = _column_norms(X)
    return BlockLSQRResult(
        X=X,
        istop=inner.istop,
        itn=inner.itn,
        r1norm=r1norm,
        r2norm=np.sqrt(r1norm**2 + (damp * xnorm) ** 2),
        anorm=inner.anorm,
        acond=inner.acond,
        arnorm=inner.arnorm,
        xnorm=xnorm,
        residual_history=inner.residual_history,
    )


class SharedBidiagonalization:
    """Golub–Kahan basis of ``(A, B)``, recorded once, re-solved per damp.

    The bidiagonalization ``A V_i = U_{i+1} B_i`` started from ``B``
    does not involve the damping parameter — LSQR folds ``damp`` into
    the scalar QR rotations only.  Recording the basis therefore costs
    one pass of ``2·iter_lim + 1`` block products, after which
    :meth:`solve` produces the full per-column result for *any* alpha
    with zero additional operator work: exactly what a grid sweep needs.

    Memory: ``depth`` stored ``(n, k)`` blocks.  For SRDA's ``k = c-1``
    and the paper's 15–20 iteration protocol this is a few dozen dense
    vectors per class — far cheaper than re-running the solver per
    alpha.

    Parameters
    ----------
    A:
        Dense array, :class:`~repro.linalg.sparse.CSRMatrix`, or
        :class:`~repro.linalg.operators.LinearOperator`.
    B:
        Right-hand-side block ``(m, k)`` (1-D accepted as one column),
        cast to the operator's value dtype.
    iter_lim:
        Bidiagonalization depth to record; :meth:`solve` can stop any
        column earlier but never iterate past this.
    """

    @_masked_errstate
    def __init__(
        self, A: MatrixLike, B: FloatArray, iter_lim: int
    ) -> None:
        op = as_operator(A)
        m, n = op.shape
        B = _as_block(B, m, "B", op.dtype)
        if iter_lim < 0:
            raise ValueError("iter_lim must be non-negative")
        self.operator = op
        self.shape = (m, n)

        basis = _LiveBasis(op, B)
        self.beta0 = basis.beta0
        self.alfa0 = basis.alfa0
        self._V0 = basis.V.copy(order="F")
        self._betas: List[FloatArray] = []
        self._alfas: List[FloatArray] = []
        self._Vs: List[FloatArray] = []
        for step in range(iter_lim):
            beta, alfa, V = basis.step(step, basis.columns)
            self._betas.append(beta)
            self._alfas.append(alfa)
            self._Vs.append(V)
            if not np.any(np.isfinite(beta)):
                # Every column has diverged; deeper recording is waste.
                break

    @property
    def n_columns(self) -> int:
        return int(self.beta0.size)

    @property
    def depth(self) -> int:
        """Recorded bidiagonalization steps (max replay iterations)."""
        return len(self._betas)

    def solve(
        self,
        damp: float = 0.0,
        atol: float = 1e-8,
        btol: float = 1e-8,
        conlim: float = 1e8,
        iter_lim: Optional[int] = None,
        record_history: bool = False,
        on_iteration: Optional[IterationHook] = None,
    ) -> BlockLSQRResult:
        """Replay the recorded basis under a damping value.

        Produces the same result as ``block_lsqr(A, B, damp=damp,
        iter_lim=depth)`` — per-column istop codes, stagnation checks
        and all — without touching the operator.  Cost per call is
        ``O(depth · n · k)`` axpy work.
        """
        if damp < 0:
            raise ValueError("damp must be non-negative")
        eff_lim = self.depth if iter_lim is None else iter_lim
        if eff_lim < 0:
            raise ValueError("iter_lim must be non-negative")
        if eff_lim > self.depth:
            raise ValueError(
                f"iter_lim {eff_lim} exceeds recorded depth {self.depth}"
            )
        return _iterate(
            _Outputs(self.shape[1], self.n_columns, self._V0.dtype),
            _RecordedBasis(self),
            damp,
            atol,
            btol,
            conlim,
            eff_lim,
            record_history,
            on_iteration,
            "shared_bidiagonalization",
        )
