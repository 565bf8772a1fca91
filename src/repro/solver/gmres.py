"""Restarted GMRES with right preconditioning.

Own implementation (Saad-Schultz with modified Gram-Schmidt Arnoldi and
Givens rotations) so the Schur solve does not depend on scipy's solver
behaviour and iteration counts are fully deterministic and inspectable —
the paper reports #iterations per configuration (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils import check_finite

__all__ = ["GMRESResult", "gmres", "BlockGMRESResult", "gmres_block"]

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass
class GMRESResult:
    """Solution plus convergence history.

    ``stagnated`` is set on non-convergence when the final restart
    cycle reduced the residual by less than 10% — the signal the
    recovery ladder uses to refresh the preconditioner rather than
    simply run more iterations.

    ``drift_checks``/``drift_detected`` are the ABFT audit: at every
    restart boundary the true residual ``||b - A x||`` is recomputed
    anyway, so we compare it against the recursive Givens estimate for
    free. A large gap means the Krylov state no longer describes the
    iterate — the signature of silent data corruption (or severe loss
    of orthogonality), and the solver-level recovery ladder treats it
    as suspected SDC.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list[float] = field(default_factory=list)
    stagnated: bool = False
    drift_checks: int = 0
    drift_detected: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def gmres(matvec: Operator, b: np.ndarray, *,
          preconditioner: Optional[Operator] = None,
          x0: Optional[np.ndarray] = None,
          tol: float = 1e-10,
          restart: int = 50,
          maxiter: int = 500,
          tracer: Tracer = NULL_TRACER) -> GMRESResult:
    """Solve ``A x = b`` given ``matvec(v) = A v``.

    Right preconditioning: iterates on ``A M^{-1} u = b`` with
    ``x = M^{-1} u``, so the printed residuals are true residuals of the
    original system. Convergence: ``||b - A x|| <= tol * ||b||``.

    ``tracer`` records one ``gmres`` span with a ``gmres_iterations``
    counter (and ``gmres_converged`` 0/1).

    Rejects ``b``/``x0`` containing NaN/Inf (a NaN norm silently passes
    every convergence test); ``b = 0`` returns ``x = 0``, converged.
    """
    check_finite(np.asarray(b, dtype=np.float64), "b")
    if x0 is not None:
        check_finite(np.asarray(x0, dtype=np.float64), "x0")
    with tracer.span("gmres", restart=restart):
        res = _gmres(matvec, b, preconditioner=preconditioner, x0=x0,
                     tol=tol, restart=restart, maxiter=maxiter)
        tracer.count("gmres_iterations", res.iterations)
        tracer.count("gmres_converged", int(res.converged))
        tracer.count("gmres_drift_checks", res.drift_checks)
        tracer.count("gmres_drift_detected", int(res.drift_detected))
    return res


def _gmres(matvec: Operator, b: np.ndarray, *,
           preconditioner: Optional[Operator] = None,
           x0: Optional[np.ndarray] = None,
           tol: float = 1e-10,
           restart: int = 50,
           maxiter: int = 500) -> GMRESResult:
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    if restart <= 0 or maxiter <= 0:
        raise ValueError("restart and maxiter must be positive")
    M = preconditioner if preconditioner is not None else (lambda v: v)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return GMRESResult(x=np.zeros(n), converged=True, iterations=0,
                           residual_norms=[0.0])
    history: list[float] = []
    total_iters = 0
    last_cycle_reduction = 1.0
    drift_checks = 0
    drift_detected = False

    while total_iters < maxiter:
        r = b - matvec(x)
        beta = np.linalg.norm(r)
        history.append(float(beta))
        if beta <= tol * bnorm:
            return GMRESResult(x=x, converged=True, iterations=total_iters,
                               residual_norms=history,
                               drift_checks=drift_checks,
                               drift_detected=drift_detected)
        m = min(restart, maxiter - total_iters)
        V = np.zeros((n, m + 1))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[:, 0] = r / beta
        g[0] = beta
        j_done = 0
        breakdown = False
        for j in range(m):
            # copy: a matvec/preconditioner may return its input array,
            # and the MGS loop below mutates w in place
            z = np.asarray(M(V[:, j]), dtype=np.float64)
            w = np.array(matvec(z), dtype=np.float64, copy=True)
            # modified Gram-Schmidt
            for i in range(j + 1):
                H[i, j] = V[:, i] @ w
                w -= H[i, j] * V[:, i]
            H[j + 1, j] = np.linalg.norm(w)
            if H[j + 1, j] > 1e-300:
                V[:, j + 1] = w / H[j + 1, j]
            else:
                # Arnoldi breakdown: the Krylov space is invariant
                # (happy breakdown) or the operator annihilated the new
                # direction; there is no vector to continue with, so
                # solve the small system as it stands and leave the
                # cycle
                breakdown = True
            # apply existing Givens rotations to the new column
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            # new rotation to annihilate H[j+1, j]
            denom = np.hypot(H[j, j], H[j + 1, j])
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total_iters += 1
            if breakdown:
                if denom > 0.0:
                    j_done = j + 1
                    history.append(float(abs(g[j + 1])))
                # denom == 0: the new column is identically null — keep
                # j_done at j so the small system stays nonsingular
                break
            j_done = j + 1
            history.append(float(abs(g[j + 1])))
            if abs(g[j + 1]) <= tol * bnorm:
                break
        # solve the small triangular system and update x
        if j_done > 0:
            y = np.linalg.solve(np.triu(H[:j_done, :j_done]), g[:j_done])
            x = x + M(V[:, :j_done] @ y)
        r = b - matvec(x)
        rnorm = float(np.linalg.norm(r))
        # ABFT drift audit: the recursive estimate |g[j_done]| claims
        # what the residual should be; the freshly recomputed rnorm is
        # what it actually is. A two-orders-of-magnitude gap cannot come
        # from rounding in a sane cycle.
        estimate = float(abs(g[j_done])) if j_done > 0 else float(beta)
        drift_checks += 1
        if rnorm > 100.0 * max(estimate, tol * bnorm):
            drift_detected = True
        if rnorm <= tol * bnorm:
            return GMRESResult(x=x, converged=True, iterations=total_iters,
                               residual_norms=history + [rnorm],
                               drift_checks=drift_checks,
                               drift_detected=drift_detected)
        if breakdown and rnorm >= beta * (1.0 - 1e-12):
            # breakdown without progress: the residual lies in a
            # direction the operator cannot reach, so restarting from
            # the same r would break down identically forever
            return GMRESResult(x=x, converged=False, iterations=total_iters,
                               residual_norms=history + [rnorm],
                               stagnated=True,
                               drift_checks=drift_checks,
                               drift_detected=drift_detected)
        last_cycle_reduction = rnorm / beta if beta > 0 else 1.0
    return GMRESResult(x=x, converged=False, iterations=total_iters,
                       residual_norms=history,
                       stagnated=bool(last_cycle_reduction > 0.9),
                       drift_checks=drift_checks,
                       drift_detected=drift_detected)


@dataclass
class BlockGMRESResult:
    """Per-column convergence state of one block solve.

    ``iterations`` counts *block* iterations — each advances every
    column by one Krylov direction at the cost of one block matvec.
    ``residual_norms`` are the final true residuals ``||b_j - A x_j||``
    per column.
    """

    x: np.ndarray
    converged: np.ndarray
    iterations: int
    residual_norms: np.ndarray
    stagnated: bool = False

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())


def gmres_block(matvec: Operator, B: np.ndarray, *,
                preconditioner: Optional[Operator] = None,
                X0: Optional[np.ndarray] = None,
                tol: float = 1e-10,
                restart: int = 50,
                maxiter: int = 500,
                tracer: Tracer = NULL_TRACER) -> BlockGMRESResult:
    """Restarted block GMRES on ``A X = B`` for an ``(n, p)`` block.

    ``matvec`` and ``preconditioner`` must accept ``(n, p)`` blocks
    (columnwise application). Right preconditioning, block Arnoldi with
    block modified Gram-Schmidt and thin-QR normalization, and a
    least-squares solve of the banded block Hessenberg per cycle.
    Convergence is per column against ``tol * ||b_j||``, verified with
    true residuals at every restart boundary; columns the block space
    cannot close are reported unconverged for the caller's per-column
    fallback ladder.
    """
    B = np.asarray(B, dtype=np.float64)
    check_finite(B, "B")
    if X0 is not None:
        check_finite(np.asarray(X0, dtype=np.float64), "X0")
    with tracer.span("gmres_block", restart=restart, nrhs=B.shape[1]):
        res = _gmres_block(matvec, B, preconditioner=preconditioner,
                           X0=X0, tol=tol, restart=restart,
                           maxiter=maxiter)
        tracer.count("gmres_block_iterations", res.iterations)
        tracer.count("gmres_block_converged_cols",
                     int(res.converged.sum()))
    return res


def _gmres_block(matvec: Operator, B: np.ndarray, *,
                 preconditioner: Optional[Operator] = None,
                 X0: Optional[np.ndarray] = None,
                 tol: float = 1e-10,
                 restart: int = 50,
                 maxiter: int = 500) -> BlockGMRESResult:
    n, p = B.shape
    if restart <= 0 or maxiter <= 0:
        raise ValueError("restart and maxiter must be positive")
    M = preconditioner if preconditioner is not None else (lambda v: v)
    X = np.zeros((n, p)) if X0 is None \
        else np.asarray(X0, dtype=np.float64).copy()
    bnorms = np.linalg.norm(B, axis=0)
    targets = tol * bnorms
    if p == 0 or not bnorms.any():
        return BlockGMRESResult(x=np.zeros((n, p)),
                                converged=np.ones(p, dtype=bool),
                                iterations=0,
                                residual_norms=np.zeros(p))
    total_iters = 0
    last_cycle_reduction = 1.0
    rnorms = np.full(p, np.inf)
    converged = np.zeros(p, dtype=bool)
    while total_iters < maxiter:
        R = B - matvec(X)
        rnorms = np.linalg.norm(R, axis=0)
        converged = rnorms <= targets
        if converged.all():
            return BlockGMRESResult(x=X, converged=converged,
                                    iterations=total_iters,
                                    residual_norms=rnorms)
        m = min(restart, maxiter - total_iters)
        V = np.zeros((n, (m + 1) * p))
        Hbar = np.zeros(((m + 1) * p, m * p))
        G = np.zeros(((m + 1) * p, p))
        Q0, S = np.linalg.qr(R)
        V[:, :p] = Q0
        G[:p] = S
        j_done = 0
        breakdown = False
        for j in range(m):
            Z = np.asarray(M(V[:, j * p:(j + 1) * p]), dtype=np.float64)
            W = np.array(matvec(Z), dtype=np.float64, copy=True)
            for i in range(j + 1):
                Vi = V[:, i * p:(i + 1) * p]
                Hij = Vi.T @ W
                Hbar[i * p:(i + 1) * p, j * p:(j + 1) * p] = Hij
                W = W - Vi @ Hij
            Qj, Rj = np.linalg.qr(W)
            Hbar[(j + 1) * p:(j + 2) * p, j * p:(j + 1) * p] = Rj
            total_iters += 1
            j_done = j + 1
            if float(np.linalg.norm(Rj)) <= 1e-300:
                # the block Krylov space is invariant (happy breakdown
                # for every column the space can reach)
                breakdown = True
                break
            V[:, (j + 1) * p:(j + 2) * p] = Qj
            rows = (j + 2) * p
            cols = (j + 1) * p
            Y, *_ = np.linalg.lstsq(Hbar[:rows, :cols], G[:rows],
                                    rcond=None)
            est = np.linalg.norm(G[:rows] - Hbar[:rows, :cols] @ Y,
                                 axis=0)
            if np.all(est <= targets):
                break
        k = j_done * p
        if k > 0:
            Y, *_ = np.linalg.lstsq(Hbar[:k + p, :k], G[:k + p],
                                    rcond=None)
            X = X + np.asarray(M(V[:, :k] @ Y), dtype=np.float64)
        Rnew = B - matvec(X)
        rn = np.linalg.norm(Rnew, axis=0)
        converged = rn <= targets
        if converged.all():
            return BlockGMRESResult(x=X, converged=converged,
                                    iterations=total_iters,
                                    residual_norms=rn)
        worst_before = float(rnorms[~converged].max(initial=0.0))
        worst_after = float(rn[~converged].max(initial=0.0))
        last_cycle_reduction = (worst_after / worst_before
                                if worst_before > 0 else 1.0)
        if breakdown and worst_after >= worst_before * (1.0 - 1e-12):
            # breakdown without progress on the open columns: further
            # restarts from the same residual block change nothing
            return BlockGMRESResult(x=X, converged=converged,
                                    iterations=total_iters,
                                    residual_norms=rn,
                                    stagnated=True)
        rnorms = rn
    return BlockGMRESResult(x=X, converged=converged,
                            iterations=total_iters,
                            residual_norms=rnorms,
                            stagnated=bool(last_cycle_reduction > 0.9))
