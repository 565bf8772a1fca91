"""Backward errors and certified fixed-precision iterative refinement.

A residual norm alone says little: ``||b - A x||`` can look small while
individual equations are satisfied to no digits at all. The quantities
that actually certify a solve (Oettli-Prager / Higham, and what
LAPACK's expert drivers report) are

- the *componentwise* backward error
  ``berr = max_i |r_i| / (|A| |x| + |b|)_i`` — the smallest relative
  perturbation of A and b, entry by entry, for which ``x`` is exact;
- the *normwise* backward error
  ``nberr = ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf)``;
- a forward-error bound ``ferr <~ cond(A) * berr``.

Fixed-precision iterative refinement drives ``berr`` down to O(eps):
repeat ``d = solve(r); x += d`` while the backward error keeps
shrinking. Each step multiplies the error by roughly
``eps * cond(A)``-ish contraction factor of the inner solver, so
either it converges in a few steps or it stagnates — and stagnation is
itself a diagnosis (the inner solver is too weak), which the caller can
escalate on (PDSLin rebuilds the Schur preconditioner) before giving
up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["CertifiedAccuracy", "backward_errors", "refine",
           "refine_block"]

# one refinement step must shrink berr at least this much, or we call
# it stagnation (Higham's rho_thresh in the LAPACK refinement papers)
STALL_RATIO = 0.5


def backward_errors(A: sp.spmatrix, x: np.ndarray, b: np.ndarray,
                    r: np.ndarray | None = None) -> tuple[float, float]:
    """(componentwise, normwise) backward error of ``x`` for ``A x = b``.

    A zero denominator with a zero residual contributes 0 (the equation
    is exactly satisfied); with a nonzero residual it contributes
    ``inf`` (no perturbation of a zero row can explain the residual).
    """
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if r is None:
        r = b - A @ x
    absr = np.abs(r)
    denom = np.abs(A) @ np.abs(x) + np.abs(b)
    live = denom > 0.0
    berr = float((absr[live] / denom[live]).max()) if np.any(live) else 0.0
    if np.any(absr[~live] > 0.0):
        berr = float("inf")
    norm_a = float(np.abs(A).sum(axis=1).max()) if A.shape[0] else 0.0
    ndenom = norm_a * float(np.abs(x).max(initial=0.0)) \
        + float(np.abs(b).max(initial=0.0))
    rinf = float(absr.max(initial=0.0))
    nberr = rinf / ndenom if ndenom > 0.0 else (0.0 if rinf == 0.0
                                                else float("inf"))
    return berr, nberr


@dataclass
class CertifiedAccuracy:
    """Quantified accuracy of one solve, attached to the result.

    ``certified`` means the componentwise backward error reached
    ``certify_tol`` — the solution is exact for a system within that
    relative distance of the one posed. ``ferr_bound`` is the usual
    ``cond * berr_norm`` first-order forward-error bound (with the
    condition number itself an estimate, so a diagnostic, not a proof).
    ``escalations`` counts refinement stalls that were escalated into
    the resilience ladder (preconditioner rebuild) before continuing.
    """

    berr: float
    nberr: float
    cond_est: float
    ferr_bound: float
    refine_steps: int
    certified: bool
    certify_tol: float
    stagnated: bool = False
    escalations: int = 0
    berr_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "berr": self.berr,
            "nberr": self.nberr,
            "cond_est": self.cond_est,
            "ferr_bound": self.ferr_bound,
            "refine_steps": self.refine_steps,
            "certified": self.certified,
            "certify_tol": self.certify_tol,
            "stagnated": self.stagnated,
            "escalations": self.escalations,
            "berr_history": [float(v) for v in self.berr_history],
        }

    def describe(self) -> str:
        tag = "CERTIFIED" if self.certified else "UNCERTIFIED"
        return (f"accuracy: {tag} berr={self.berr:.2e} "
                f"nberr={self.nberr:.2e} cond~{self.cond_est:.2e} "
                f"ferr<~{self.ferr_bound:.2e} "
                f"steps={self.refine_steps}"
                + (f" escalations={self.escalations}"
                   if self.escalations else ""))


def refine(A: sp.spmatrix, b: np.ndarray, x0: np.ndarray,
           solve: Callable[[np.ndarray], np.ndarray], *,
           tol: float = 1e-14,
           certify_tol: float = 1e-12,
           maxiter: int = 4,
           cond_est: float = float("nan"),
           on_stall: Optional[Callable[[], bool]] = None,
           ) -> tuple[np.ndarray, CertifiedAccuracy]:
    """Refine ``x0`` until the componentwise backward error reaches
    ``tol``, stagnates, or ``maxiter`` correction solves are spent —
    the one-column case of :func:`refine_block`.

    ``solve(r)`` must return an (approximate) solution of ``A d = r``.
    On stagnation, ``on_stall()`` is consulted: returning True means
    the caller strengthened the inner solver (e.g. rebuilt the Schur
    preconditioner with no dropping) and refinement should continue;
    returning False — or a second stall — ends refinement. The best
    iterate seen (smallest berr) is the one returned.
    """
    X, accs = refine_block(
        A, np.asarray(b, dtype=np.float64)[:, None],
        np.asarray(x0, dtype=np.float64)[:, None],
        lambda R: np.asarray(solve(R[:, 0]), dtype=np.float64)[:, None],
        tol=tol, certify_tol=certify_tol, maxiter=maxiter,
        cond_est=cond_est, on_stall=on_stall)
    return X[:, 0], accs[0]


def refine_block(A: sp.spmatrix, B: np.ndarray, X0: np.ndarray,
                 solve_block: Callable[[np.ndarray], np.ndarray], *,
                 tol: float = 1e-14,
                 certify_tol: float = 1e-12,
                 maxiter: int = 4,
                 cond_est: float = float("nan"),
                 on_stall: Optional[Callable[[], bool]] = None,
                 ) -> tuple[np.ndarray, list[CertifiedAccuracy]]:
    """Fixed-precision iterative refinement of every column of ``X0``
    until its componentwise backward error reaches ``tol``, stagnates,
    or ``maxiter`` correction solves are spent on it.

    ``solve_block(R)`` must return (approximate) solutions of
    ``A D = R`` for a residual matrix whose columns are the still-active
    right-hand sides; one such block correction solve is spent per
    refinement sweep instead of one solve per column. Each column runs
    its own state machine — stall test, best-iterate tracking (the
    smallest-berr iterate is the one returned), non-finite handling —
    so when the block correction solve is columnwise bit-identical to
    the single-column solve (the direct-path contract), the refined
    columns are bit-identical to refining each column alone. On a
    stall ``on_stall()`` is consulted: True means the caller
    strengthened the inner solver and refinement continues; False — or
    a second stall of that column — ends it. ``on_stall`` is shared:
    the first stalled column consults it (a global escalation such as a
    preconditioner rebuild), matching the sequential-column behaviour
    where one escalation serves all later columns.
    """
    B = np.asarray(B, dtype=np.float64)
    X = np.asarray(X0, dtype=np.float64).copy()
    p = B.shape[1]
    if p == 0:
        return X, []
    berr = np.empty(p)
    nberr = np.empty(p)
    R = B - A @ X
    for j in range(p):
        berr[j], nberr[j] = backward_errors(A, X[:, j], B[:, j], r=R[:, j])
    history = [[float(berr[j])] for j in range(p)]
    best_X = X.copy()
    best = [(float(berr[j]), float(nberr[j])) for j in range(p)]
    steps = np.zeros(p, dtype=np.int64)
    stagnated = np.zeros(p, dtype=bool)
    escalations = np.zeros(p, dtype=np.int64)
    active = (berr > tol) if maxiter > 0 else np.zeros(p, dtype=bool)
    while active.any():
        idx = np.flatnonzero(active)
        R = B[:, idx] - A @ X[:, idx]
        D = np.asarray(solve_block(R), dtype=np.float64)
        finite = np.isfinite(D).all(axis=0)
        bad = idx[~finite]
        stagnated[bad] = True
        active[bad] = False
        upd = idx[finite]
        if upd.size == 0:
            continue
        X[:, upd] = X[:, upd] + D[:, finite]
        steps[upd] += 1
        Rn = B[:, upd] - A @ X[:, upd]
        for pos, j in enumerate(upd):
            bj, nj = backward_errors(A, X[:, j], B[:, j], r=Rn[:, pos])
            history[j].append(bj)
            if bj < best[j][0]:
                best_X[:, j] = X[:, j]
                best[j] = (bj, nj)
            berr[j] = bj
            if bj > STALL_RATIO * history[j][-2]:
                if on_stall is not None and escalations[j] == 0 \
                        and bj > certify_tol and on_stall():
                    escalations[j] += 1
                else:
                    stagnated[j] = bj > tol
                    active[j] = False
                    continue
            active[j] = bool(bj > tol) and bool(steps[j] < maxiter)
    accs = []
    for j in range(p):
        bj, nj = best[j]
        ferr = cond_est * nj if np.isfinite(cond_est) else float("nan")
        accs.append(CertifiedAccuracy(
            berr=bj, nberr=nj, cond_est=float(cond_est), ferr_bound=ferr,
            refine_steps=int(steps[j]), certified=bool(bj <= certify_tol),
            certify_tol=certify_tol, stagnated=bool(stagnated[j]),
            escalations=int(escalations[j]), berr_history=history[j]))
    return best_X, accs
