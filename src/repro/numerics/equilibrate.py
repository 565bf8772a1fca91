"""Ruiz-style iterative row/column equilibration.

Ill-scaled systems defeat every stage of the hybrid pipeline: threshold
pivoting picks structurally convenient but numerically tiny pivots, the
relative drop tolerances on ``G~``/``W~``/``S~`` throw away entries that
only *look* small, and Krylov convergence tests measured in the norm of
a badly scaled residual certify garbage. The standard production
defense (HSL MC77, SuperLU_DIST's equilibration phase) is to solve the
scaled system

    (R A C) y = R b,        x = C y,

where ``R``/``C`` are diagonal and chosen so every row and column of
``R A C`` has unit infinity norm. Ruiz's algorithm reaches that
fixed point by repeatedly dividing each row and column by the square
root of its current max magnitude; convergence is geometric and a
handful of sweeps suffice in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.utils import check_csr

__all__ = ["EquilibrationResult", "ruiz_equilibrate", "scaling_quality"]


def _row_abs_max(A: sp.csr_matrix) -> np.ndarray:
    """Per-row max |a_ij| (0 for empty rows)."""
    out = np.zeros(A.shape[0])
    rows = np.flatnonzero(np.diff(A.indptr))
    if rows.size:
        # segments start at each stored row and run to the next one's
        # start: the empty rows in between contribute no entries
        out[rows] = np.maximum.reduceat(np.abs(A.data[:A.indptr[-1]]),
                                        A.indptr[rows])
    return out


def _abs_maxima(A: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(row max, col max) of |A| in one pass each."""
    r = _row_abs_max(A)
    c = _row_abs_max(A.T.tocsr())
    return r, c


@dataclass
class EquilibrationResult:
    """Diagonal scalings ``R`` (rows) and ``C`` (columns) with the
    scaled matrix ``A_scaled = R A C``.

    ``converged`` means every row and column max of ``A_scaled`` is
    within ``tol`` of 1; ``iterations`` counts Ruiz sweeps actually run.
    Zero rows/columns keep scale 1 (they cannot be normalized and must
    be left for the static-pivoting ladder to handle).
    """

    A_scaled: sp.csr_matrix
    row_scale: np.ndarray
    col_scale: np.ndarray
    iterations: int
    converged: bool

    def scale_rhs(self, b: np.ndarray) -> np.ndarray:
        """``R b`` — the right-hand side of the scaled system."""
        return self.row_scale * np.asarray(b, dtype=np.float64)

    def unscale_solution(self, y: np.ndarray) -> np.ndarray:
        """``C y`` — map a scaled-system solution back to ``A x = b``."""
        return self.col_scale * np.asarray(y, dtype=np.float64)


def scaling_quality(A: sp.spmatrix) -> float:
    """Max over rows and columns of ``|log10(max|a_ij|)|`` — 0 for a
    perfectly equilibrated matrix, large for an ill-scaled one."""
    A = check_csr(A)
    r, c = _abs_maxima(A)
    m = np.concatenate([r[r > 0], c[c > 0]])
    if m.size == 0:
        return 0.0
    return float(np.abs(np.log10(m)).max())


def ruiz_equilibrate(A: sp.spmatrix, *, max_iters: int = 20,
                     tol: float = 1e-2) -> EquilibrationResult:
    """Equilibrate ``A`` to doubly (near-)unit row/column inf-norms.

    Each sweep divides row ``i`` by ``sqrt(max_j |a_ij|)`` and column
    ``j`` by ``sqrt(max_i |a_ij|)``; the scalings accumulate in
    ``row_scale``/``col_scale``. Stops once every nonzero row and
    column max lies in ``[1 - tol, 1 + tol]``.
    """
    A = check_csr(A).astype(np.float64)
    n_rows, n_cols = A.shape
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    r_scale = np.ones(n_rows)
    c_scale = np.ones(n_cols)
    As = A.copy()
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        rmax, cmax = _abs_maxima(As)
        live_r = rmax > 0
        live_c = cmax > 0
        if (np.all(np.abs(rmax[live_r] - 1.0) <= tol)
                and np.all(np.abs(cmax[live_c] - 1.0) <= tol)):
            converged = True
            it -= 1
            break
        dr = np.ones(n_rows)
        dc = np.ones(n_cols)
        dr[live_r] = 1.0 / np.sqrt(rmax[live_r])
        dc[live_c] = 1.0 / np.sqrt(cmax[live_c])
        As = sp.diags(dr) @ As @ sp.diags(dc)
        r_scale *= dr
        c_scale *= dc
    else:
        rmax, cmax = _abs_maxima(As)
        live_r = rmax > 0
        live_c = cmax > 0
        converged = bool(np.all(np.abs(rmax[live_r] - 1.0) <= tol)
                         and np.all(np.abs(cmax[live_c] - 1.0) <= tol))
    As = As.tocsr()
    As.sum_duplicates()
    As.sort_indices()
    return EquilibrationResult(A_scaled=As, row_scale=r_scale,
                               col_scale=c_scale, iterations=it,
                               converged=converged)
