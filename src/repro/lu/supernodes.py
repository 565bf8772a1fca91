"""Supernode detection and supernodal repacking of triangular factors.

A (strict) supernode of a lower-triangular factor is a maximal range of
consecutive columns with identical below-diagonal structure, giving a
dense trapezoidal block. The blocked multi-RHS triangular solver of
:mod:`repro.lu.triangular` operates supernode-by-supernode with dense
kernels, which is exactly why the paper pads the sparse right-hand
sides: all columns of a block must share one nonzero pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.utils import OpCounter, check_csc

__all__ = ["detect_supernodes", "SupernodalLower"]


def detect_supernodes(L: sp.spmatrix, *, max_size: int = 64) -> list[tuple[int, int]]:
    """Column ranges ``[c0, c1)`` of the strict supernodes of ``L``.

    Column j+1 extends the current supernode iff its row structure is
    exactly the current column's minus its own diagonal row, and the
    supernode is below ``max_size``.
    """
    L = check_csc(L)
    n = L.shape[1]
    if n == 0:
        return []
    indptr, indices = L.indptr, L.indices
    count = np.diff(indptr)
    col = np.repeat(np.arange(n), count)
    # column j can follow j-1 iff it has one entry fewer and entry t of
    # j equals entry t+1 of j-1, which then sits ``count[j]`` slots back
    follows = np.zeros(n, dtype=bool)
    follows[1:] = count[:-1] == count[1:] + 1
    entry = np.flatnonzero(follows[col])
    differs = indices[entry] != indices[entry - count[col[entry]]]
    follows[col[entry[differs]]] = False
    # runs of followers hang off the last non-follower and are cut every
    # ``max_size`` columns (below 1: every column alone)
    j = np.arange(n)
    run_start = np.maximum.accumulate(np.where(follows, 0, j))
    bounds = np.flatnonzero((j - run_start) % max(max_size, 1) == 0).tolist()
    return list(zip(bounds, bounds[1:] + [n]))


@dataclass
class SupernodalLower:
    """Dense-repacked supernodal form of a lower-triangular matrix.

    Attributes
    ----------
    snodes:
        Column ranges, ascending.
    diag_blocks:
        Per supernode: dense (w, w) lower-triangular diagonal block.
    below_rows / below_blocks:
        Per supernode: row positions below the block and the dense
        (nbelow, w) coefficient panel updating them.
    unit_diagonal:
        True for L factors (implicit 1s), False for U^T solves.
    """

    n: int
    snodes: list[tuple[int, int]]
    diag_blocks: list[np.ndarray]
    below_rows: list[np.ndarray]
    below_blocks: list[np.ndarray]
    unit_diagonal: bool
    nnz: int = field(default=0)

    @classmethod
    def from_csc(cls, L: sp.spmatrix, *, unit_diagonal: bool,
                 max_supernode: int = 64) -> "SupernodalLower":
        """Repack a lower-triangular CSC matrix into its strict
        supernodal blocks."""
        L = check_csc(L)
        n = L.shape[0]
        snodes = detect_supernodes(L, max_size=max_supernode)
        indptr, indices, data = L.indptr, L.indices, L.data
        count = np.diff(indptr)
        stored = np.flatnonzero(count)
        leads = np.zeros(L.shape[1], dtype=bool)
        leads[stored] = indices[indptr[stored]] == stored
        if not leads.all():
            raise ValueError(f"column {np.flatnonzero(~leads)[0]} must "
                             f"store its diagonal entry")
        col = np.repeat(np.arange(L.shape[1]), count)
        diag_blocks: list[np.ndarray] = []
        below_rows: list[np.ndarray] = []
        below_blocks: list[np.ndarray] = []
        for c0, c1 in snodes:
            w = c1 - c0
            entries = slice(indptr[c0], indptr[c1])
            rr, vv, tt = indices[entries], data[entries], col[entries] - c0
            in_block = rr < c1
            D = np.zeros((w, w))
            D[rr[in_block] - c0, tt[in_block]] = vv[in_block]
            if unit_diagonal:
                np.fill_diagonal(D, 1.0)
            # union of below-block rows over the range's columns
            rr_below = rr[~in_block]
            below = np.unique(rr_below)
            Bm = np.zeros((below.size, w))
            Bm[np.searchsorted(below, rr_below), tt[~in_block]] = \
                vv[~in_block]
            diag_blocks.append(D)
            below_rows.append(below.astype(np.int64))
            below_blocks.append(Bm)
        return cls(n=n, snodes=snodes, diag_blocks=diag_blocks,
                   below_rows=below_rows, below_blocks=below_blocks,
                   unit_diagonal=unit_diagonal, nnz=int(L.nnz))

    @property
    def n_supernodes(self) -> int:
        return len(self.snodes)

    def solve_inplace(self, X: np.ndarray, *,
                      active_cols: np.ndarray | None = None,
                      ops: OpCounter | None = None) -> int:
        """Forward solve ``L X = B`` in place on a dense (n, B) array.

        ``active_cols`` (bool, length n) marks factor columns known to
        carry nonzeros (the padded union pattern); inactive supernodes
        are skipped, which is what makes sparse right-hand sides cheap.
        Returns the flop count.
        """
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"X must be (n, B) with n={self.n}")
        nrhs = X.shape[1]
        flops = 0
        for s, (c0, c1) in enumerate(self.snodes):
            if active_cols is not None and not active_cols[c0:c1].any():
                continue
            w = c1 - c0
            xb = X[c0:c1]
            if w == 1:
                if not self.unit_diagonal:
                    xb /= self.diag_blocks[s][0, 0]
            else:
                X[c0:c1] = sla.solve_triangular(
                    self.diag_blocks[s], xb, lower=True,
                    unit_diagonal=self.unit_diagonal, check_finite=False)
            br = self.below_rows[s]
            if br.size:
                X[br] -= self.below_blocks[s] @ X[c0:c1]
                flops += 2 * br.size * w * nrhs
            flops += w * w * nrhs
        if ops is not None:
            ops.add("supernodal_trsolve", flops)
        return flops
