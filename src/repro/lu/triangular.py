"""Blocked sparse triangular solution with multiple sparse right-hand
sides (the computation of ``G = L^{-1} P E`` in Eq. (5) of the paper).

The RHS columns are grouped into parts of ``B`` columns (after one of
the Section IV reorderings); each part is solved *simultaneously*: the
union of the columns' solution patterns is the padded pattern, the
symbolic step runs once per part, and the numeric work is dense over
the padded block — zeros padded into columns that lack a row are pure
overhead, which is exactly what the reordering minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from repro.lu.supernodes import SupernodalLower
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils import OpCounter, check_csr

__all__ = ["PaddingStats", "BlockedSolveResult", "partition_columns",
           "blocked_triangular_solve", "padded_zeros"]


@dataclass(frozen=True)
class PaddingStats:
    """Padded-zero accounting per Eq. (13)-(15) of the paper."""

    total_padded: int
    total_block_entries: int
    per_part_padded: tuple[int, ...]
    per_part_entries: tuple[int, ...]

    @property
    def fraction(self) -> float:
        """Fraction of the padded blocks that is padding (Fig. 4 y-axis)."""
        if self.total_block_entries == 0:
            return 0.0
        return self.total_padded / self.total_block_entries


def partition_columns(order: np.ndarray, block_size: int) -> list[np.ndarray]:
    """Chop an ordered column list into consecutive parts of ``block_size``
    (the last part takes the remainder, as in the paper)."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    order = np.asarray(order, dtype=np.int64)
    return [order[i:i + block_size] for i in range(0, order.size, block_size)]


def padded_zeros(G: sp.spmatrix, parts: list[np.ndarray]) -> PaddingStats:
    """Evaluate Eq. (14) for a column partition of the pattern ``G``.

    For part V_l and row i with at least one nonzero among V_l's
    columns, ``|V_l| - |r_i ∩ V_l|`` zeros are padded.
    """
    Gc = G.tocsc()
    Gc.sum_duplicates()
    n = Gc.shape[0]
    padded: list[int] = []
    entries: list[int] = []
    for cols in parts:
        counts = np.zeros(n, dtype=np.int64)
        for j in cols:
            rows = Gc.indices[Gc.indptr[j]:Gc.indptr[j + 1]]
            counts[rows] += 1
        active = counts > 0
        n_active = int(active.sum())
        block = n_active * len(cols)
        pad = block - int(counts.sum())
        padded.append(pad)
        entries.append(block)
    return PaddingStats(total_padded=int(sum(padded)),
                        total_block_entries=int(sum(entries)),
                        per_part_padded=tuple(padded),
                        per_part_entries=tuple(entries))


@dataclass
class BlockedSolveResult:
    """Solution of a blocked multi-RHS triangular solve.

    ``X`` holds the (thresholded) solution in the original column order
    of ``E``; padding and flops describe the work actually done.
    """

    X: sp.csc_matrix
    padding: PaddingStats
    flops: int
    seconds: float
    n_parts: int


def blocked_triangular_solve(snl: SupernodalLower, E: sp.spmatrix,
                             G_pattern: sp.spmatrix,
                             parts: list[np.ndarray], *,
                             drop_tol: float = 0.0,
                             ops: OpCounter | None = None,
                             tracer: Tracer = NULL_TRACER) -> BlockedSolveResult:
    """Solve ``L X = E`` part by part with padding.

    Parameters
    ----------
    snl:
        Supernodal repack of the lower-triangular factor.
    E:
        (n, m) sparse RHS block, already row-permuted to factored
        positions.
    G_pattern:
        Symbolic solution pattern of ``L^{-1} E`` (rows x m); provides
        the padded union pattern per part.
    parts:
        Column groups in solve order (original column indices of E).
    drop_tol:
        Entries with magnitude below ``drop_tol * max|column|`` are
        discarded from the returned solution (the W~/G~ thresholding of
        the paper's preconditioner construction).
    tracer:
        Records one ``blocked_trsolve`` span with ``padded_zeros``,
        ``block_entries`` and ``trsolve_flops`` counters.
    """
    E = check_csr(E).tocsc()
    Gc = G_pattern.tocsc()
    Gc.sum_duplicates()
    n, m = E.shape
    if snl.n != n:
        raise ValueError("factor and RHS dimensions differ")
    with tracer.span("blocked_trsolve", n_parts=len(parts), nrhs=m):
        t0 = perf_counter()
        total_flops = 0
        # one sweep over G_pattern per part: the active-row mask drives
        # the numeric solve and yields the Eq. (14) padding accounting
        # at the same time (identical to the padded_zeros oracle)
        per_padded: list[int] = []
        per_entries: list[int] = []
        out_cols: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for cols in parts:
            bsz = len(cols)
            active = np.zeros(n, dtype=bool)
            nnz_part = 0
            for j in cols:
                rows = Gc.indices[Gc.indptr[j]:Gc.indptr[j + 1]]
                active[rows] = True
                nnz_part += rows.size
            block = int(np.count_nonzero(active)) * bsz
            per_padded.append(block - nnz_part)
            per_entries.append(block)
            if bsz == 0:
                continue
            X = np.zeros((n, bsz))
            for t, j in enumerate(cols):
                rr = E.indices[E.indptr[j]:E.indptr[j + 1]]
                X[rr, t] = E.data[E.indptr[j]:E.indptr[j + 1]]
            total_flops += snl.solve_inplace(X, active_cols=active, ops=None)
            rows_active = np.flatnonzero(active)
            sub = X[rows_active]
            for t, j in enumerate(cols):
                colv = sub[:, t]
                nzmask = colv != 0.0
                if drop_tol > 0.0 and np.any(nzmask):
                    thresh = drop_tol * np.abs(colv).max()
                    nzmask &= np.abs(colv) >= thresh
                out_cols[int(j)] = (rows_active[nzmask], colv[nzmask])
        pad_stats = PaddingStats(total_padded=int(sum(per_padded)),
                                 total_block_entries=int(sum(per_entries)),
                                 per_part_padded=tuple(per_padded),
                                 per_part_entries=tuple(per_entries))
        seconds = perf_counter() - t0
        tracer.count("padded_zeros", pad_stats.total_padded)
        tracer.count("block_entries", pad_stats.total_block_entries)
        tracer.count("trsolve_flops", total_flops)
    indptr = [0]
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for j in range(m):
        rr, vv = out_cols.get(j, (np.empty(0, dtype=np.int64), np.empty(0)))
        indices.append(rr)
        data.append(vv)
        indptr.append(indptr[-1] + rr.size)
    X = sp.csc_matrix((np.concatenate(data) if data else np.empty(0),
                       np.concatenate(indices) if indices else np.empty(0, np.int64),
                       np.asarray(indptr, dtype=np.int64)), shape=(n, m))
    if ops is not None:
        ops.add("blocked_trsolve", total_flops)
    return BlockedSolveResult(X=X, padding=pad_stats, flops=total_flops,
                              seconds=seconds, n_parts=len(parts))
