"""Sparse right-hand-side reordering for blocked triangular solution
(paper Section IV).

Three column orderings of the RHS block ``E`` (equivalently of the
solution pattern ``G = str(L^{-1} P E)``):

- **natural** — the order the columns arrive in (in the paper, the
  nested-dissection order of the global matrix);
- **postorder** (Section IV-A) — rows of ``D``/``E`` permuted so the
  e-tree of ``D`` is postordered, then columns sorted by first-nonzero
  row index: consecutive columns start near each other in the tree, so
  their fill paths overlap;
- **hypergraph** (Section IV-B) — the row-net hypergraph of ``G`` is
  partitioned into parts of exactly ``B`` columns minimizing
  connectivity-1, which the paper shows equals the number of padded
  zeros up to the constant ``n_G B - nnz(G)`` (Eq. 15). Empty and
  quasi-dense rows may be removed first (Section V-B(c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from repro.hypergraph import Hypergraph, bisect_hypergraph, split_by_side
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sparse.quasidense import filter_quasi_dense_rows
from repro.utils import SeedLike, check_csr, positive_int, rng_from

__all__ = [
    "natural_column_order",
    "postorder_column_order",
    "hypergraph_column_order",
    "HypergraphOrderResult",
]


def natural_column_order(n_cols: int) -> np.ndarray:
    """Identity ordering (baseline)."""
    return np.arange(positive_int(n_cols, "n_cols"), dtype=np.int64)


def postorder_column_order(E: sp.spmatrix) -> np.ndarray:
    """Sort columns of ``E`` by ascending first-nonzero row index.

    ``E`` must already be row-permuted so that the factor's e-tree is
    postordered (the caller permutes D and E together). Empty columns
    sort last, keeping their relative order. Ties keep original order
    (stable sort).
    """
    E = check_csr(E).tocsc()
    E.sum_duplicates()
    E.sort_indices()
    m = E.shape[1]
    first = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
    for j in range(m):
        lo, hi = E.indptr[j], E.indptr[j + 1]
        if hi > lo:
            first[j] = E.indices[lo]
    return np.argsort(first, kind="stable").astype(np.int64)


@dataclass
class HypergraphOrderResult:
    """Hypergraph ordering output with provenance.

    ``order`` concatenates the parts; ``parts`` lists each part's
    original column ids (full parts of B first, remainder last);
    timing and filtering statistics support the Section V-B(c) study.
    """

    order: np.ndarray
    parts: list[np.ndarray]
    partition_seconds: float
    n_rows_used: int
    n_rows_removed_dense: int
    n_rows_removed_empty: int


def _quota_recursive(H: Hypergraph, vertex_ids: np.ndarray,
                     quotas: list[int], seed: SeedLike,
                     n_trials: int, out: list[np.ndarray]) -> None:
    """Recursive bisection into parts of exact sizes ``quotas``."""
    if len(quotas) == 1:
        out.append(np.sort(vertex_ids))
        return
    half = len(quotas) // 2
    q0 = int(sum(quotas[:half]))
    total = H.n_vertices
    res = bisect_hypergraph(H, epsilon=0.02, target0=max(0.02, min(0.98, q0 / total)),
                            seed=seed, n_trials=n_trials, quota0=q0)
    split = split_by_side(H, res.side, metric="con1")
    _quota_recursive(split.children[0], vertex_ids[split.vertex_ids[0]],
                     quotas[:half], seed, n_trials, out)
    _quota_recursive(split.children[1], vertex_ids[split.vertex_ids[1]],
                     quotas[half:], seed, n_trials, out)


def hypergraph_column_order(G: sp.spmatrix, block_size: int, *,
                            tau: float | None = None,
                            seed: SeedLike = None,
                            n_trials: int = 2,
                            tracer: Tracer = NULL_TRACER) -> HypergraphOrderResult:
    """Partition the columns of pattern ``G`` into parts of exactly
    ``block_size`` columns minimizing padded zeros (row-net model,
    connectivity-1 objective; Eq. (15) reduction).

    Parameters
    ----------
    G:
        (n_rows, n_cols) solution pattern.
    tau:
        If given, quasi-dense rows (density >= tau) and empty rows are
        removed before partitioning — same quality, far cheaper
        (Section V-B(c)).
    tracer:
        Records one ``rhs_hypergraph_order`` span with row-filtering
        counters.
    """
    G = check_csr(G)
    B = positive_int(block_size, "block_size")
    rng = rng_from(seed)
    n_rows, n_cols = G.shape
    with tracer.span("rhs_hypergraph_order", n_cols=n_cols, block=B):
        t0 = perf_counter()
        removed_dense = removed_empty = 0
        Guse = G
        if tau is not None:
            filt = filter_quasi_dense_rows(G, tau)
            Guse = filt.kept
            removed_dense = int(filt.dense_rows.size)
            removed_empty = int(filt.empty_rows.size)
        tracer.count("rows_removed_dense", removed_dense)
        tracer.count("rows_removed_empty", removed_empty)
        m_full = n_cols // B
        quotas = [B] * m_full
        rem = n_cols - m_full * B
        if rem:
            quotas.append(rem)
        if not quotas or len(quotas) == 1:
            order = np.arange(n_cols, dtype=np.int64)
            return HypergraphOrderResult(order=order,
                                         parts=[order.copy()] if n_cols else [],
                                         partition_seconds=perf_counter() - t0,
                                         n_rows_used=Guse.shape[0],
                                         n_rows_removed_dense=removed_dense,
                                         n_rows_removed_empty=removed_empty)
        H = Hypergraph.row_net_model(Guse)
        parts: list[np.ndarray] = []
        _quota_recursive(H, np.arange(n_cols, dtype=np.int64), quotas, rng,
                         n_trials, parts)
        # keep the remainder part last; full parts keep recursion order
        order = np.concatenate(parts)
        seconds = perf_counter() - t0
    return HypergraphOrderResult(order=order, parts=parts,
                                 partition_seconds=seconds,
                                 n_rows_used=Guse.shape[0],
                                 n_rows_removed_dense=removed_dense,
                                 n_rows_removed_empty=removed_empty)
