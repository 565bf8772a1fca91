"""Symbolic sparse triangular-solve machinery.

Two predictors of the nonzero pattern of ``L^{-1} b`` for sparse ``b``:

- :func:`reach` / :func:`solution_pattern` — exact reachability in the
  DAG of a concrete lower-triangular factor (Gilbert-Peierls), used to
  build the pattern matrix ``G`` whose row-net hypergraph drives the
  Section IV-B reordering;
- e-tree fill paths (:func:`repro.ordering.etree_path_closure`) — the
  structural upper bound the Section IV-A postorder heuristic relies on.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ordering.etree import _climb, _liu_parent
from repro.utils import as_int_array, check_csc

__all__ = ["reach", "solution_pattern", "toposorted_reach", "factor_etree"]


def factor_etree(L: sp.spmatrix) -> np.ndarray:
    """Elimination tree of the factor pattern with the *ancestor
    guarantee*: for every stored entry ``L[i, j]`` (``i > j``), ``i`` is
    an ancestor of ``j`` in the returned tree.

    That guarantee is what makes the fill-path closure of
    :func:`solution_pattern` a safe superset of the exact reach: every
    DAG edge of the triangular solve climbs toward an ancestor, so the
    reach of any support column is contained in its path to the root
    (Gilbert's theorem, the paper's Section IV-A model).

    For a factor with Cholesky-like structure (every below-diagonal row
    index of column ``j`` already an ancestor of the first one) this is
    the classical elimination tree — the first below-diagonal entry per
    column. For general LU factors under pivoting that shortcut
    *under*-approximates (a column may hit a row off its first-parent
    path), so the tree is built with Liu's algorithm over the pattern:
    rows in increasing order, climbing with path compression and
    grafting every terminating subtree under the current row.
    """
    return _liu_parent(check_csc(L))


def _dfs_reach(indptr: np.ndarray, indices: np.ndarray, support: np.ndarray,
               n: int) -> list[int]:
    """Iterative DFS in the column DAG of L; returns reverse-topological
    output (roots last), i.e. increasing dependency order when reversed."""
    visited = np.zeros(n, dtype=bool)
    out: list[int] = []
    for s in support:
        if visited[s]:
            continue
        # stack holds (node, next pin offset)
        stack = [(int(s), indptr[s])]
        visited[s] = True
        while stack:
            node, ptr = stack.pop()
            advanced = False
            while ptr < indptr[node + 1]:
                child = indices[ptr]
                ptr += 1
                if child > node and not visited[child]:
                    visited[child] = True
                    stack.append((node, ptr))
                    stack.append((int(child), indptr[child]))
                    advanced = True
                    break
            if not advanced:
                out.append(node)
    return out


def reach(L: sp.spmatrix, support: np.ndarray) -> np.ndarray:
    """Sorted nonzero row set of ``L^{-1} b`` with ``supp(b) = support``.

    ``L`` must be lower triangular (pattern-wise); entries on or above
    the diagonal are ignored as graph edges but the diagonal is assumed
    nonzero.
    """
    return np.asarray(sorted(toposorted_reach(L, support)), dtype=np.int64)


def toposorted_reach(L: sp.spmatrix, support: np.ndarray) -> list[int]:
    """Reach set in dependency order (each column before any column it
    updates), as needed by a sparse-RHS numeric solve."""
    L = check_csc(L)
    n = L.shape[0]
    support = as_int_array(support, "support")
    if support.size and (support.min() < 0 or support.max() >= n):
        raise IndexError("support index out of range")
    rev = _dfs_reach(L.indptr, L.indices, support, n)
    rev.reverse()
    return rev


def solution_pattern(L: sp.spmatrix, B: sp.spmatrix, *,
                     method: str = "reach") -> sp.csr_matrix:
    """Pattern of ``L^{-1} B`` for sparse ``B`` (the matrix ``G`` of the
    paper's Section IV-B).

    ``method="reach"`` runs one exact DAG reach per column (ground
    truth). ``method="etree"`` closes each column's support along the
    factor e-tree fill paths instead — the paper's Section IV-A
    prediction. For Cholesky-structure factors the closure is a superset
    of the exact reach (equal in the typical case), and it costs
    O(output) instead of a DFS over the factor per column, which is what
    makes large interface blocks tractable.
    """
    L = check_csc(L)
    Bc = B.tocsc()
    Bc.sum_duplicates()
    Bc.sort_indices()
    n, m = Bc.shape
    if L.shape[0] != n:
        raise ValueError("dimension mismatch between L and B")
    if method not in ("reach", "etree"):
        raise ValueError(f"method must be 'reach' or 'etree', got {method!r}")
    col_ptr = [0]
    rows: list[np.ndarray] = []
    if method == "etree":
        parent = factor_etree(L).tolist()
        mark = [-1] * n
        for j in range(m):
            supp = Bc.indices[Bc.indptr[j]:Bc.indptr[j + 1]].tolist()
            r = np.array(_climb(parent, supp, mark, j), dtype=np.int64)
            r.sort()
            rows.append(r)
            col_ptr.append(col_ptr[-1] + r.size)
    else:
        for j in range(m):
            supp = Bc.indices[Bc.indptr[j]:Bc.indptr[j + 1]]
            r = reach(L, supp)
            rows.append(r)
            col_ptr.append(col_ptr[-1] + r.size)
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    G = sp.csc_matrix((np.ones(indices.size, dtype=np.int8), indices,
                       np.asarray(col_ptr, dtype=np.int64)), shape=(n, m))
    return G.tocsr()
