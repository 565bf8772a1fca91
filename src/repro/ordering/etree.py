"""Elimination trees and related symbolic machinery (Liu 1990).

The elimination tree (e-tree) of a symmetric-pattern matrix drives both
the fill prediction used by the symbolic triangular solve (paper Section
IV-A: fill of ``D^{-1} b`` follows fill paths to the root) and the
postorder RHS reordering heuristic.

All functions operate on the pattern only; unsymmetric inputs must be
symmetrized by the caller (:func:`repro.sparse.symmetrized`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils import as_int_array, check_csr, check_square

__all__ = [
    "elimination_tree",
    "postorder",
    "is_postordered",
    "children_lists",
    "tree_level",
    "first_descendants",
    "etree_path_closure",
    "symbolic_cholesky_row_counts",
]


def _liu_parent(A: sp.spmatrix) -> np.ndarray:
    """Liu's e-tree algorithm over the strict lower triangle of ``A``:
    rows in increasing order, climbing from every entry ``(i, j)``,
    ``j < i``, to the root of ``j``'s current subtree (compressing the
    path onto ``i``) and grafting that root under ``i``.
    O(nnz * alpha).

    The one implementation behind :func:`elimination_tree` and
    :func:`repro.lu.factor_etree`. The loop is inherently sequential,
    so it runs on plain lists: per-element indexing of a numpy array
    boxes a scalar on every access and is several times slower.
    """
    n = A.shape[0]
    lower = sp.tril(A, -1, format="csr")
    ptr, cols = lower.indptr.tolist(), lower.indices
    parent = [-1] * n
    ancestor = [-1] * n
    for i in range(n):
        # one row at a time: a list of the whole pattern would cost
        # several times the matrix in transient memory
        for r in cols[ptr[i]:ptr[i + 1]].tolist():
            a = ancestor[r]
            while a != -1 and a != i:
                ancestor[r] = i  # path compression
                r = a
                a = ancestor[r]
            if a == -1:
                ancestor[r] = i
                parent[r] = i
    return np.array(parent, dtype=np.int64)


def elimination_tree(A: sp.spmatrix) -> np.ndarray:
    """Parent array of the elimination tree of symmetric-pattern ``A``.

    ``parent[j] == -1`` marks a root. Uses Liu's algorithm with path
    compression, O(nnz * alpha).
    """
    A = check_csr(A)
    check_square(A)
    return _liu_parent(A)


def _parent_list(parent: np.ndarray) -> list[int]:
    """Validated parent array as a plain list (see :func:`_liu_parent`
    for why the tree walks below run on lists)."""
    parent = as_int_array(parent, "parent")
    self_parent = np.flatnonzero(parent == np.arange(parent.size))
    if self_parent.size:
        raise ValueError(f"self-parent at node {self_parent[0]}")
    return parent.tolist()


def children_lists(parent: np.ndarray) -> list[list[int]]:
    """Children adjacency lists of an e-tree parent array, in index order."""
    par = _parent_list(parent)
    kids: list[list[int]] = [[] for _ in par]
    for v, p in enumerate(par):
        if p >= 0:
            kids[p].append(v)
    return kids


def postorder(parent: np.ndarray) -> np.ndarray:
    """A postorder permutation of the e-tree.

    Returns ``order`` such that ``order[t]`` is the original index of the
    t-th node in postorder: every subtree occupies a contiguous range
    ending at its root. Children are visited in ascending original index
    for determinism.
    """
    par = _parent_list(parent)
    n = len(par)
    # children as linked lists (first_kid / next_sib), filled from the
    # highest index down so each list reads in ascending order
    first_kid = [-1] * n
    next_sib = [-1] * n
    for v in range(n - 1, -1, -1):
        p = par[v]
        if p >= 0:
            next_sib[v] = first_kid[p]
            first_kid[p] = v
    order: list[int] = []
    for root in range(n):
        if par[root] >= 0:
            continue
        # iterative DFS: descend to the next unvisited child, emit a
        # node once its child list is used up
        stack = [root]
        while stack:
            node = stack[-1]
            kid = first_kid[node]
            if kid == -1:
                order.append(stack.pop())
            else:
                first_kid[node] = next_sib[kid]
                stack.append(kid)
    if len(order) != n:
        raise ValueError("parent array contains a cycle")
    return np.array(order, dtype=np.int64)


def is_postordered(parent: np.ndarray) -> bool:
    """True iff node indices are already in a valid postorder
    (every node numbered after all of its descendants, subtrees contiguous)."""
    parent = as_int_array(parent, "parent")
    n = parent.size
    # In a postorder, parent[v] > v for all non-roots, and the descendant
    # range of v is [first_desc[v], v] contiguous.
    if np.any((parent >= 0) & (parent <= np.arange(n))):
        return False
    fd = first_descendants(parent)
    for v in range(n):
        p = parent[v]
        if p >= 0 and fd[p] > fd[v]:
            return False
    return True


def tree_level(parent: np.ndarray) -> np.ndarray:
    """Depth of each node (roots at level 0)."""
    par = as_int_array(parent, "parent").tolist()
    level = [-1] * len(par)
    for v in range(len(par)):
        # walk up collecting the path until a known level
        path = []
        u = v
        while u >= 0 and level[u] < 0:
            path.append(u)
            u = par[u]
        base = level[u] if u >= 0 else -1
        for node in reversed(path):
            base += 1
            level[node] = base
    return np.array(level, dtype=np.int64)


def first_descendants(parent: np.ndarray) -> np.ndarray:
    """Smallest-index descendant of each node (itself if a leaf).

    Only meaningful as stated when nodes are postordered; for general
    numbering it still returns the minimum index in each subtree.
    """
    par = as_int_array(parent, "parent").tolist()
    fd = list(range(len(par)))
    # one pass in a children-before-parents order: a node's subtree
    # minimum is final by the time it is pushed to its parent
    for v in postorder(parent).tolist():
        p = par[v]
        if p >= 0 and fd[v] < fd[p]:
            fd[p] = fd[v]
    return np.array(fd, dtype=np.int64)


def _climb(parent: list[int], support: list[int], mark: list[int],
           stamp: int) -> list[int]:
    """Union of the e-tree paths from ``support`` toward the root,
    stopping at nodes whose ``mark`` already equals ``stamp``; marks and
    returns the newly reached nodes in visiting order. The one climbing
    loop behind :func:`etree_path_closure` and the ``method="etree"``
    pattern of :func:`repro.lu.solution_pattern`."""
    out: list[int] = []
    for v in support:
        while v >= 0 and mark[v] != stamp:
            mark[v] = stamp
            out.append(v)
            v = parent[v]
    return out


def etree_path_closure(parent: np.ndarray, support: np.ndarray,
                       *, stop: np.ndarray | None = None) -> np.ndarray:
    """Union of e-tree paths from each node in ``support`` to its root.

    This is the predicted nonzero row set of ``L^{-1} b`` when
    ``supp(b) = support`` (Gilbert's fill-path theorem specialized to the
    e-tree). ``stop`` optionally marks nodes already known reached; the
    walk stops on hitting one (used for incremental closures).
    Returns the sorted closed set.
    """
    parent = as_int_array(parent, "parent")
    n = parent.size
    support = as_int_array(support, "support")
    bad = support[(support < 0) | (support >= n)]
    if bad.size:
        raise IndexError(f"support index {bad[0]} out of range [0, {n})")
    mark = [False] * n if stop is None else \
        np.asarray(stop, dtype=bool).tolist()
    out = _climb(parent.tolist(), support.tolist(), mark, True)
    out.sort()
    return np.array(out, dtype=np.int64)


def symbolic_cholesky_row_counts(A: sp.spmatrix,
                                 parent: np.ndarray | None = None) -> np.ndarray:
    """Per-row nonzero counts of the Cholesky factor of ``str(A)``.

    Row i of L has a nonzero in column j iff j is on the e-tree path
    from some k (with A[i,k] != 0, k < i) up to i. O(|L|) walk with
    per-row marks.
    """
    A = check_csr(A)
    check_square(A)
    n = A.shape[0]
    if parent is None:
        parent = elimination_tree(A)
    par = as_int_array(parent, "parent").tolist()
    counts: list[int] = []
    mark = [-1] * n
    indptr, indices = A.indptr.tolist(), A.indices
    for i in range(n):
        mark[i] = i
        count = 1  # diagonal
        for j in indices[indptr[i]:indptr[i + 1]].tolist():
            while j != -1 and j < i and mark[j] != i:
                mark[j] = i
                count += 1
                j = par[j]
        counts.append(count)
    return np.array(counts, dtype=np.int64)
