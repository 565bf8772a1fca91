"""Minimum-degree fill-reducing ordering (quotient-graph formulation).

The paper's triangular-solve experiments order each subdomain with a
minimum degree ordering ("a very common setting in direct and hybrid
linear solvers", Section V-B). This implementation follows the
quotient-graph / element model used by AMD:

- eliminating variable ``v`` creates an *element* whose variable set is
  v's current neighbourhood;
- elements adjacent to ``v`` are absorbed into the new element;
- variable degrees are maintained approximately (Amestoy-Davis-Duff
  style upper bound: explicit neighbours plus the sum of element sizes),
  with a lazy min-heap.

Ties break on the lowest variable index, so the ordering is
deterministic.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from repro.sparse.symmetrize import is_structurally_symmetric, symmetrized
from repro.utils import check_csr, check_square

__all__ = ["minimum_degree", "permute_symmetric"]


def minimum_degree(A: sp.spmatrix) -> np.ndarray:
    """Return an elimination order (permutation) by approximate minimum
    degree on the pattern of ``|A|+|A|^T``.

    ``order[t]`` is the variable eliminated at step t; to apply it,
    permute the matrix with :func:`permute_symmetric`.
    """
    A = check_csr(A)
    check_square(A)
    if not is_structurally_symmetric(A):
        A = symmetrized(A)
    n = A.shape[0]
    # The elimination loop is sequential and touches one variable or
    # element at a time, so its state lives in plain lists, sets and a
    # bytearray: per-element indexing of numpy arrays boxes a scalar on
    # every access.
    ptr, idx = A.indptr.tolist(), A.indices
    var_adj: list[set[int]] = [set(idx[ptr[i]:ptr[i + 1]].tolist())
                               for i in range(n)]
    for i, adj in enumerate(var_adj):
        adj.discard(i)
    var_elems: list[set[int]] = [set() for _ in range(n)]
    # An element is named after the variable whose elimination created
    # it. Live elements never lose a variable (eliminating one absorbs
    # every element holding it), so an element's contribution to its
    # variables' degrees, |Le| - 1, is fixed at creation and each
    # variable keeps the running sum over its elements.
    elem_vars: list[set[int]] = [set() for _ in range(n)]
    elem_reach = [0] * n
    reach_sum = [0] * n
    eliminated = bytearray(n)
    degree = [len(a) for a in var_adj]
    heap: list[tuple[int, int]] = list(zip(degree, range(n)))
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    order: list[int] = []

    for step in range(n):
        # pop until a live, up-to-date entry appears
        while True:
            d, v = heappop(heap)
            if not eliminated[v] and d == degree[v]:
                break
        order.append(v)
        eliminated[v] = 1

        # Le = neighbourhood of v in the quotient graph = new element.
        # Neither v's explicit neighbours nor its elements hold an
        # eliminated variable (both are purged below, every step).
        fresh = var_adj[v]
        absorbed = var_elems[v]
        le = fresh.union(*[elem_vars[e] for e in absorbed])
        le.discard(v)
        var_adj[v] = set()
        var_elems[v] = set()

        # absorb adjacent elements (each holds v too: its entries were
        # just reset and are never read again)
        for e in absorbed:
            reach = elem_reach[e]
            for u in elem_vars[e]:
                var_elems[u].discard(e)
                reach_sum[u] -= reach
            elem_vars[e] = set()

        if not le:
            continue
        # reuse the variable index as the element id
        elem_vars[v] = le
        elem_reach[v] = reach = len(le) - 1
        # Explicit edges inside Le are now represented by the element.
        # Two variables of one absorbed element lost theirs when it was
        # formed, so with a single absorbed element only v's explicit
        # neighbours can still carry one. ``&`` scans the smaller set.
        for u in (fresh if len(absorbed) == 1 else le):
            adj = var_adj[u]
            adj.discard(v)
            inside = adj & le
            if inside:
                adj -= inside
                for w in inside:
                    var_adj[w].discard(u)
        cap = n - step - 1
        for u in le:
            var_elems[u].add(v)
            reach_sum[u] += reach
            # approximate external degree
            d_u = len(var_adj[u]) + reach_sum[u]
            if d_u > cap:
                d_u = cap
            if d_u != degree[u]:
                degree[u] = d_u
                heappush(heap, (d_u, u))
    return np.array(order, dtype=np.int64)


def permute_symmetric(A: sp.spmatrix, order: np.ndarray) -> sp.csr_matrix:
    """Symmetric permutation ``A[order][:, order]`` in canonical CSR."""
    A = check_csr(A)
    check_square(A)
    P = A[order][:, order].tocsr()
    P.sum_duplicates()
    P.sort_indices()
    return P
