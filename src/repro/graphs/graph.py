"""Undirected weighted graph on CSR adjacency.

The NGD baseline (PT-Scotch style) operates on the adjacency graph of
the symmetrized matrix. :class:`Graph` stores vertex weights (used by
balance constraints), edge weights (accumulated by coarsening), and a
CSR adjacency without self-loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.sparse.symmetrize import symmetrized
from repro.utils import as_int_array, check_csr, check_square
from repro.utils.multilevel import concat_ranges, csr_lists

__all__ = ["Graph", "GraphLists"]


class GraphLists(NamedTuple):
    """A graph as plain Python lists, for the sequential kernels (FM
    moves, matching) that touch one edge at a time."""

    neighbors: list[list[int]]
    edge_weights: list[list[int]]
    vertex_weights: list[int]


@dataclass
class Graph:
    """Undirected graph in CSR form.

    Attributes
    ----------
    indptr, indices:
        CSR adjacency (each undirected edge appears in both rows).
    edge_weights:
        Weight per stored (directed) adjacency entry; symmetric.
    vertex_weights:
        Integer weight per vertex (>= 1).
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_weights: np.ndarray
    vertex_weights: np.ndarray
    _lists: GraphLists | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        self.indptr = as_int_array(self.indptr, "indptr")
        self.indices = as_int_array(self.indices, "indices")
        self.edge_weights = np.ascontiguousarray(self.edge_weights, dtype=np.int64)
        self.vertex_weights = as_int_array(self.vertex_weights, "vertex_weights")
        n = self.n_vertices
        if self.indptr.size != n + 1:
            raise ValueError("indptr length must be n_vertices + 1")
        if self.indices.size != self.indptr[-1]:
            raise ValueError("indices length must equal indptr[-1]")
        if self.edge_weights.size != self.indices.size:
            raise ValueError("edge_weights must parallel indices")

    @property
    def n_vertices(self) -> int:
        return self.vertex_weights.size

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @property
    def total_vertex_weight(self) -> int:
        return int(self.vertex_weights.sum())

    @property
    def lists(self) -> GraphLists:
        """Python-list form, built on first use and shared by every FM
        call and matching on this graph; dropped on pickling."""
        if self._lists is None:
            self._lists = GraphLists(
                neighbors=csr_lists(self.indptr, self.indices),
                edge_weights=csr_lists(self.indptr, self.edge_weights),
                vertex_weights=self.vertex_weights.tolist())
        return self._lists

    def __getstate__(self) -> dict:
        # without the lists; the class default (None) stands in after load
        state = self.__dict__.copy()
        state.pop("_lists", None)
        return state

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @classmethod
    def from_matrix(cls, A: sp.spmatrix,
                    vertex_weights: np.ndarray | None = None) -> "Graph":
        """Adjacency graph of ``|A| + |A|^T`` with self-loops removed.

        Edge weights count the (symmetrized) structural multiplicity so
        heavy-edge matching prefers strongly coupled vertex pairs.
        """
        A = check_csr(A)
        check_square(A)
        S = symmetrized(A).tocoo()
        keep = S.row != S.col
        n = A.shape[0]
        Adj = sp.csr_matrix((np.ones(keep.sum(), dtype=np.int64),
                             (S.row[keep], S.col[keep])), shape=(n, n))
        Adj.sum_duplicates()
        Adj.sort_indices()
        vw = (np.ones(n, dtype=np.int64) if vertex_weights is None
              else as_int_array(vertex_weights, "vertex_weights"))
        if vw.size != n:
            raise ValueError("vertex_weights length mismatch")
        return cls(Adj.indptr, Adj.indices,
                   Adj.data.astype(np.int64), vw)

    def to_matrix(self) -> sp.csr_matrix:
        """CSR adjacency matrix with edge weights as values."""
        n = self.n_vertices
        return sp.csr_matrix((self.edge_weights.astype(np.float64),
                              self.indices.copy(), self.indptr.copy()),
                             shape=(n, n))

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph; returns (subgraph, original-index map)."""
        vertices = as_int_array(vertices, "vertices")
        n = self.n_vertices
        local = np.full(n, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.size)
        degrees = np.diff(self.indptr)[vertices]
        edges = concat_ranges(self.indptr[vertices], degrees)
        targets = local[self.indices[edges]]
        keep = targets >= 0
        owner = np.repeat(np.arange(vertices.size), degrees)
        sub_indptr = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[keep], minlength=vertices.size),
                  out=sub_indptr[1:])
        g = Graph(sub_indptr, targets[keep], self.edge_weights[edges][keep],
                  self.vertex_weights[vertices].copy())
        return g, vertices.copy()

    def connected_components(self) -> np.ndarray:
        """Component label per vertex (BFS)."""
        n = self.n_vertices
        label = np.full(n, -1, dtype=np.int64)
        comp = 0
        for s in range(n):
            if label[s] >= 0:
                continue
            label[s] = comp
            stack = [s]
            while stack:
                u = stack.pop()
                for p in range(self.indptr[u], self.indptr[u + 1]):
                    w = self.indices[p]
                    if label[w] < 0:
                        label[w] = comp
                        stack.append(int(w))
            comp += 1
        return label

    def edge_cut(self, side: np.ndarray) -> int:
        """Total weight of edges crossing a 0/1 side assignment."""
        side = as_int_array(side, "side")
        src = np.repeat(np.arange(self.n_vertices), np.diff(self.indptr))
        crossing = side[src] != side[self.indices]
        return int(self.edge_weights[crossing].sum()) // 2
