"""Multilevel graph coarsening by heavy-edge matching.

Standard METIS-style HEM: visit vertices in random order, match each
unmatched vertex with the unmatched neighbour sharing the heaviest edge
(ties to lower index); unmatched vertices map to singleton coarse
vertices. Vertex weights add; parallel coarse edges accumulate weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.utils import SeedLike, rng_from
from repro.utils.multilevel import fine_to_coarse_map

__all__ = ["CoarseLevel", "heavy_edge_matching", "contract", "coarsen"]


@dataclass
class CoarseLevel:
    """One coarsening step: the coarse graph and the fine->coarse map."""

    graph: Graph
    fine_to_coarse: np.ndarray

    def project(self, coarse_side: np.ndarray) -> np.ndarray:
        """Lift a per-coarse-vertex label to the fine vertices."""
        return coarse_side[self.fine_to_coarse]


def heavy_edge_matching(g: Graph, seed: SeedLike = None,
                        max_weight: int | None = None) -> np.ndarray:
    """Return ``match`` with ``match[v]`` = matched partner (or v itself).

    ``max_weight`` caps the combined vertex weight of a matched pair so
    coarse vertices cannot grow past the balance tolerance.
    """
    rng = rng_from(seed)
    n = g.n_vertices
    match = [-1] * n
    neighbors, edge_weights, vw = g.lists
    for v in rng.permutation(n).tolist():
        if match[v] >= 0:
            continue
        best, best_w = v, -1
        for u, w in zip(neighbors[v], edge_weights[v]):
            if match[u] >= 0 or u == v:
                continue
            if max_weight is not None and vw[v] + vw[u] > max_weight:
                continue
            if w > best_w or (w == best_w and u < best):
                best, best_w = u, w
        match[v] = best
        match[best] = v
    return np.asarray(match, dtype=np.int64)


def contract(g: Graph, match: np.ndarray) -> CoarseLevel:
    """Contract matched pairs into coarse vertices."""
    n = g.n_vertices
    fine_to_coarse, nc = fine_to_coarse_map(np.asarray(match, dtype=np.int64))
    # coarse vertex weights
    cvw = np.zeros(nc, dtype=np.int64)
    np.add.at(cvw, fine_to_coarse, g.vertex_weights)
    # coarse adjacency via sparse contraction: P^T A P with P the map
    A = g.to_matrix()
    P = sp.csr_matrix((np.ones(n, dtype=np.int64),
                       (np.arange(n), fine_to_coarse)), shape=(n, nc))
    C = (P.T @ A @ P).tocoo()
    keep = C.row != C.col
    Cadj = sp.csr_matrix((C.data[keep], (C.row[keep], C.col[keep])),
                         shape=(nc, nc))
    Cadj.sum_duplicates()
    Cadj.sort_indices()
    cg = Graph(Cadj.indptr, Cadj.indices,
               Cadj.data.astype(np.int64), cvw)
    return CoarseLevel(graph=cg, fine_to_coarse=fine_to_coarse)


def coarsen(g: Graph, *, min_vertices: int = 64, max_levels: int = 40,
            reduction_floor: float = 0.95, seed: SeedLike = None,
            max_weight: int | None = None) -> list[CoarseLevel]:
    """Repeatedly match-and-contract until the graph is small.

    Stops when the graph has at most ``min_vertices`` vertices, a level
    shrinks by less than ``1 - reduction_floor``, or ``max_levels`` is
    reached. Returns the list of levels, finest first (empty when no
    coarsening happened).
    """
    rng = rng_from(seed)
    levels: list[CoarseLevel] = []
    cur = g
    for _ in range(max_levels):
        if cur.n_vertices <= min_vertices:
            break
        match = heavy_edge_matching(cur, rng, max_weight=max_weight)
        level = contract(cur, match)
        if level.graph.n_vertices >= reduction_floor * cur.n_vertices:
            break
        levels.append(level)
        cur = level.graph
    return levels
