"""Multilevel graph coarsening by heavy-edge matching.

Standard METIS-style HEM: visit vertices in random order, match each
unmatched vertex with the unmatched neighbour sharing the heaviest edge
(ties to lower index); unmatched vertices map to singleton coarse
vertices. Vertex weights add; parallel coarse edges accumulate weight.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.utils import SeedLike, multilevel, rng_from
from repro.utils.multilevel import Level, fine_to_coarse_map

__all__ = ["heavy_edge_matching", "contract", "coarsen"]


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


def contract(g: Graph, match: np.ndarray) -> Level:
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
    return Level(cg, fine_to_coarse)


def coarsen(g: Graph, *, min_vertices: int = 64, **stop) -> list[Level]:
    """:func:`repro.utils.multilevel.coarsen` by heavy-edge matching."""
    return multilevel.coarsen(g, heavy_edge_matching, contract,
                              min_vertices=min_vertices, **stop)
