"""Fiduccia-Mattheyses refinement for graph bisections (edge cut).

Single-vertex moves with a lazy max-gain queue, one-move-per-vertex
locking per pass, negative-gain hill climbing with rollback to the best
prefix, and a hard balance ceiling per side. Used by the multilevel
bisector at every uncoarsening level.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils import as_int_array
from repro.utils.multilevel import GainQueue

__all__ = ["fm_refine_bisection", "compute_gains"]


def compute_gains(g: Graph, side: np.ndarray) -> np.ndarray:
    """FM gain of moving each vertex to the other side:
    (external edge weight) - (internal edge weight). Vectorized over the
    adjacency arrays."""
    n = g.n_vertices
    gains = np.zeros(n, dtype=np.int64)
    if g.indices.size == 0:
        return gains
    src = np.repeat(np.arange(n), np.diff(g.indptr))
    # accumulate in int64: np.bincount(weights=...) sums in float64,
    # which silently rounds once edge weights exceed 2^53
    np.add.at(gains, src,
              np.where(side[src] != side[g.indices], g.edge_weights,
                       -g.edge_weights))
    return gains


def fm_refine_bisection(g: Graph, side: np.ndarray,
                        max_part_weight: float | tuple[float, float],
                        max_passes: int = 8, *,
                        stall_limit: int = 200) -> tuple[np.ndarray, int]:
    """Refine a 0/1 ``side`` assignment in place-semantics (returns a copy).

    Parameters
    ----------
    max_part_weight:
        Hard ceiling on each side's total vertex weight — a scalar
        (same for both) or a pair ``(cap0, cap1)`` for asymmetric
        targets. Moves that would exceed the destination cap are skipped
        (unless the source side itself exceeds its cap, in which case
        outbound moves are allowed to restore feasibility).
    stall_limit:
        Abort a pass after this many consecutive non-improving moves.

    Returns
    -------
    (refined side array, final cut weight)
    """
    side = as_int_array(side, "side").copy()
    n = g.n_vertices
    if side.shape != (n,):
        raise ValueError("side must have one entry per vertex")
    caps = np.broadcast_to(np.asarray(max_part_weight, dtype=np.float64),
                           (2,)).copy()
    # side / part_weight stay arrays from pass to pass; a pass works
    # on list copies and only its kept prefix is applied back (see the
    # hypergraph FM)
    part_weight = np.zeros(2, dtype=np.int64)
    np.add.at(part_weight, side, g.vertex_weights)
    cut = g.edge_cut(side)
    neighbors, edge_weights, vw = g.lists
    caps_l = caps.tolist()

    for _ in range(max_passes):
        queue = GainQueue(compute_gains(g, side))
        gains, locked = queue.gains, queue.locked
        side_l = side.tolist()
        pw = part_weight.tolist()
        best_cut, cur_cut = cut, cut
        trail: list[int] = []  # moved vertices, in order
        best_len = 0
        stall = 0
        while stall < stall_limit:
            v = queue.pop()
            if v < 0:
                break
            src = side_l[v]
            dst = 1 - src
            wv = vw[v]
            if pw[dst] + wv > caps_l[dst] and pw[src] <= caps_l[src]:
                continue  # infeasible: discarded, not re-queued
            # apply move
            locked[v] = 1
            side_l[v] = dst
            pw[src] -= wv
            pw[dst] += wv
            cur_cut -= gains[v]
            gains[v] = -gains[v]
            trail.append(v)
            touched = []
            for u, ew in zip(neighbors[v], edge_weights[v]):
                if locked[u]:
                    continue
                # edge (v,u): v changed sides, so the contribution of this
                # edge to gain(u) flips by 2*ew in the appropriate direction
                gains[u] += 2 * ew if side_l[u] == src else -2 * ew
                touched.append(u)
            queue.push(touched)
            if cur_cut < best_cut:
                best_cut = cur_cut
                best_len = len(trail)
                stall = 0
            else:
                stall += 1
        if best_cut >= cut:
            break
        cut = best_cut
        kept = np.asarray(trail[:best_len], dtype=np.int64)
        moved_from = side[kept]
        np.subtract.at(part_weight, moved_from, g.vertex_weights[kept])
        np.add.at(part_weight, 1 - moved_from, g.vertex_weights[kept])
        side[kept] = 1 - moved_from
    return side, cut
