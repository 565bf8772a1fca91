"""Multilevel graph bisection: the shared V-cycle
(:func:`repro.utils.multilevel.bisect`) over heavy-edge matching, BFS
growth or a random balanced fill, and edge-cut FM. Asymmetric target
fractions let recursive dissection make non-power-of-two part counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.coarsen import contract, heavy_edge_matching
from repro.graphs.fm import fm_refine_bisection
from repro.graphs.graph import Graph
from repro.utils import SeedLike, fraction, multilevel, rng_from

__all__ = ["BisectionResult", "bisect_graph", "greedy_bfs_bisection"]


@dataclass(frozen=True)
class BisectionResult:
    """A 0/1 side assignment with its cut weight and side weights."""

    side: np.ndarray
    cut: int
    part_weights: tuple[int, int]

    @property
    def imbalance(self) -> float:
        """(Wmax - Wavg) / Wavg as in Eq. (6) of the paper."""
        wavg = sum(self.part_weights) / 2.0
        return (max(self.part_weights) - wavg) / wavg if wavg else 0.0


def greedy_bfs_bisection(g: Graph, target0: float, seed: SeedLike = None) -> np.ndarray:
    """Grow side 0 by BFS from a random seed until it holds ``target0``
    of the total vertex weight; remaining vertices form side 1."""
    rng = rng_from(seed)
    n = g.n_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    goal = target0 * g.total_vertex_weight
    side = np.ones(n, dtype=np.int64)
    neighbors, _, vw = g.lists
    start = int(rng.integers(n))
    acc = 0
    queue = [start]
    head = 0
    seen = bytearray(n)
    seen[start] = 1
    while acc < goal:
        if head >= len(queue):
            rest = np.flatnonzero(np.frombuffer(seen, dtype=np.uint8) == 0)
            if rest.size == 0:
                break
            nxt = int(rest[rng.integers(rest.size)])
            seen[nxt] = 1
            queue.append(nxt)
        v = queue[head]
        if acc + vw[v] > goal and acc > 0:
            break
        head += 1
        acc += vw[v]
        for u in neighbors[v]:
            if not seen[u]:
                seen[u] = 1
                queue.append(u)
    side[queue[:head]] = 0
    return side


def _random_balanced(g: Graph, target0: float,
                     seed: SeedLike = None) -> np.ndarray:
    """Random assignment filling side 0 to the target weight."""
    rng = rng_from(seed)
    order = rng.permutation(g.n_vertices)
    return multilevel.fill_side0(order, g.vertex_weights,
                                 target0 * g.total_vertex_weight)


def _score(g: Graph, side: np.ndarray) -> BisectionResult:
    pw = np.zeros(2, dtype=np.int64)
    np.add.at(pw, side, g.vertex_weights)
    return BisectionResult(side, g.edge_cut(side), tuple(pw.tolist()))


GRAPH = multilevel.Engine(match=heavy_edge_matching, contract=contract,
                          grow=greedy_bfs_bisection, fill=_random_balanced,
                          refine=fm_refine_bisection, score=_score)


def bisect_graph(g: Graph, *, epsilon: float = 0.05, target0: float = 0.5,
                 seed: SeedLike = None, n_trials: int = 4,
                 coarsen_min: int = 96, fm_passes: int = 8) -> BisectionResult:
    """Multilevel bisection of ``g`` into sides with weight fractions
    ``(target0, 1 - target0)`` within tolerance ``epsilon``.

    Returns the best :class:`BisectionResult` over ``n_trials``
    independent initial partitions (:func:`repro.utils.multilevel.bisect`).
    """
    epsilon = fraction(epsilon, "epsilon", lo=0.0, hi=1.0)
    target0 = fraction(target0, "target0", lo=0.05, hi=0.95)
    total = g.total_vertex_weight
    caps = ((1.0 + epsilon) * target0 * total,
            (1.0 + epsilon) * (1.0 - target0) * total)
    # cap coarse-vertex growth so balance stays achievable
    max_cw = max(1, int(np.ceil(max(caps) / 8)))
    return multilevel.bisect(GRAPH, g, caps, max_weight=max_cw,
                             target0=target0, seed=seed, n_trials=n_trials,
                             coarsen_min=coarsen_min, fm_passes=fm_passes)
