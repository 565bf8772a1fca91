"""Multilevel graph bisection.

Pipeline: heavy-edge-matching coarsening -> initial-partition portfolio
on the coarsest graph (greedy BFS growth from pseudo-peripheral seeds +
random balanced assignments) -> FM refinement at every level during
uncoarsening. Supports asymmetric target fractions so recursive
dissection can produce non-power-of-two part counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.coarsen import coarsen
from repro.graphs.fm import fm_refine_bisection
from repro.graphs.graph import Graph
from repro.utils import SeedLike, fraction, rng_from, spawn
from repro.utils.multilevel import fill_side0

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


def _side_weights(g: Graph, side: np.ndarray) -> tuple[int, int]:
    pw = np.zeros(2, dtype=np.int64)
    np.add.at(pw, side, g.vertex_weights)
    return int(pw[0]), int(pw[1])


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
    return fill_side0(order, g.vertex_weights,
                      target0 * g.total_vertex_weight)


def bisect_graph(g: Graph, *, epsilon: float = 0.05, target0: float = 0.5,
                 seed: SeedLike = None, n_trials: int = 4,
                 coarsen_min: int = 96, fm_passes: int = 8) -> BisectionResult:
    """Multilevel bisection of ``g`` into sides with weight fractions
    ``(target0, 1 - target0)`` within tolerance ``epsilon``.

    Returns the best :class:`BisectionResult` over ``n_trials``
    independent initial partitions.
    """
    epsilon = fraction(epsilon, "epsilon", lo=0.0, hi=1.0)
    target0 = fraction(target0, "target0", lo=0.05, hi=0.95)
    rng = rng_from(seed)
    total = g.total_vertex_weight
    caps = ((1.0 + epsilon) * target0 * total,
            (1.0 + epsilon) * (1.0 - target0) * total)
    # cap coarse-vertex growth so balance stays achievable
    max_cw = max(1, int(np.ceil(max(caps) / 8)))
    levels = coarsen(g, min_vertices=coarsen_min, seed=rng, max_weight=max_cw)
    coarsest = levels[-1].graph if levels else g

    best: BisectionResult | None = None
    for child in spawn(rng, max(1, n_trials)):
        if child.random() < 0.5 or coarsest.n_vertices < 4:
            side = greedy_bfs_bisection(coarsest, target0, child)
        else:
            side = _random_balanced(coarsest, target0, child)
        side, _ = fm_refine_bisection(coarsest, side, max_part_weight=caps,
                                      max_passes=fm_passes)
        # uncoarsen with refinement at each level
        for i in range(len(levels) - 1, -1, -1):
            side = levels[i].project(side)
            fine_graph = g if i == 0 else levels[i - 1].graph
            side, _ = fm_refine_bisection(fine_graph, side,
                                          max_part_weight=caps,
                                          max_passes=fm_passes)
        cut = g.edge_cut(side)
        pw = _side_weights(g, side)
        cand = BisectionResult(side=side, cut=cut, part_weights=pw)
        if best is None or _better(cand, best, caps):
            best = cand
    assert best is not None
    return best


def _better(a: BisectionResult, b: BisectionResult,
            caps: tuple[float, float]) -> bool:
    """Prefer feasible partitions, then lower cut, then better balance."""
    fa = a.part_weights[0] <= caps[0] and a.part_weights[1] <= caps[1]
    fb = b.part_weights[0] <= caps[0] and b.part_weights[1] <= caps[1]
    if fa != fb:
        return fa
    if a.cut != b.cut:
        return a.cut < b.cut
    return max(a.part_weights) < max(b.part_weights)
