"""Multilevel hypergraph bisection: the shared V-cycle
(:func:`repro.utils.multilevel.bisect`) over heavy-connectivity
matching, BFS net-expansion growth or a random balanced fill, and
multi-constraint FM. Supports:

- multi-constraint vertex weights with per-side caps;
- asymmetric target fractions (for non-power-of-two recursion);
- optional *exact* vertex-count quotas (`quota0`), used by the sparse
  right-hand-side reordering of Section IV-B where every part must hold
  exactly ``B`` columns (paper sets the imbalance to zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.hypergraph.coarsen import (
    contract_hypergraph,
    heavy_connectivity_matching,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.refine import (
    bisection_cut,
    enforce_exact_quota,
    fm_refine_hypergraph,
)
from repro.utils import SeedLike, fraction, multilevel, rng_from

__all__ = ["HBisectionResult", "bisect_hypergraph"]


@dataclass(frozen=True)
class HBisectionResult:
    """0/1 side assignment with cut cost and per-side weights (2, C)."""

    side: np.ndarray
    cut: int
    part_weights: np.ndarray


def _grow_bfs(H: Hypergraph, target0: float, seed: SeedLike) -> np.ndarray:
    """Grow side 0 from a random seed vertex by net expansion."""
    rng = rng_from(seed)
    n = H.n_vertices
    side = np.ones(n, dtype=np.int64)
    if n == 0:
        return side
    vertex_nets, net_pins, _, vw = H.lists
    # balance on the first constraint (the primary one)
    goal = target0 * max(1, int(H.vertex_weights[:, 0].sum()))
    start = int(rng.integers(n))
    seen = bytearray(n)
    seen[start] = 1
    queue = [start]
    head = 0
    acc = 0
    while acc < goal:
        if head >= len(queue):
            rest = np.flatnonzero(np.frombuffer(seen, dtype=np.uint8) == 0)
            if rest.size == 0:
                break
            nxt = int(rest[rng.integers(rest.size)])
            seen[nxt] = 1
            queue.append(nxt)
        v = queue[head]
        head += 1
        acc += vw[v][0]
        for j in vertex_nets[v]:
            pins = net_pins[j]
            if len(pins) > 500:
                continue
            for u in pins:
                if not seen[u]:
                    seen[u] = 1
                    queue.append(u)
    side[queue[:head]] = 0
    return side


def _random_balanced(H: Hypergraph, target0: float, seed: SeedLike) -> np.ndarray:
    rng = rng_from(seed)
    order = rng.permutation(H.n_vertices)
    w = H.vertex_weights[:, 0]
    return multilevel.fill_side0(order, w, target0 * max(1, int(w.sum())))


def _score(H: Hypergraph, side: np.ndarray) -> HBisectionResult:
    W = np.zeros((2, H.n_constraints), dtype=np.int64)
    np.add.at(W, side, H.vertex_weights)
    return HBisectionResult(side=side, cut=bisection_cut(H, side),
                            part_weights=W)


HYPERGRAPH = multilevel.Engine(
    match=heavy_connectivity_matching, contract=contract_hypergraph,
    grow=_grow_bfs, fill=_random_balanced, refine=fm_refine_hypergraph,
    score=_score)


def bisect_hypergraph(H: Hypergraph, *, epsilon: float = 0.05,
                      target0: float = 0.5, seed: SeedLike = None,
                      n_trials: int = 4, coarsen_min: int = 96,
                      fm_passes: int = 8,
                      quota0: int | None = None,
                      backend=None) -> HBisectionResult:
    """Multilevel bisection of ``H`` (:func:`repro.utils.multilevel.bisect`).

    Parameters
    ----------
    epsilon:
        Per-constraint allowed imbalance, Eq. (6).
    target0:
        Weight fraction destined for side 0 (first constraint; remaining
        constraints use the same fraction).
    quota0:
        If given, side 0 must contain exactly this many vertices
        (unit-weight use case); enforced after refinement.
    backend:
        Optional :class:`repro.parallel.exec.Executor`; a non-inline one
        runs the trials concurrently, bit-identical to the serial loop.
    """
    epsilon = fraction(epsilon, "epsilon")
    target0 = fraction(target0, "target0", lo=0.02, hi=0.98)
    totals = H.total_weight().astype(np.float64)
    caps = np.vstack([(1.0 + epsilon) * target0 * totals,
                      (1.0 + epsilon) * (1.0 - target0) * totals])
    max_cw = np.maximum(1, np.ceil(caps.max(axis=0) / 8.0)).astype(np.int64)
    best = multilevel.bisect(
        HYPERGRAPH, H, caps, max_weight=max_cw, target0=target0, seed=seed,
        n_trials=n_trials, coarsen_min=coarsen_min, fm_passes=fm_passes,
        finish=None if quota0 is None else partial(enforce_exact_quota,
                                                   quota0=quota0),
        backend=backend)
    # the list forms die with the level they belong to: the coarse
    # levels are gone by now, the caller's H outlives the call
    H.drop_lists()
    return best
