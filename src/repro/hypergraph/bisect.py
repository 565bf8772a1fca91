"""Multilevel hypergraph bisection.

Coarsen by heavy-connectivity matching, build an initial bisection on
the coarsest hypergraph (BFS net-expansion growth and random balanced
assignments), refine with FM during uncoarsening. Supports:

- multi-constraint vertex weights with per-side caps;
- asymmetric target fractions (for non-power-of-two recursion);
- optional *exact* vertex-count quotas (`quota0`), used by the sparse
  right-hand-side reordering of Section IV-B where every part must hold
  exactly ``B`` columns (paper sets the imbalance to zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.hypergraph.coarsen import coarsen_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.refine import (
    _side_counts,
    bisection_cut,
    fm_refine_hypergraph,
    hypergraph_gains,
)
from repro.resilience.errors import WorkerCrashError
from repro.utils import SeedLike, fraction, rng_from, spawn
from repro.utils.multilevel import fill_side0

__all__ = ["HBisectionResult", "bisect_hypergraph", "enforce_exact_quota"]


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
    return fill_side0(order, w, target0 * max(1, int(w.sum())))


def enforce_exact_quota(H: Hypergraph, side: np.ndarray, quota0: int) -> np.ndarray:
    """Move minimum-damage vertices across the cut until side 0 holds
    exactly ``quota0`` vertices.

    Vertices are chosen by FM gain (highest gain first), so the repair
    degrades the cut as little as possible. Used with unit weights.
    """
    side = side.copy()
    count0 = int(np.count_nonzero(side == 0))
    if count0 == quota0:
        return side
    src = 0 if count0 > quota0 else 1
    deficit = abs(count0 - quota0)
    gains = hypergraph_gains(H, side, _side_counts(H, side))
    candidates = np.flatnonzero(side == src)
    order = candidates[np.argsort(-gains[candidates], kind="stable")]
    side[order[:deficit]] = 1 - src
    return side


@dataclass
class _TrialTask:
    """The bisection trials one worker runs: the multilevel state plus
    one pre-drawn child generator per trial, so the trials are a pure
    function of the payload and run identically on any execution
    backend."""

    H: Hypergraph
    levels: List
    caps: np.ndarray
    target0: float
    fm_passes: int
    quota0: Optional[int]
    rngs: List[np.random.Generator]


def _run_trials(task: _TrialTask) -> List[HBisectionResult]:
    return [_run_trial(task, child) for child in task.rngs]


def _run_trial(task: _TrialTask,
               child: np.random.Generator) -> HBisectionResult:
    """One initial-bisection + uncoarsening-refinement trial."""
    H, levels, caps = task.H, task.levels, task.caps
    coarsest = levels[-1].hypergraph if levels else H
    if child.random() < 0.5 or coarsest.n_vertices < 4:
        side = _grow_bfs(coarsest, task.target0, child)
    else:
        side = _random_balanced(coarsest, task.target0, child)
    side, _ = fm_refine_hypergraph(coarsest, side, caps=caps,
                                   max_passes=task.fm_passes)
    for i in range(len(levels) - 1, -1, -1):
        side = levels[i].project(side)
        fine_H = H if i == 0 else levels[i - 1].hypergraph
        side, _ = fm_refine_hypergraph(fine_H, side, caps=caps,
                                       max_passes=task.fm_passes)
    if task.quota0 is not None:
        side = enforce_exact_quota(H, side, task.quota0)
    cut = bisection_cut(H, side)
    W = np.zeros((2, H.n_constraints), dtype=np.int64)
    np.add.at(W, side, H.vertex_weights)
    return HBisectionResult(side=side, cut=cut, part_weights=W)


def bisect_hypergraph(H: Hypergraph, *, epsilon: float = 0.05,
                      target0: float = 0.5, seed: SeedLike = None,
                      n_trials: int = 4, coarsen_min: int = 96,
                      fm_passes: int = 8,
                      quota0: int | None = None,
                      backend=None) -> HBisectionResult:
    """Multilevel bisection of ``H``.

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
        Optional :class:`repro.parallel.exec.Executor`; a non-inline
        backend runs the trials concurrently. Each trial owns a
        pre-drawn child generator and the winner is reduced in trial
        order, so the result is bit-identical to the serial loop.
    """
    epsilon = fraction(epsilon, "epsilon")
    target0 = fraction(target0, "target0", lo=0.02, hi=0.98)
    rng = rng_from(seed)
    totals = H.total_weight().astype(np.float64)
    caps = np.vstack([(1.0 + epsilon) * target0 * totals,
                      (1.0 + epsilon) * (1.0 - target0) * totals])
    max_cw = np.maximum(1, np.ceil(caps.max(axis=0) / 8.0)).astype(np.int64)
    levels = coarsen_hypergraph(H, min_vertices=coarsen_min, seed=rng,
                                max_weight=max_cw)

    children = spawn(rng, max(1, n_trials))
    # one task per worker, not per trial: every task pickles the whole
    # multilevel state, and its worker builds the list forms once
    per_task = 1
    if backend is not None and not backend.inline:
        per_task = -(-len(children) // backend.workers)
    tasks = [_TrialTask(H=H, levels=levels, caps=caps, target0=target0,
                        fm_passes=fm_passes, quota0=quota0,
                        rngs=children[i:i + per_task])
             for i in range(0, len(children), per_task)]
    results: List[HBisectionResult] = []
    if backend is not None and not backend.inline and len(children) > 1:
        for task, out in zip(tasks, backend.map(_run_trials, tasks)):
            if isinstance(out.error, WorkerCrashError):
                # the shipped generators were pickled copies, so the
                # parent's are still pristine: rerun inline, bit-identical
                results.extend(_run_trials(task))
            elif out.error is not None:
                raise out.error
            else:
                results.extend(out.value)
    else:
        for task in tasks:
            results.extend(_run_trials(task))

    # the list forms die with the level they belong to: the coarse
    # levels go out of scope here, the caller's H outlives the call
    H.drop_lists()

    best: HBisectionResult | None = None
    for cand in results:
        if best is None or _better(cand, best, caps):
            best = cand
    assert best is not None
    return best


def _better(a: HBisectionResult, b: HBisectionResult, caps: np.ndarray) -> bool:
    fa = bool(np.all(a.part_weights <= caps))
    fb = bool(np.all(b.part_weights <= caps))
    if fa != fb:
        return fa
    if a.cut != b.cut:
        return a.cut < b.cut
    return a.part_weights.max() < b.part_weights.max()
