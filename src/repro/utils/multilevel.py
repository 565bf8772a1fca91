"""The multilevel V-cycle of both bisectors (``repro.hypergraph`` and
``repro.graphs``), written once, and the small kernels both need. An
:class:`Engine` holds what differs between the two models: matching,
contraction, BFS growth, the random balanced fill, FM and scoring.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from repro.utils.prng import SeedLike, rng_from, spawn

__all__ = ["Level", "Engine", "coarsen", "TrialTask", "run_trials", "rank",
           "bisect", "GainQueue", "concat_ranges", "csr_lists",
           "fine_to_coarse_map", "fill_side0"]


class Level(NamedTuple):
    """One coarsening step: the coarse (hyper)graph, fine->coarse map."""

    coarse: Any
    fine_to_coarse: np.ndarray

    def project(self, coarse_side: np.ndarray) -> np.ndarray:
        """Lift a per-coarse-vertex label to the fine vertices."""
        return coarse_side[self.fine_to_coarse]


class Engine(NamedTuple):
    """One model's pieces, called as in :func:`coarsen` / :func:`run_trials`
    (module-level functions, so an engine pickles by reference)."""

    match: Callable
    contract: Callable
    grow: Callable
    fill: Callable
    refine: Callable
    score: Callable


def coarsen(fine, match: Callable, contract: Callable, *,
            min_vertices: int = 96, max_levels: int = 40,
            reduction_floor: float = 0.95, seed: SeedLike = None,
            max_weight=None) -> list[Level]:
    """Match and contract until at most ``min_vertices`` vertices are
    left, a level shrinks by less than ``1 - reduction_floor``, or
    ``max_levels`` levels exist; finest first (empty: no coarsening)."""
    rng = rng_from(seed)
    levels: list[Level] = []
    cur = fine
    for _ in range(max_levels):
        if cur.n_vertices <= min_vertices:
            break
        level = contract(cur, match(cur, rng, max_weight=max_weight))
        if level.coarse.n_vertices >= reduction_floor * cur.n_vertices:
            break
        levels.append(level)
        cur = level.coarse
    return levels


class TrialTask(NamedTuple):
    """The trials one worker runs: the multilevel state plus one
    pre-drawn generator per trial, so they run alike on any backend."""

    fine: Any
    levels: list
    rngs: list


def run_trials(engine: Engine, caps, target0: float, passes: int,
               finish: Callable | None, task: TrialTask) -> list:
    """One V-cycle per generator of ``task``: initial side and FM on the
    coarsest level, FM after every projection, ``finish``, score."""
    levels = task.levels
    coarsest = levels[-1].coarse if levels else task.fine
    out = []
    for child in task.rngs:
        initial = engine.grow if child.random() < 0.5 \
            or coarsest.n_vertices < 4 else engine.fill
        side, _ = engine.refine(coarsest, initial(coarsest, target0, child),
                                caps, passes)
        for i in range(len(levels) - 1, -1, -1):
            fine = task.fine if i == 0 else levels[i - 1].coarse
            side, _ = engine.refine(fine, levels[i].project(side), caps,
                                    passes)
        if finish is not None:
            side = finish(task.fine, side)
        out.append(engine.score(task.fine, side))
    return out


def rank(result, caps) -> tuple:
    """Best-of-trials order, smallest first: within every cap, then the
    lower cut, then the lighter heaviest side."""
    w = np.ravel(result.part_weights).tolist()
    over = any(x > c for x, c in zip(w, np.ravel(caps).tolist()))
    return over, result.cut, max(w)


def bisect(engine: Engine, fine, caps, *, max_weight, target0: float,
           seed: SeedLike, n_trials: int, coarsen_min: int, fm_passes: int,
           finish: Callable | None = None, backend=None):
    """The best of ``n_trials`` V-cycles over one coarsening of ``fine``.
    Draws from ``seed`` in a fixed order (coarsening, then one child per
    trial) and reduces in trial order, so a non-inline ``backend`` (one
    task per worker) returns the same bits as inline."""
    rng = rng_from(seed)
    levels = coarsen(fine, engine.match, engine.contract,
                     min_vertices=coarsen_min, seed=rng, max_weight=max_weight)
    children = spawn(rng, max(1, n_trials))
    run = partial(run_trials, engine, caps, target0, fm_passes, finish)
    pooled = backend is not None and not backend.inline and len(children) > 1
    # one task per worker, not per trial: every task pickles the whole
    # multilevel state, and its worker builds the list forms once
    per_task = -(-len(children) // (backend.workers if pooled else 1))
    tasks = [TrialTask(fine, levels, children[i:i + per_task])
             for i in range(0, len(children), per_task)]
    results = [] if pooled else run(tasks[0])
    if pooled:
        # repro.utils sits below repro.resilience: import on use
        from repro.resilience.errors import WorkerCrashError
        for task, out in zip(tasks, backend.map(run, tasks)):
            if isinstance(out.error, WorkerCrashError):
                # the shipped generators were pickled copies, so the
                # parent's are still pristine: rerun inline, bit-identical
                results.extend(run(task))
            elif out.error is not None:
                raise out.error
            else:
                results.extend(out.value)
    return min(results, key=partial(rank, caps=caps))


class GainQueue:
    """Max-gain vertex queue of one FM pass, lowest index first on ties.

    Pops in exactly the order a ``heapq`` of ``(-gain, v)`` tuples
    would: that order is a total order on tuples, so the ``n`` initial
    entries need no heap — one stable sort lays them out in pop order
    behind a cursor — and only entries pushed later go to a (small)
    heap. Each pop takes the smaller of the two heads.

    ``gains`` and ``locked`` are the pass's working state, owned here
    so that :meth:`pop` can skip the entries FM ignores: those of a
    locked vertex and those whose gain is no longer the vertex's
    current gain. The caller updates ``gains[u]`` in place, then calls
    :meth:`push` once for the vertices it touched.
    """

    def __init__(self, gains: np.ndarray):
        neg = -gains
        order = np.argsort(neg, kind="stable")
        self.gains: list[int] = gains.tolist()
        self.locked = bytearray(len(self.gains))
        self._sorted_v: list[int] = order.tolist()
        self._sorted_ng: list[int] = neg[order].tolist()
        self._pos = 0
        self._heap: list[tuple[int, int]] = []

    def push(self, vertices: Iterable[int]) -> None:
        """Queue each vertex at its current gain."""
        heap, gains = self._heap, self.gains
        for u in vertices:
            heappush(heap, (-gains[u], u))

    def pop(self) -> int:
        """Next unlocked vertex whose queued gain is still current, or
        -1 when the queue is exhausted. The entry is consumed: a caller
        that rejects the vertex does not see it again until a later
        :meth:`push`."""
        sv, sng = self._sorted_v, self._sorted_ng
        heap, gains, locked = self._heap, self.gains, self.locked
        pos, n = self._pos, len(sv)
        while True:
            if heap:
                ng, v = heap[0]
                if pos < n and (sng[pos] < ng
                                or (sng[pos] == ng and sv[pos] <= v)):
                    ng, v = sng[pos], sv[pos]
                    pos += 1
                else:
                    heappop(heap)
            elif pos < n:
                ng, v = sng[pos], sv[pos]
                pos += 1
            else:
                self._pos = pos
                return -1
            if not locked[v] and gains[v] == -ng:
                self._pos = pos
                return v


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices ``starts[0] .. starts[0]+lengths[0]-1, starts[1] ..``
    as one array (the gather index of a subset of CSR segments)."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def csr_lists(ptr: np.ndarray, data: np.ndarray) -> list[list[int]]:
    """One Python list per CSR segment, for loops that touch single
    elements (where numpy scalar indexing would dominate)."""
    flat = data.tolist()
    bounds = ptr.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def fine_to_coarse_map(match: np.ndarray) -> tuple[np.ndarray, int]:
    """Coarse vertex index per fine vertex for a matching, and the
    number of coarse vertices.

    A pair (or singleton: ``match[v] == v`` or ``-1``) is numbered by
    the position of its lower-indexed member among all such
    representatives — the numbering a first-seen sweep over the
    vertices produces.
    """
    n = match.size
    v = np.arange(n, dtype=np.int64)
    partner = np.where(match < 0, v, match)
    if n and (partner.max() >= n or np.any(partner[partner] != v)):
        raise ValueError("match must pair vertices symmetrically")
    rep = np.minimum(v, partner)
    is_rep = rep == v
    return (np.cumsum(is_rep) - 1)[rep], int(is_rep.sum())


def fill_side0(order: np.ndarray, weights: np.ndarray,
               goal: float) -> np.ndarray:
    """Side vector with the vertices of ``order`` assigned to side 0
    until the accumulated weight reaches ``goal``; the rest is side 1."""
    w = weights[order]
    before = np.cumsum(w) - w
    # an integer total reaches a float goal exactly when it reaches its
    # ceiling; comparing integers keeps weights beyond 2^53 exact
    taken = np.searchsorted(before, math.ceil(goal), side="left")
    side = np.ones(order.size, dtype=np.int64)
    side[order[:taken]] = 0
    return side
