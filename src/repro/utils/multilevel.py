"""Pieces shared by the two multilevel bisectors (``repro.hypergraph``
and ``repro.graphs``): the FM gain queue and the small array kernels
both coarsen / initial-partition stacks need.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Iterable

import numpy as np

__all__ = ["GainQueue", "concat_ranges", "csr_lists", "fine_to_coarse_map",
           "fill_side0"]


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
