"""Net splitting and net discarding for recursive bisection.

Recursive bisection realizes the three cut metrics through how cut nets
descend into the two sub-hypergraphs (Section III-C of the paper):

- **con1** — *net splitting* (Catalyurek-Aykanat): a cut net continues
  into both sides with its pins restricted and its cost unchanged; each
  further cut of a fragment adds the cost again, so the accumulated
  total per original net is cost * (lambda - 1).
- **cnet** — *net discarding*: a cut net is charged once and removed.
- **soed** — the paper's construction: nets start with cost 2; when a
  net is cut, both fragments continue with cost ceil(cost/2) = 1, so
  the accumulated total is 2 + (lambda - 2) = lambda per cut net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import CutMetric
from repro.hypergraph.refine import _side_counts, as_side

__all__ = ["BisectionSplit", "split_by_side", "initial_net_costs"]


def initial_net_costs(n_nets: int, metric: CutMetric) -> np.ndarray:
    """Top-level net costs for a metric (2 for soed, else 1)."""
    if metric == "soed":
        return np.full(n_nets, 2, dtype=np.int64)
    return np.ones(n_nets, dtype=np.int64)


@dataclass
class BisectionSplit:
    """Result of splitting a hypergraph along a bisection.

    ``vertex_ids[s]`` maps side-s sub-vertex index -> parent vertex
    index; ``children[s]`` is the side-s sub-hypergraph whose
    ``net_ids`` still refer to the *original* top-level nets.
    ``cut_net_ids`` lists original ids of nets cut by this bisection
    (charged once here; under con1/soed they also continue as
    fragments).
    """

    children: tuple[Hypergraph, Hypergraph]
    vertex_ids: tuple[np.ndarray, np.ndarray]
    cut_net_ids: np.ndarray
    cut_cost: int


def split_by_side(H: Hypergraph, side: np.ndarray,
                  metric: CutMetric) -> BisectionSplit:
    """Split ``H`` into two sub-hypergraphs according to ``side``.

    Vertices descend to their side. Uncut nets descend with cost and id
    unchanged (including single-pin nets, which keep column-to-part
    tracking exact). Cut nets follow the metric rule described in the
    module docstring.
    """
    side = as_side(H, side)
    ids = (np.flatnonzero(side == 0), np.flatnonzero(side == 1))
    local = np.empty(H.n_vertices, dtype=np.int64)
    local[ids[0]] = np.arange(ids[0].size)
    local[ids[1]] = np.arange(ids[1].size)

    count = _side_counts(H, side)
    is_cut = (count[0] > 0) & (count[1] > 0)
    # a cut net is charged here; its fragments descend (at the metric's
    # child cost) unless the metric discards it
    child_costs = H.net_costs.copy()
    if metric == "soed":
        child_costs[is_cut] = (child_costs[is_cut] + 1) // 2
    descends = ~is_cut if metric == "cnet" else np.ones(H.n_nets, dtype=bool)

    children = []
    for s in (0, 1):
        nets = np.flatnonzero(descends & (count[s] > 0))
        ptr = np.zeros(nets.size + 1, dtype=np.int64)
        np.cumsum(count[s][nets], out=ptr[1:])
        children.append(Hypergraph(
            net_ptr=ptr,
            pins=local[H.pins[(side[H.pins] == s) & descends[H.net_of_pin]]],
            vertex_weights=H.vertex_weights[ids[s]].copy(),
            net_costs=child_costs[nets],
            net_ids=H.net_ids[nets],
        ))
    return BisectionSplit(
        children=(children[0], children[1]),
        vertex_ids=ids,
        cut_net_ids=H.net_ids[is_cut],
        cut_cost=int(H.net_costs[is_cut].sum()),
    )
