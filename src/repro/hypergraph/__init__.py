"""Hypergraph substrate: data structure, matrix models, cut metrics,
multilevel bisection with multi-constraint FM, and the net
splitting/discarding machinery for recursive bisection."""

from repro.hypergraph.bisect import HBisectionResult, bisect_hypergraph
from repro.hypergraph.coarsen import (
    coarsen_hypergraph,
    contract_hypergraph,
    heavy_connectivity_matching,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.metrics import (
    CutMetric,
    cutsize,
    imbalance,
    net_connectivities,
    part_weights,
)
from repro.hypergraph.netops import (
    BisectionSplit,
    initial_net_costs,
    split_by_side,
)
from repro.hypergraph.refine import (
    bisection_cut,
    enforce_exact_quota,
    fm_refine_hypergraph,
    hypergraph_gains,
)

__all__ = [
    "Hypergraph",
    "CutMetric", "net_connectivities", "cutsize", "imbalance", "part_weights",
    "heavy_connectivity_matching", "contract_hypergraph",
    "coarsen_hypergraph",
    "fm_refine_hypergraph", "bisection_cut", "hypergraph_gains",
    "HBisectionResult", "bisect_hypergraph", "enforce_exact_quota",
    "BisectionSplit", "split_by_side", "initial_net_costs",
]
