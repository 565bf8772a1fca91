"""Graph substrate: CSR graphs, multilevel bisection, vertex separators,
and the nested-graph-dissection (NGD) baseline partitioner."""

from repro.graphs.bisect import (
    BisectionResult,
    bisect_graph,
    greedy_bfs_bisection,
)
from repro.graphs.coarsen import (
    coarsen,
    contract,
    heavy_edge_matching,
)
from repro.graphs.fm import compute_gains, fm_refine_bisection
from repro.graphs.graph import Graph
from repro.graphs.ngd import SEPARATOR, NGDResult, nested_dissection_partition
from repro.graphs.separator import (
    VertexSeparator,
    maximum_bipartite_matching,
    vertex_separator_from_cut,
)
from repro.graphs.spectral import (
    graph_laplacian,
    lanczos_fiedler,
    spectral_bisection,
)

__all__ = [
    "Graph",
    "heavy_edge_matching", "contract", "coarsen",
    "fm_refine_bisection", "compute_gains",
    "BisectionResult", "bisect_graph", "greedy_bfs_bisection",
    "VertexSeparator", "maximum_bipartite_matching", "vertex_separator_from_cut",
    "NGDResult", "nested_dissection_partition", "SEPARATOR",
    "graph_laplacian", "lanczos_fiedler", "spectral_bisection",
]
