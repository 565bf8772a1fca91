"""The paper's contributions: RHB partitioning (Section III), DBBD
forms, and sparse-RHS reordering for triangular solution (Section IV)."""

from repro.core.dbbd import (
    SEPARATOR,
    DBBDPartition,
    PartitionQuality,
    SubdomainStats,
    build_dbbd,
)
from repro.core.rhb import RHBResult, rhb_partition
from repro.core.rhs_reorder import (
    HypergraphOrderResult,
    hypergraph_column_order,
    natural_column_order,
    postorder_column_order,
)
from repro.core.weights import (
    VALID_SCHEMES,
    WeightScheme,
    compute_vertex_weights,
)

__all__ = [
    "DBBDPartition", "SubdomainStats", "PartitionQuality", "build_dbbd",
    "SEPARATOR",
    "WeightScheme", "compute_vertex_weights", "VALID_SCHEMES",
    "RHBResult", "rhb_partition",
    "natural_column_order", "postorder_column_order",
    "hypergraph_column_order", "HypergraphOrderResult",
]
