"""Sparse LU substrate: symbolic reach, numeric factorization
(reference Gilbert-Peierls + SuperLU bridge), supernode detection, and
the blocked multi-RHS sparse triangular solver with padding."""

from repro.lu.cache import SymbolicCache, pattern_fingerprint
from repro.lu.numeric import (
    GilbertPeierlsLU,
    LUFactors,
    attach_handle,
    factorize,
    lu_flop_count,
)
from repro.lu.supernodes import SupernodalLower, detect_supernodes
from repro.lu.symbolic import (
    factor_etree,
    reach,
    solution_pattern,
    toposorted_reach,
)
from repro.lu.triangular import (
    BlockedSolveResult,
    PaddingStats,
    blocked_triangular_solve,
    padded_zeros,
    partition_columns,
)

__all__ = [
    "reach", "toposorted_reach", "solution_pattern", "factor_etree",
    "LUFactors", "GilbertPeierlsLU", "factorize", "lu_flop_count",
    "attach_handle", "SymbolicCache", "pattern_fingerprint",
    "detect_supernodes", "SupernodalLower",
    "PaddingStats", "BlockedSolveResult", "partition_columns",
    "blocked_triangular_solve", "padded_zeros",
]
