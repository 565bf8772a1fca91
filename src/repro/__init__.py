"""repro — reproduction of "On Partitioning and Reordering Problems in a
Hierarchically Parallel Hybrid Linear Solver" (Yamazaki, Li, Rouet,
Uçar; IPDPSW 2013).

Public surface (see README for the architecture overview):

- :mod:`repro.core` — RHB partitioning, DBBD forms, RHS reordering;
- :mod:`repro.solver` — the PDSLin-style hybrid Schur solver;
- :mod:`repro.hypergraph` / :mod:`repro.graphs` — partitioning substrates;
- :mod:`repro.lu` / :mod:`repro.ordering` — sparse direct-method substrate;
- :mod:`repro.matrices` — synthetic Table-I matrix suite;
- :mod:`repro.parallel` — simulated distributed machine;
- :mod:`repro.resilience` — fault injection and breakdown recovery;
- :mod:`repro.numerics` — equilibration, static-pivot matching,
  condition estimation, certified iterative refinement;
- :mod:`repro.service` — long-lived serving layer (session cache,
  micro-batched request queue) — start one with :func:`repro.serve`;
- :mod:`repro.experiments` — per-table/figure harnesses.

One-shot solves need no class API at all: :func:`repro.solve` routes
keyword options to :class:`PDSLinConfig` / :class:`RuntimeOptions` by
field name and runs the whole pipeline.
"""

from repro.api import serve, solve
from repro.core import DBBDPartition, RHBResult, build_dbbd, rhb_partition
from repro.graphs import nested_dissection_partition
from repro.matrices import (
    generate,
    generate_robust,
    robust_suite_names,
    suite_names,
)
from repro.numerics import CertifiedAccuracy, backward_errors
from repro.resilience import FaultPlan, FaultSpec, RecoveryReport
from repro.solver import (
    BlockResult,
    PDSLin,
    PDSLinConfig,
    PDSLinResult,
    RuntimeOptions,
)

__version__ = "1.0.0"

__all__ = [
    "solve", "serve",
    "rhb_partition", "build_dbbd", "DBBDPartition", "RHBResult",
    "PDSLin", "PDSLinConfig", "PDSLinResult", "BlockResult",
    "RuntimeOptions",
    "FaultPlan", "FaultSpec", "RecoveryReport",
    "CertifiedAccuracy", "backward_errors",
    "nested_dissection_partition",
    "generate", "suite_names", "generate_robust", "robust_suite_names",
    "__version__",
]
