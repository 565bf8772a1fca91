"""Hybrid solver layer: GMRES, Schur assembly, and the PDSLin pipeline."""

from repro.solver.gmres import GMRESResult, gmres
from repro.solver.interfaces import SubdomainInterfaces, extract_interfaces
from repro.solver.pdslin import (
    BlockResult,
    PDSLin,
    PDSLinConfig,
    PDSLinResult,
    SubdomainComputation,
)
from repro.solver.plan import SolvePlan
from repro.solver.report import format_report, run_report, save_report
from repro.solver.runtime import RuntimeOptions
from repro.solver.schur import (
    assemble_approximate_schur,
    drop_small_entries,
    implicit_schur_matvec,
)

__all__ = [
    "GMRESResult", "gmres",
    "SubdomainInterfaces", "extract_interfaces",
    "assemble_approximate_schur", "drop_small_entries", "implicit_schur_matvec",
    "PDSLinConfig", "PDSLin", "PDSLinResult", "BlockResult",
    "RuntimeOptions", "SolvePlan", "SubdomainComputation",
    "run_report", "format_report", "save_report",
]
