"""Resilience subsystem: fault injection, breakdown recovery, degraded-
mode reporting.

PDSLin's value proposition is surviving hard problems at scale, so the
pipeline must *recover* rather than abort:

- :mod:`repro.resilience.errors` — the structured error hierarchy
  (:class:`SolverError` and friends) carrying stage/subdomain context;
- :mod:`repro.resilience.faults` — seeded, deterministic fault
  injection for the simulated machine (:class:`FaultPlan`);
- :mod:`repro.resilience.report` — :class:`RecoveryReport`, the
  degraded-mode accounting attached to every solve result;
- :mod:`repro.resilience.recovery` — the ladder drivers
  (:func:`factorize_resilient`: threshold -> full -> static pivoting;
  :func:`sdc_ladder`: detected -> repaired -> re-verified, for every
  checksum site);
- :mod:`repro.resilience.abft` — algorithm-based fault tolerance:
  checksummed LU factors and Schur updates, Krylov drift audits, and
  the seeded ``REPRO_CHAOS_BITFLIP_*`` bit-flip injector;
- :mod:`repro.resilience.checkpoint` — integrity-checked on-disk
  snapshots (:class:`CheckpointManager`) for kill-and-resume solves.

The drills that prove all of this end to end are scenarios of
:mod:`repro.smoke`: ``faults``, ``stragglers``, ``bitflip``,
``restart`` and ``resume-parity``.
"""

from repro.resilience.abft import (
    ABFT_MODES,
    AuditResult,
    FactorChecksums,
    attach_factor_checksums,
    bitflip_seam,
    checksum_matrix,
    maybe_bitflip,
    reset_bitflip_state,
    verify_factors,
    verify_matrix_checksum,
)
from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointState,
    load_checkpoint,
    truncate_checkpoint,
)
from repro.resilience.errors import (
    CheckpointError,
    InjectedFault,
    KrylovBreakdownError,
    RefinementStallError,
    SdcDetectedError,
    SingularSubdomainError,
    SolverError,
    TaskDeadlineError,
    TransportChecksumError,
    WorkerCrashError,
)
from repro.resilience.faults import FaultPlan, FaultSpec, FiredFault
from repro.resilience.recovery import factorize_resilient, sdc_ladder
from repro.resilience.report import (
    DEGRADING_ACTIONS,
    RecoveryEvent,
    RecoveryReport,
    emit_recovery,
)

__all__ = [
    "SolverError", "SingularSubdomainError",
    "KrylovBreakdownError", "RefinementStallError", "InjectedFault",
    "WorkerCrashError", "TaskDeadlineError", "CheckpointError",
    "SdcDetectedError", "TransportChecksumError",
    "FaultSpec", "FaultPlan", "FiredFault",
    "RecoveryEvent", "RecoveryReport", "DEGRADING_ACTIONS", "emit_recovery",
    "factorize_resilient", "sdc_ladder",
    "ABFT_MODES", "AuditResult", "FactorChecksums",
    "attach_factor_checksums", "verify_factors", "checksum_matrix",
    "verify_matrix_checksum", "bitflip_seam", "maybe_bitflip",
    "reset_bitflip_state",
    "CheckpointManager", "CheckpointState",
    "load_checkpoint", "truncate_checkpoint",
]
