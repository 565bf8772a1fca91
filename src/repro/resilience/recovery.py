"""Numerical-breakdown recovery ladders.

:func:`factorize_resilient` is the subdomain-LU ladder PDSLin climbs
when a factorization breaks down (SuperLU-style):

1. threshold pivoting at the caller's ``diag_pivot_thresh`` (the
   structure-preserving default);
2. full partial pivoting (``diag_pivot_thresh=1.0``) — trades the
   e-tree-faithful structure for numerical robustness;
3. static pivot perturbation: the reference Gilbert-Peierls kernel with
   tiny pivots replaced by ``sqrt(eps)·max|A|`` (the SuperLU_DIST
   static-pivoting trick), reporting how many pivots were perturbed.

Each escalation records a :class:`~repro.resilience.report.RecoveryEvent`
and emits ``recovery_*`` tracer counters.

:func:`sdc_ladder` is the one policy every checksum site follows once
its detector has found silent data corruption: report, stop honestly
under ``abft=detect``, else repair, re-verify and say how it ended.
The sites (DESIGN.md "Recovery ladders") own only their detector and
their repair.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.resilience.errors import SingularSubdomainError
from repro.resilience.report import RecoveryReport, emit_recovery

__all__ = ["factorize_resilient", "sdc_ladder"]


def sdc_ladder(tracer: Tracer, report: RecoveryReport, stage: str,
               findings: Sequence[tuple], *, recover: bool,
               repair: Callable[[], Optional[str]],
               unrepaired: Optional[str], recovered: str) -> bool:
    """Climb the silent-data-corruption ladder for what a detector
    found. Never called on a clean check.

    ``findings`` are ``(error, detail, subdomain)`` triples. All of them
    are reported first (``sdc-detected``, counter ``sdc_detected``).
    When ``recover`` is false the ladder stops there: each finding is
    recorded ``sdc-unrecoverable`` with the ``unrepaired`` detail —
    unless that is ``None``, meaning the caller escalates to a rung of
    its own (a shipped result that failed its digest twice is redone
    on the root). Otherwise ``repair()`` runs once for the whole batch,
    re-checks what it repaired and returns ``None`` when that came back
    clean (``sdc-recovered`` with the ``recovered`` detail, counter
    ``sdc_recovered``) or the detail of what is still wrong
    (``sdc-unrecoverable``). Returns whether the batch ended recovered.
    """
    def verdict(action: str, detail: str) -> None:
        for error, _, subdomain in findings:
            emit_recovery(tracer, report, stage, action, error,
                          detail=detail, subdomain=subdomain)

    for error, detail, subdomain in findings:
        tracer.count("sdc_detected")
        emit_recovery(tracer, report, stage, "sdc-detected", error,
                      detail=detail, subdomain=subdomain)
    if not recover:
        if unrepaired is not None:
            verdict("sdc-unrecoverable", unrepaired)
        return False
    still_wrong = repair()
    if still_wrong is not None:
        verdict("sdc-unrecoverable", still_wrong)
        return False
    tracer.count("sdc_recovered", len(findings))
    verdict("sdc-recovered", recovered)
    return True


def factorize_resilient(A, *, diag_pivot_thresh: float = 0.0,
                        stage: str = "LU(D)", subdomain: int | None = None,
                        report: RecoveryReport | None = None,
                        tracer: Tracer = NULL_TRACER):
    """Factorize ``A``, escalating through the pivoting ladder on
    breakdown.

    Returns ``(factors, handle_thresh)``: ``handle_thresh`` is the
    SuperLU handle recipe of the rung that produced the factors — its
    ``diag_pivot_thresh``, or ``None`` after the static-pivoting rung,
    whose reference kernel keeps no handle (the perturbed-pivot count
    goes to ``report.perturbed_pivots``). Raises
    :class:`SingularSubdomainError` only if every rung fails.
    """
    # imported lazily: repro.lu itself imports repro.resilience.errors,
    # so a module-level import here would be circular
    from repro.lu.numeric import GilbertPeierlsLU, factorize

    if report is None:
        report = RecoveryReport()
    try:
        return factorize(A, diag_pivot_thresh=diag_pivot_thresh,
                         keep_handle=True, tracer=tracer), diag_pivot_thresh
    except (RuntimeError, ValueError) as first:
        ladder_exc = first
        if diag_pivot_thresh < 1.0:
            emit_recovery(tracer, report, stage, "full-pivot", first,
                          detail="escalating to full partial pivoting",
                          subdomain=subdomain)
            try:
                with tracer.span("recover", stage=stage, action="full-pivot"):
                    return factorize(A, diag_pivot_thresh=1.0,
                                     keep_handle=True, tracer=tracer), 1.0
            except (RuntimeError, ValueError) as second:
                ladder_exc = second
        emit_recovery(tracer, report, stage, "static-pivot", ladder_exc,
                      detail="static pivot perturbation (sqrt(eps)*||A||)",
                      subdomain=subdomain)
        try:
            with tracer.span("recover", stage=stage, action="static-pivot"):
                lu = GilbertPeierlsLU(A, pivot_threshold=1.0,
                                      static_pivoting=True,
                                      subdomain=subdomain)
        except SingularSubdomainError:
            raise
        except (RuntimeError, ValueError) as last:
            raise SingularSubdomainError(
                f"factorization failed at every rung of the pivoting "
                f"ladder: {last}", stage=stage, subdomain=subdomain,
            ) from last
        report.perturbed_pivots += lu.perturbations
        tracer.count("perturbed_pivots", lu.perturbations)
        return lu.factors, None
