"""Degraded-mode accounting: what recovery did, and whether the solve
that came back is running at full health.

Every recovery action in the pipeline records a :class:`RecoveryEvent`
on the solver's :class:`RecoveryReport`; the report rides on
:class:`repro.solver.PDSLinResult` so a solve that survived only
through degradation (static pivot perturbation, failover to the root
process, a refreshed preconditioner) says so instead of pretending nothing happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["RecoveryEvent", "RecoveryReport", "DEGRADING_ACTIONS",
           "emit_recovery"]

# Actions after which the solve no longer reflects the requested
# configuration at full health: perturbed factors, lost processes,
# rebuilt preconditioners, refinement that gave up before certifying
# the answer, detected-but-unrepaired silent data corruption.
DEGRADING_ACTIONS = frozenset({
    "static-pivot", "failover-root", "deadline-failover",
    "precond-refresh", "refine-stall",
    "sdc-unrecoverable",
})


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action: where it happened, what failed, what was done.

    ``action`` is a short verb tag: ``"retry"``, ``"full-pivot"``,
    ``"static-pivot"``, ``"failover-root"``, ``"precond-refresh"``.
    ``error`` is the name of the exception class that triggered it.
    """

    stage: str
    action: str
    error: str
    detail: str = ""
    subdomain: int | None = None
    attempt: int = 1

    def describe(self) -> str:
        """One-line human-readable rendering."""
        where = self.stage if self.subdomain is None \
            else f"{self.stage}[l={self.subdomain}]"
        tail = f": {self.detail}" if self.detail else ""
        return f"{where} {self.action} after {self.error}" \
               f" (attempt {self.attempt}){tail}"


@dataclass
class RecoveryReport:
    """Everything the recovery ladder did during one solver's lifetime.

    Cumulative across ``setup()`` and every ``solve()`` on the same
    :class:`repro.solver.PDSLin` instance. ``degraded`` flips true the
    first time an action in :data:`DEGRADING_ACTIONS` runs;
    ``preconditioner_mode`` tracks the *final* Schur preconditioner in
    effect (``"lu"``, or ``"lu(refreshed, drop_schur=0)"`` after a
    refresh).
    """

    events: List[RecoveryEvent] = field(default_factory=list)
    perturbed_pivots: int = 0
    preconditioner_mode: str = "lu"
    degraded: bool = False
    # CertifiedAccuracy.to_dict() of the most recent solve (None until
    # a certification pass has run)
    accuracy: dict | None = None

    def record(self, stage: str, action: str, error: object, *,
               detail: str = "", subdomain: int | None = None,
               attempt: int = 1) -> RecoveryEvent:
        """Append one event; flips ``degraded`` for degrading actions."""
        name = type(error).__name__ if isinstance(error, BaseException) \
            else str(error)
        ev = RecoveryEvent(stage=stage, action=action, error=name,
                           detail=detail, subdomain=subdomain,
                           attempt=attempt)
        self.events.append(ev)
        if action in DEGRADING_ACTIONS:
            self.degraded = True
        return ev

    def absorb(self, other: "RecoveryReport") -> None:
        """Fold another report into this one (used to merge the local
        reports worker processes accumulate back into the solver's).
        ``preconditioner_mode`` and ``accuracy`` are root-side state and
        stay untouched."""
        self.events.extend(other.events)
        self.perturbed_pivots += other.perturbed_pivots
        self.degraded = self.degraded or other.degraded

    @property
    def healthy(self) -> bool:
        """True when no recovery was needed at all."""
        return not self.events and not self.degraded

    @property
    def retries(self) -> int:
        """Number of plain same-place retries."""
        return sum(1 for e in self.events if e.action == "retry")

    def actions(self) -> Dict[str, int]:
        """Event counts per action tag."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.action] = out.get(e.action, 0) + 1
        return out

    def _accuracy_line(self) -> str | None:
        if not self.accuracy:
            return None
        tag = "CERTIFIED" if self.accuracy.get("certified") \
            else "UNCERTIFIED"
        return (f"  accuracy: {tag} "
                f"berr={self.accuracy.get('berr', float('nan')):.2e} "
                f"cond~{self.accuracy.get('cond_est', float('nan')):.2e} "
                f"refine_steps={self.accuracy.get('refine_steps', 0)}")

    def summary(self) -> str:
        """Multi-line report: health line, then one line per event,
        then the certified-accuracy line when a certification ran."""
        acc = self._accuracy_line()
        if self.healthy:
            head = "recovery: none (full health)"
            return head if acc is None else head + "\n" + acc
        head = (f"recovery: {len(self.events)} events, "
                f"{self.retries} retries, "
                f"{self.perturbed_pivots} perturbed pivots, "
                f"preconditioner={self.preconditioner_mode}, "
                f"{'DEGRADED' if self.degraded else 'full health'}")
        lines = [head] + ["  - " + e.describe() for e in self.events]
        if acc is not None:
            lines.append(acc)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form (for metrics/report artifacts)."""
        return {
            "degraded": self.degraded,
            "perturbed_pivots": self.perturbed_pivots,
            "preconditioner_mode": self.preconditioner_mode,
            "retries": self.retries,
            "accuracy": self.accuracy,
            "events": [{"stage": e.stage, "action": e.action,
                        "error": e.error, "detail": e.detail,
                        "subdomain": e.subdomain, "attempt": e.attempt}
                       for e in self.events],
        }


def emit_recovery(tracer, report: RecoveryReport, stage: str, action: str,
                  error: object, *, detail: str = "",
                  subdomain: int | None = None,
                  attempt: int = 1) -> RecoveryEvent:
    """Record one recovery event on ``report`` *and* on the tracer.

    Counters: ``recovery_events`` (total) and one
    ``recovery_<action>`` per action tag, so traced runs expose the
    same accounting as the report. ``tracer`` is any object with the
    :class:`repro.obs.Tracer` counter interface.
    """
    ev = report.record(stage, action, error, detail=detail,
                       subdomain=subdomain, attempt=attempt)
    tracer.count("recovery_events")
    tracer.count("recovery_" + action.replace("-", "_"))
    return ev
