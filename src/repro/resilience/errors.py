"""Structured error hierarchy for the PDSLin pipeline.

Every failure mode the recovery ladder knows how to handle is a
:class:`SolverError` subclass carrying pipeline context (stage name,
subdomain index) so that recovery code — and the user, when recovery is
exhausted — sees *where* the pipeline broke, not just a bare message.

``SolverError`` subclasses :class:`RuntimeError` so that pre-existing
callers catching ``RuntimeError`` around factorizations keep working.

Errors must survive a trip through the process-parallel execution
backend (:mod:`repro.parallel.exec`): default ``BaseException`` pickling
only keeps ``self.args``, losing the keyword-only context every subclass
carries, so ``SolverError.__reduce__`` rebuilds instances from
``(class, args, __dict__)`` — stage, subdomain, column, pivot and every
other structured attribute round-trip intact.
"""

from __future__ import annotations

__all__ = [
    "SolverError",
    "SingularSubdomainError",
    "KrylovBreakdownError",
    "RefinementStallError",
    "InjectedFault",
    "WorkerCrashError",
    "TaskDeadlineError",
    "CheckpointError",
    "SdcDetectedError",
    "TransportChecksumError",
]


def _rebuild_solver_error(cls, args, state):
    """Unpickle helper: restore without re-running ``__init__`` (whose
    keyword-only signatures vary by subclass)."""
    err = cls.__new__(cls)
    RuntimeError.__init__(err, *args)
    err.__dict__.update(state)
    return err


class SolverError(RuntimeError):
    """Base class for structured solver failures.

    Carries the pipeline ``stage`` (``"LU(D)"``, ``"Comp(S)"``,
    ``"LU(S)"``, ``"Solve"``, ...) and, for per-subdomain work, the
    ``subdomain`` index the failure occurred on.
    """

    def __init__(self, message: str, *, stage: str | None = None,
                 subdomain: int | None = None):
        super().__init__(message)
        self.stage = stage
        self.subdomain = subdomain

    def __reduce__(self):
        return (_rebuild_solver_error,
                (type(self), self.args, dict(self.__dict__)))

    def context(self) -> str:
        """Human-readable ``stage=... subdomain=...`` fragment."""
        parts = []
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        if self.subdomain is not None:
            parts.append(f"subdomain={self.subdomain}")
        return " ".join(parts)

    def __str__(self) -> str:
        base = super().__str__()
        ctx = self.context()
        return f"{base} [{ctx}]" if ctx else base


class SingularSubdomainError(SolverError):
    """A subdomain (or Schur) LU hit a structurally or numerically
    singular pivot.

    ``column`` is the factorization column that failed and ``pivot``
    the magnitude of the best available pivot there (0.0 when the
    column had no candidate rows at all).
    """

    def __init__(self, message: str, *, column: int | None = None,
                 pivot: float | None = None, stage: str = "LU(D)",
                 subdomain: int | None = None):
        super().__init__(message, stage=stage, subdomain=subdomain)
        self.column = column
        self.pivot = pivot


class KrylovBreakdownError(SolverError):
    """GMRES stagnated or failed to converge on the Schur system.

    ``iterations`` is how far it got. Recorded as the cause of the
    precond-refresh recovery event.
    """

    def __init__(self, message: str, *, iterations: int = 0,
                 stage: str = "Solve"):
        super().__init__(message, stage=stage)
        self.iterations = iterations


class RefinementStallError(SolverError):
    """Post-solve iterative refinement stagnated: corrections stopped
    shrinking the componentwise backward error.

    Raised-or-recorded by the certification pass
    (:mod:`repro.numerics.refine` via the solver): a first stall
    escalates into a preconditioner rebuild; a stall after escalation
    leaves the solve uncertified and is recorded as a degrading
    ``refine-stall`` event. ``berr`` is the backward error refinement
    got stuck at (NaN when recorded before the final value is known).
    """

    def __init__(self, message: str, *, berr: float = float("nan"),
                 stage: str = "Refine"):
        super().__init__(message, stage=stage)
        self.berr = float(berr)


class InjectedFault(SolverError):
    """A fault raised on purpose by a :class:`repro.resilience.FaultPlan`.

    ``kind`` is ``"transient"`` (goes away on retry) or ``"permanent"``
    (every attempt on the same stage/process fails — the work must move
    elsewhere). ``recovery_cost_s`` is the simulated time a recovery
    action for this fault charges to the machine's ``Recover`` stage.
    """

    def __init__(self, message: str, *, kind: str = "transient",
                 stage: str | None = None, subdomain: int | None = None,
                 recovery_cost_s: float = 1e-3):
        super().__init__(message, stage=stage, subdomain=subdomain)
        if kind not in ("transient", "permanent"):
            raise ValueError(f"kind must be 'transient' or 'permanent', "
                             f"got {kind!r}")
        self.kind = kind
        self.recovery_cost_s = float(recovery_cost_s)

    @property
    def permanent(self) -> bool:
        """True when retrying the same stage on the same process is
        guaranteed to fail again."""
        return self.kind == "permanent"


class WorkerCrashError(SolverError):
    """A real worker process died mid-task (segfault, kill, hard exit).

    Raised by the :class:`repro.parallel.exec.ProcessBackend` when the
    pool reports a broken worker; the solver treats it like a permanent
    process fault — the work fails over to the root process and the
    solve is marked degraded. ``backend`` names the executor that
    observed the crash.
    """

    def __init__(self, message: str, *, backend: str = "process",
                 stage: str | None = None, subdomain: int | None = None):
        super().__init__(message, stage=stage, subdomain=subdomain)
        self.backend = backend


class TaskDeadlineError(SolverError):
    """A shipped task blew its per-``map`` deadline and was cancelled.

    Surfaces as ``TaskOutcome.error`` (with ``TaskOutcome.timed_out``
    set) rather than being raised: the solver treats a timed-out
    subdomain like a crashed worker and fails the work over to the root
    process. ``deadline_s`` is the budget that was exceeded.
    """

    def __init__(self, message: str, *, deadline_s: float = 0.0,
                 stage: str | None = None, subdomain: int | None = None):
        super().__init__(message, stage=stage, subdomain=subdomain)
        self.deadline_s = float(deadline_s)


class CheckpointError(SolverError):
    """A checkpoint could not be written, read, or trusted.

    Raised on a missing/truncated manifest, a shard whose blake2b
    digest no longer matches the manifest entry (bit rot, torn write,
    tampering), a version the reader does not understand, or an
    identity mismatch (the checkpoint belongs to a different matrix or
    solver configuration). ``path`` names the offending file when one
    is known.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 stage: str = "Checkpoint"):
        super().__init__(message, stage=stage)
        self.path = path


class SdcDetectedError(SolverError):
    """An ABFT checksum caught silent data corruption.

    ``site`` names the detector that fired (``"lu"``, ``"comp"``,
    ``"schur"``, ``"krylov"``, ``"solve"``) and ``rel`` the relative
    checksum discrepancy normalized to the detector's tolerance
    (``rel > 1`` means violated). Raised only when recovery is
    exhausted or disabled; otherwise recorded as the cause of
    ``sdc-detected`` recovery events.
    """

    def __init__(self, message: str, *, site: str = "lu",
                 rel: float = float("nan"), stage: str | None = None,
                 subdomain: int | None = None):
        super().__init__(message, stage=stage, subdomain=subdomain)
        self.site = site
        self.rel = float(rel)


class TransportChecksumError(SolverError):
    """A task result's blake2b transport digest did not match its
    payload — the bytes that arrived are not the bytes the worker
    hashed (IPC/pickle-level corruption).

    Surfaces as ``TaskOutcome.error`` after the executor's single
    resubmission also fails; the solver treats it like a crashed
    worker and fails the task over to the root process.
    """

    def __init__(self, message: str, *, backend: str = "process",
                 stage: str | None = None, subdomain: int | None = None):
        super().__init__(message, stage=stage, subdomain=subdomain)
        self.backend = backend
