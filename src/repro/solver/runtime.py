"""Consolidated runtime options for :class:`repro.solver.PDSLin`.

The solver's constructor grew one keyword per subsystem — tracer,
backend, verifier, fault plan, checkpoint writer, resume directory,
task deadline — a surface that every embedding (the serving layer,
the smoke drills, the top-level :func:`repro.solve`) had to mirror.
:class:`RuntimeOptions` packages them as one value object::

    from repro.solver import PDSLin, RuntimeOptions

    rt = RuntimeOptions(tracer=tracer, backend="process:4",
                        task_deadline_s=30.0)
    solver = PDSLin(A, config, runtime=rt)

The fields split *what* to solve (``PDSLinConfig``: drop tolerances,
partitioner, Krylov method — part of the solver's numeric identity and
of checkpoint/session fingerprints) from *how* to run it
(``RuntimeOptions``: observability, execution backend, resilience
machinery — none of which changes the answer). ``runtime=`` is the only
way to pass them: ``PDSLin(A, cfg, tracer=...)`` is a ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # imported lazily to keep this module dependency-free
    from repro.obs.tracer import Tracer
    from repro.parallel.exec import Executor
    from repro.resilience import CheckpointManager, FaultPlan
    from repro.verify.invariants import Verifier

__all__ = ["RuntimeOptions"]


@dataclass
class RuntimeOptions:
    """How a :class:`~repro.solver.PDSLin` run executes — everything
    orthogonal to the numeric configuration.

    - ``tracer`` — a :class:`repro.obs.Tracer` recording spans/counters
      (None = no-op instrumentation).
    - ``backend`` — an :class:`~repro.parallel.exec.Executor`, a spec
      string (``"serial"``/``"process[:N]"``), or None to consult
      ``REPRO_BACKEND``.
    - ``verify`` — ``True`` (or a custom
      :class:`~repro.verify.invariants.Verifier`) arms the post-stage
      invariant checks.
    - ``fault_plan`` — seeded fault injection on the simulated machine
      (transient faults get 3 attempts before a subdomain fails over
      to the root).
    - ``checkpoint`` / ``resume`` — the checkpoint writer (directory or
      :class:`~repro.resilience.CheckpointManager`; it flushes after
      every subdomain and on SIGTERM) and a directory to restore
      bit-exactly from.
    - ``task_deadline_s`` — straggler mitigation of parallel fan-outs:
      a per-batch deadline in seconds (finite, positive); timed-out
      work is redone on the root.
    """

    tracer: Optional["Tracer"] = None
    backend: Union["Executor", str, None] = None
    verify: Union[bool, "Verifier"] = False
    fault_plan: Optional["FaultPlan"] = None
    checkpoint: Union["CheckpointManager", str, None] = None
    resume: Optional[str] = None
    task_deadline_s: Optional[float] = None

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The option names, in declaration order (what
        :func:`repro.solve` routes to ``runtime=`` by name)."""
        return tuple(f.name for f in fields(cls))
