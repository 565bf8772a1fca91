"""Consolidated runtime options for :class:`repro.solver.PDSLin`.

The solver's constructor grew one keyword per subsystem PR — tracer,
backend, fault plan, retry policy, verifier, checkpoint writer/policy,
resume directory, task deadline, speculation — a 12-knob surface that
every embedding (the serving layer, the chaos/parity/restart CLIs, the
top-level :func:`repro.solve`) had to mirror. :class:`RuntimeOptions`
packages them as one value object::

    from repro.solver import PDSLin, RuntimeOptions

    rt = RuntimeOptions(tracer=tracer, backend="process:4",
                        task_deadline_s=30.0, speculation=True)
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
    from repro.parallel.exec import Executor, SpeculationPolicy
    from repro.resilience import (
        CheckpointManager,
        CheckpointPolicy,
        FaultPlan,
        RetryPolicy,
    )
    from repro.verify.invariants import Verifier

__all__ = ["RuntimeOptions"]


@dataclass
class RuntimeOptions:
    """How a :class:`~repro.solver.PDSLin` run executes — everything
    orthogonal to the numeric configuration.

    - ``tracer`` — a :class:`repro.obs.Tracer` recording spans/counters
      (None = no-op instrumentation).
    - ``backend`` — an :class:`~repro.parallel.exec.Executor`, a spec
      string (``"serial"``/``"thread"``/``"process[:N]"``), or None to
      consult ``REPRO_BACKEND``.
    - ``verify`` — ``True`` (or a custom
      :class:`~repro.verify.invariants.Verifier`) arms the post-stage
      invariant checks.
    - ``fault_plan`` / ``retry_policy`` — seeded fault injection on the
      simulated machine and the retry budget of the recovery ladder.
    - ``checkpoint`` / ``checkpoint_policy`` / ``resume`` — the
      checkpoint writer (directory or
      :class:`~repro.resilience.CheckpointManager`), its cadence, and a
      directory to restore bit-exactly from.
    - ``task_deadline_s`` / ``speculation`` — straggler mitigation of
      parallel fan-outs: a per-batch deadline (timed-out work redone on
      the root) and/or speculative duplicate execution
      (:class:`~repro.parallel.exec.SpeculationPolicy`, or ``True`` for
      the defaults).
    """

    tracer: Optional["Tracer"] = None
    backend: Union["Executor", str, None] = None
    verify: Union[bool, "Verifier"] = False
    fault_plan: Optional["FaultPlan"] = None
    retry_policy: Optional["RetryPolicy"] = None
    checkpoint: Union["CheckpointManager", str, None] = None
    checkpoint_policy: Optional["CheckpointPolicy"] = None
    resume: Optional[str] = None
    task_deadline_s: Optional[float] = None
    speculation: Union["SpeculationPolicy", bool, None] = None

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The option names, in declaration order (what
        :func:`repro.solve` routes to ``runtime=`` by name)."""
        return tuple(f.name for f in fields(cls))
