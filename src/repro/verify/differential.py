"""Differential verification: the full hybrid pipeline against
independent references.

Two entry points:

- :func:`differential_solve` — run :class:`repro.solver.PDSLin` on
  ``A x = b`` with every invariant hook armed, then accept the solution
  only if its normwise backward error clears ``rtol`` and scipy's
  ``spsolve``/SuperLU reference agrees the system is solvable.
- :func:`check_stage_oracles` — rebuild the Schur pipeline with *no
  dropping* and compare three independently computed Schur complements
  entry for entry: the dense ``C - sum F_l D_l^{-1} E_l`` oracle, the
  materialized implicit operator, and the assembled approximate Schur
  at ``drop_tol = 0``.

Both raise :class:`repro.verify.VerificationError` (or let solver
exceptions propagate); the fuzz harness catches and buckets these.

PDSLin is imported lazily inside the functions: the solver itself
imports :mod:`repro.verify.invariants` for its ``verify=`` flag, and an
eager import here would be a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.verify.invariants import VerificationError, Verifier
from repro.verify.oracles import (
    dense_exact_schur,
    materialize_operator,
    normwise_backward_error,
    splu_solve_oracle,
)

__all__ = ["DifferentialReport", "differential_solve", "check_stage_oracles"]


@dataclass
class DifferentialReport:
    """What a differential run checked and measured."""

    backward_error: float
    oracle_backward_error: float
    iterations: int
    converged: bool
    checks_run: list[str] = field(default_factory=list)

    @property
    def n_checks(self) -> int:
        return len(self.checks_run)


def _default_config(k: int, seed, **overrides):
    from repro.solver.pdslin import PDSLinConfig
    base = dict(k=k, seed=seed, partition_trials=1, gmres_maxiter=400)
    base.update(overrides)
    return PDSLinConfig(**base)


def differential_solve(A: sp.spmatrix, b: np.ndarray, *, k: int = 4,
                       seed=0, rtol: float = 1e-6,
                       verifier: Verifier | None = None,
                       **config_overrides) -> DifferentialReport:
    """Solve ``A x = b`` with the hybrid solver, all invariants armed,
    and accept only on a small normwise backward error.

    The backward error ``||b - A x|| / (||A||_1 ||x|| + ||b||)`` is the
    acceptance criterion rather than a comparison against the reference
    *solution*: on ill-conditioned systems two backward-stable solvers
    legitimately return far-apart solutions. The SuperLU reference is
    still run — if the direct solver itself cannot reach ``sqrt(rtol)``
    backward error, the system is too singular to adjudicate and the
    case is accepted as vacuous (reported in the result).
    """
    from repro.solver.pdslin import PDSLin
    from repro.solver.runtime import RuntimeOptions

    verifier = verifier or Verifier()
    cfg = _default_config(k, seed, **config_overrides)
    b = np.asarray(b, dtype=np.float64)

    x_ref = splu_solve_oracle(A, b)
    oracle_berr = normwise_backward_error(A, x_ref, b)

    solver = PDSLin(A, cfg, runtime=RuntimeOptions(verify=verifier))
    res = solver.solve(b)
    berr = normwise_backward_error(A, res.x, b)

    report = DifferentialReport(
        backward_error=berr, oracle_backward_error=oracle_berr,
        iterations=res.iterations, converged=res.converged,
        checks_run=list(verifier.checks_run))
    if oracle_berr > np.sqrt(rtol):
        return report  # reference cannot solve it either: vacuous case
    if berr > rtol:
        raise VerificationError(
            "differential.backward-error",
            f"hybrid solve backward error {berr:.3e} > rtol {rtol:.1e} "
            f"(reference achieved {oracle_berr:.3e}; "
            f"converged={res.converged}, iterations={res.iterations})")
    return report


def check_stage_oracles(A: sp.spmatrix, *, k: int = 4, seed=0,
                        rtol: float = 1e-8,
                        verifier: Verifier | None = None) -> dict:
    """Cross-check three independent Schur complements on ``A``.

    Runs the pipeline with *zero* drop tolerances and the numerics
    pre-pass off (so every stage is exact up to roundoff), then
    compares, entry for entry:

    1. ``dense_exact_schur`` — dense solves on the uncompressed DBBD
       blocks;
    2. the implicit exact operator the solve phase iterates on
       (``solver.solve_plan.matvec``, built by
       ``implicit_schur_matvec``), materialized column by column;
    3. the assembled ``S~`` at ``drop_tol = 0`` (the production
       interface-solve + scatter path).

    Returns the max pairwise discrepancies; raises
    :class:`VerificationError` if any exceeds ``rtol`` (relative to
    ``max|S|``).
    """
    from repro.solver.pdslin import PDSLin
    from repro.solver.runtime import RuntimeOptions

    verifier = verifier or Verifier()
    cfg = _default_config(k, seed, drop_interface=0.0, drop_schur=0.0,
                          numerics=False)
    solver = PDSLin(A, cfg, runtime=RuntimeOptions(verify=verifier))
    solver.setup()
    assert solver.partition is not None
    ns = solver.partition.separator_size
    if ns == 0:
        return {"ns": 0, "dense_vs_implicit": 0.0, "dense_vs_assembled": 0.0}

    S_dense = dense_exact_schur(solver.partition)
    S_impl = materialize_operator(solver.solve_plan.matvec, ns)
    S_asm = solver.S_tilde.toarray()

    scale = max(float(np.abs(S_dense).max()), 1e-300)
    gap_impl = float(np.abs(S_dense - S_impl).max()) / scale
    gap_asm = float(np.abs(S_dense - S_asm).max()) / scale
    if gap_impl > rtol:
        raise VerificationError(
            "differential.schur-implicit",
            f"implicit Schur operator differs from the dense oracle by "
            f"{gap_impl:.3e} (rel, ns={ns})")
    if gap_asm > rtol:
        raise VerificationError(
            "differential.schur-assembled",
            f"assembled S~ at drop_tol=0 differs from the dense oracle "
            f"by {gap_asm:.3e} (rel, ns={ns})")
    return {"ns": ns, "dense_vs_implicit": gap_impl,
            "dense_vs_assembled": gap_asm,
            "checks_run": list(verifier.checks_run)}
