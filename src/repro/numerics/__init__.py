"""Numerical robustness layer: the production defenses that turn the
hybrid solver's "a residual norm came back small" into a quantified
accuracy guarantee.

- :mod:`repro.numerics.equilibrate` — Ruiz iterative row/column
  scaling, applied before DBBD partitioning and undone on the returned
  solution;
- :mod:`repro.numerics.matching` — MC64-style maximum-product matching
  (shortest augmenting paths on ``log|a_ij|``) as a *proactive* static
  pivoting step ahead of the reactive perturbation ladder;
- :mod:`repro.numerics.condest` — Hager-Higham 1-norm condition
  estimation from existing LU factors, driving drop-tolerance
  auto-tightening;
- :mod:`repro.numerics.refine` — Oettli-Prager backward errors and
  certified fixed-precision iterative refinement with stagnation
  detection and resilience escalation;
- :mod:`repro.numerics.pipeline` — the solver-facing transform
  composing scaling + matching.

The certification drill over the stress suite is the ``numerics``
scenario of :mod:`repro.smoke`.
"""

from repro.numerics.condest import (
    condest,
    condest_from_factors,
    onenormest_inverse,
)
from repro.numerics.equilibrate import (
    EquilibrationResult,
    ruiz_equilibrate,
    scaling_quality,
)
from repro.numerics.matching import MatchingResult, maximum_product_matching
from repro.numerics.pipeline import (
    SystemTransform,
    prepare_system,
    retarget_system,
)
from repro.numerics.refine import CertifiedAccuracy, backward_errors, refine

__all__ = [
    "EquilibrationResult", "ruiz_equilibrate", "scaling_quality",
    "MatchingResult", "maximum_product_matching",
    "onenormest_inverse", "condest_from_factors", "condest",
    "CertifiedAccuracy", "backward_errors", "refine",
    "SystemTransform", "prepare_system", "retarget_system",
]
