"""Differential verification subsystem (``repro.verify``).

Three layers:

- :mod:`repro.verify.oracles` — independent reference implementations
  (dense/scipy/plain-Python) of every hot kernel;
- :mod:`repro.verify.invariants` — pluggable post-stage assertions,
  armed through ``PDSLin(..., runtime=RuntimeOptions(verify=True))``
  and the partitioners' ``verify=`` flags;
- :mod:`repro.verify.differential` / :mod:`repro.verify.fuzz` — whole-
  pipeline differential checks and the seeded fuzz harness
  (``python -m repro.verify.fuzz``).

Only the oracles and invariants are imported eagerly: the solver
imports this package for its ``verify=`` flag, so the differential and
fuzz layers (which import the solver) load lazily.
"""

from repro.verify.invariants import (
    NULL_VERIFIER,
    NullVerifier,
    VerificationError,
    Verifier,
)
from repro.verify.oracles import (
    cut_metrics_reference,
    dense_exact_schur,
    dense_triangular_solve_oracle,
    lu_reconstruction_error,
    materialize_operator,
    normwise_backward_error,
    padded_zeros_bruteforce,
    rhb_cut_cost_reference,
    soed_identity_gap,
    splu_solve_oracle,
    vertex_weights_reference,
)

__all__ = [
    "NULL_VERIFIER",
    "NullVerifier",
    "VerificationError",
    "Verifier",
    "cut_metrics_reference",
    "dense_exact_schur",
    "dense_triangular_solve_oracle",
    "lu_reconstruction_error",
    "materialize_operator",
    "normwise_backward_error",
    "padded_zeros_bruteforce",
    "rhb_cut_cost_reference",
    "soed_identity_gap",
    "splu_solve_oracle",
    "vertex_weights_reference",
]
