"""The solver-facing numerics pre-pass: scaling + static-pivot matching.

Composes :func:`repro.numerics.equilibrate.ruiz_equilibrate` and
:func:`repro.numerics.matching.maximum_product_matching` into one
transform of the posed system ``A x = b`` into the working system

    A_w y = b_w,    A_w = P R A C,    b_w = P R b,    x = C y,

where ``R``/``C`` are the Ruiz scalings and ``P`` permutes the
maximum-product matching onto the diagonal. Everything downstream of
the transform — DBBD partitioning, subdomain LU, interface solves,
Schur assembly, the Krylov solve — operates on ``A_w`` only; the
solver maps right-hand sides in and solutions back out through this
object. The column space is never permuted, so solution vectors keep
their original indexing and only the diagonal scaling ``C`` applies on
the way out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.numerics.equilibrate import EquilibrationResult, ruiz_equilibrate
from repro.numerics.matching import MatchingResult, maximum_product_matching
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils import check_csr

__all__ = ["SystemTransform", "prepare_system", "retarget_system"]

#: Ruiz sweep budget and stopping tolerance (max deviation of the row
#: and column inf-norms from 1).
EQUILIBRATE_ITERS = 20
EQUILIBRATE_TOL = 1e-2
#: Matching engages only when some scaled ``|a_ii|`` falls below this.
MATCHING_THRESHOLD = 1e-3


@dataclass
class SystemTransform:
    """Diagonal scalings plus the matching row permutation.

    ``row_scale``/``col_scale`` are all-ones and ``row_perm`` is the
    identity for whichever stages were disabled, so the transform is
    always safe to apply unconditionally.
    """

    A_work: sp.csr_matrix
    row_scale: np.ndarray
    col_scale: np.ndarray
    row_perm: np.ndarray
    equilibration: EquilibrationResult | None = None
    matching: MatchingResult | None = None

    @property
    def is_identity(self) -> bool:
        n = self.A_work.shape[0]
        return (self.equilibration is None or
                (np.all(self.row_scale == 1.0)
                 and np.all(self.col_scale == 1.0))) and \
            (self.matching is None
             or bool(np.array_equal(self.row_perm, np.arange(n))))

    def scale_rhs(self, b: np.ndarray) -> np.ndarray:
        """``P R b`` — the working right-hand side. Accepts a 1-D
        vector or a 2-D block (one column per right-hand side); the
        transform is diagonal + row permutation, so each block column
        is bit-identical to scaling it alone."""
        b = np.asarray(b, dtype=np.float64)
        scale = self.row_scale[:, None] if b.ndim == 2 else self.row_scale
        return (scale * b)[self.row_perm]

    def unscale_solution(self, y: np.ndarray) -> np.ndarray:
        """``C y`` — map a working-system solution back to ``A x = b``
        (columnwise on a 2-D block)."""
        y = np.asarray(y, dtype=np.float64)
        scale = self.col_scale[:, None] if y.ndim == 2 else self.col_scale
        return scale * y

    def transform_matrix(self, A: sp.spmatrix) -> sp.csr_matrix:
        """``P R A C`` for a matrix with the same pattern (refreshed
        values): reuses the stored permutation, recomputes nothing."""
        A = check_csr(A)
        W = sp.diags(self.row_scale) @ A @ sp.diags(self.col_scale)
        return W.tocsr()[self.row_perm].tocsr()

    def to_dict(self) -> dict:
        out: dict = {
            "equilibrated": self.equilibration is not None,
            "matched": self.matching is not None,
        }
        if self.equilibration is not None:
            out["equilibrate_iters"] = int(self.equilibration.iterations)
            out["equilibrate_converged"] = bool(self.equilibration.converged)
        if self.matching is not None:
            out["matching_identity"] = bool(self.matching.identity)
            out["matched_fraction"] = float(self.matching.matched_fraction)
        return out


def prepare_system(A: sp.spmatrix, *, equilibrate: bool = True,
                   matching: bool = True,
                   tracer: Tracer = NULL_TRACER) -> SystemTransform:
    """Build the working system for ``A`` (see module docstring).

    Tracer spans: one ``equilibrate`` span (counter
    ``equilibrate_iters``) and one ``matching`` span (counters
    ``matching_identity`` 0/1, ``matched_diagonal``, or
    ``matching_skipped``). Matching runs on the *scaled* matrix —
    after equilibration all magnitudes are O(1), which is exactly the
    regime where log-product matching is well-posed.

    Matching is *gated on need* (the MUMPS-style "auto" policy): a row
    permutation helps when the scaled diagonal has weak or missing
    pivots, but on near-symmetric matrices with an adequate diagonal it
    destroys structure the dropped Schur preconditioner relies on. The
    permutation is therefore only computed and applied when some scaled
    ``|a_ii| <`` :data:`MATCHING_THRESHOLD` (a structurally zero diagonal
    always qualifies).
    """
    A = check_csr(A)
    n = A.shape[0]
    row_scale = np.ones(n)
    col_scale = np.ones(n)
    row_perm = np.arange(n, dtype=np.int64)
    eq: EquilibrationResult | None = None
    mt: MatchingResult | None = None
    A_work = A
    if equilibrate:
        with tracer.span("equilibrate"):
            eq = ruiz_equilibrate(A, max_iters=EQUILIBRATE_ITERS,
                                  tol=EQUILIBRATE_TOL)
            A_work = eq.A_scaled
            row_scale = eq.row_scale
            col_scale = eq.col_scale
            tracer.count("equilibrate_iters", eq.iterations)
    if matching:
        with tracer.span("matching"):
            d = np.abs(A_work.diagonal())
            if n > 0 and float(d.min()) >= MATCHING_THRESHOLD:
                tracer.count("matching_skipped")
            else:
                mt = maximum_product_matching(A_work)
                row_perm = mt.row_perm
                if not mt.identity:
                    A_work = A_work[row_perm].tocsr()
                tracer.count("matching_identity", int(mt.identity))
                tracer.count("matched_diagonal",
                             int(round(mt.matched_fraction * n)))
    return SystemTransform(A_work=A_work, row_scale=row_scale,
                           col_scale=col_scale, row_perm=row_perm,
                           equilibration=eq, matching=mt)


def retarget_system(prep: SystemTransform,
                    A_new: sp.spmatrix) -> SystemTransform:
    """Rebuild a transform for *fresh values on the same pattern* (the
    ``update_matrix`` path): the matching row permutation is reused —
    the DBBD partition was computed on the permuted matrix and must not
    move — while the Ruiz scalings are recomputed for the new values.
    """
    A_new = check_csr(A_new)
    n = A_new.shape[0]
    row_scale = np.ones(n)
    col_scale = np.ones(n)
    eq: EquilibrationResult | None = None
    A_work = A_new
    if prep.equilibration is not None:
        eq = ruiz_equilibrate(A_new, max_iters=EQUILIBRATE_ITERS,
                              tol=EQUILIBRATE_TOL)
        A_work = eq.A_scaled
        row_scale = eq.row_scale
        col_scale = eq.col_scale
    if prep.matching is not None and not prep.matching.identity:
        A_work = A_work[prep.row_perm].tocsr()
    return SystemTransform(A_work=A_work, row_scale=row_scale,
                           col_scale=col_scale, row_perm=prep.row_perm,
                           equilibration=eq, matching=prep.matching)
