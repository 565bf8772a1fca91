"""Approximate global Schur complement assembly.

Implements the paper's preconditioner construction:

    T~_l = W~_l G~_l            (thresholded local update matrices)
    S^   = C - sum_l R_F T~_l R_E^T
    S~   = drop_small(S^)

and the exact (implicit) Schur operator used by the iterative solve,

    S v = C v - sum_l F_l D_l^{-1} (E_l v),

which never forms S.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.lu.numeric import LUFactors
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.solver.interfaces import SubdomainInterfaces

__all__ = ["assemble_approximate_schur", "drop_small_entries",
           "implicit_schur_matvec"]


def drop_small_entries(A: sp.spmatrix, rel_tol: float) -> sp.csr_matrix:
    """Drop entries below ``rel_tol * max|A|`` (0 keeps everything).

    Diagonal entries are always kept so the Schur factorization stays
    structurally nonsingular.

    The input is canonicalized (duplicates summed, indices sorted)
    *before* thresholding, so the threshold and the keep mask see the
    summed values — duplicate COO fragments of one entry are dropped or
    kept as a unit, never piecewise.
    """
    A = A.tocoo(copy=True)
    A.sum_duplicates()
    if rel_tol <= 0.0 or A.nnz == 0:
        out = A.tocsr()
        out.sort_indices()
        return out
    thresh = rel_tol * float(np.abs(A.data).max())
    keep = (np.abs(A.data) >= thresh) | (A.row == A.col)
    out = sp.csr_matrix((A.data[keep], (A.row[keep], A.col[keep])),
                        shape=A.shape)
    out.sum_duplicates()
    out.sort_indices()
    return out


def assemble_approximate_schur(
        C: sp.spmatrix,
        updates: Sequence[tuple[SubdomainInterfaces, sp.spmatrix]],
        *, drop_tol: float = 0.0,
                               tracer: Tracer = NULL_TRACER) -> sp.csr_matrix:
    """Form ``S~ = drop(C - sum_l R_F T~_l R_E^T)``.

    ``updates`` pairs each subdomain's interface maps with its local
    update matrix ``T~_l`` of shape (nf_l, ne_l); the maps scatter it
    into separator coordinates. ``tracer`` records a ``schur_assemble``
    span with ``schur_nnz`` / ``schur_dropped_nnz`` counters.
    """
    with tracer.span("schur_assemble", n_updates=len(updates)):
        C = C.tocsr()
        ns = C.shape[0]
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for sub, T in updates:
            T = T.tocoo()
            if T.shape != (sub.f_rows.size, sub.e_cols.size):
                raise ValueError(
                    f"subdomain {sub.ell}: T has shape {T.shape}, expected "
                    f"({sub.f_rows.size}, {sub.e_cols.size})")
            rows.append(sub.f_rows[T.row])
            cols.append(sub.e_cols[T.col])
            vals.append(-T.data)
        if rows:
            scatter = sp.csr_matrix(
                (np.concatenate(vals),
                 (np.concatenate(rows), np.concatenate(cols))), shape=(ns, ns))
            S_hat = (C + scatter).tocsr()
        else:
            S_hat = C.copy()
        S_hat.sum_duplicates()
        S_tilde = drop_small_entries(S_hat, drop_tol)
        tracer.count("schur_nnz", int(S_tilde.nnz))
        tracer.count("schur_dropped_nnz", int(S_hat.nnz - S_tilde.nnz))
    return S_tilde


def implicit_schur_matvec(
        C: sp.spmatrix,
        subs: Sequence[SubdomainInterfaces],
        factors: Sequence[LUFactors],
        E_perm: Sequence[sp.csr_matrix],
        F_perm: Sequence[sp.csr_matrix]) -> Callable[[np.ndarray], np.ndarray]:
    """Matvec closure for the exact Schur operator.

    ``factors[l]`` factorizes ``D_l[perm][:, perm]``; ``E_perm[l]`` and
    ``F_perm[l]`` are that subdomain's interface blocks in the same
    ordering, ``E^_l[perm]`` and ``F^_l[:, perm]``. ``factors`` is read
    on every call, so a caller that swaps a subdomain's factors later
    passes a live view rather than a snapshot.
    """
    C = C.tocsr()
    if not (len(subs) == len(factors) == len(E_perm) == len(F_perm)):
        raise ValueError("subs, factors, E_perm and F_perm must align")

    def matvec(v: np.ndarray) -> np.ndarray:
        out = C @ v
        for sub, f, Ep, Fp in zip(subs, factors, E_perm, F_perm):
            ve = v[sub.e_cols]
            if ve.size == 0:
                continue
            rhs = Ep @ ve
            x = f.solve(rhs)
            out[sub.f_rows] -= Fp @ x
        return out

    return matvec
