"""The solve-phase operators that are fixed once set-up has run.

Every ``solve(b)`` / ``solve_block(B)`` needs, per subdomain, the
interface blocks in the ordering its factors were computed in,
``E^_l[perm]`` and ``F^_l[:, perm]``, plus the separator block ``C``
and the exact-Schur matvec built from them. None of these can change
between ``setup()`` and the next ``update_matrix()``, so they are
sliced out once here instead of once (or twice) per right-hand side.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.core.dbbd import DBBDPartition
from repro.lu.numeric import LUFactors
from repro.solver.schur import implicit_schur_matvec

__all__ = ["SolvePlan"]


class _LiveFactors(Sequence):
    """``subdomains[l].factors`` read at access time: the ABFT
    ``sdc-refactorize`` recovery swaps a subdomain's factors mid-solve
    and the matvec built before the swap must see the fresh ones."""

    def __init__(self, subdomains):
        self._subdomains = subdomains

    def __len__(self) -> int:
        return len(self._subdomains)

    def __getitem__(self, ell: int) -> LUFactors:
        return self._subdomains[ell].factors


@dataclass
class SolvePlan:
    """What one solver session reuses for every right-hand side.

    ``E_perm[l]`` / ``F_perm[l]`` are the compressed interface blocks
    of subdomain ``l`` with rows / columns in its factor ordering;
    ``matvec`` is the exact Schur operator ``v -> C v - sum_l F_l
    D_l^{-1} E_l v`` over those same block objects.
    """

    C: sp.csr_matrix
    E_perm: list[sp.csr_matrix]
    F_perm: list[sp.csr_matrix]
    matvec: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def build(cls, partition: DBBDPartition, subdomains) -> "SolvePlan":
        """Slice the blocks for ``subdomains`` (a list of
        :class:`~repro.solver.pdslin.SubdomainComputation`, kept by
        reference so later factor swaps are seen)."""
        C = partition.C()
        E_perm = [s.interfaces.E_hat[s.perm].tocsr() for s in subdomains]
        F_perm = [s.interfaces.F_hat[:, s.perm].tocsr() for s in subdomains]
        matvec = implicit_schur_matvec(
            C, [s.interfaces for s in subdomains], _LiveFactors(subdomains),
            E_perm, F_perm)
        return cls(C=C, E_perm=E_perm, F_perm=F_perm, matvec=matvec)
