"""Subdomain/interface extraction for the Schur-complement pipeline.

From a DBBD partition, each subdomain's local system (paper Section I)

    A_l = [ D_l  E^_l ]
          [ F^_l  0   ]

uses the *compressed* interfaces: ``E^_l`` keeps only nonzero columns
of ``E_l`` and ``F^_l`` only nonzero rows of ``F_l``. The index maps
``e_cols``/``f_rows`` play the role of the interpolation matrices
``R_E``/``R_F`` (never formed explicitly — assembly scatters through
the maps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.dbbd import DBBDPartition
from repro.sparse.patterns import col_nnz, row_nnz

__all__ = ["SubdomainInterfaces", "extract_interfaces"]


@dataclass
class SubdomainInterfaces:
    """Compressed local system of one subdomain.

    Attributes
    ----------
    vertices:
        Original vertex ids of the subdomain (rows/cols of D).
    D:
        (n_l, n_l) interior block.
    E_hat / F_hat:
        Compressed interfaces, (n_l, ne) and (nf, n_l).
    e_cols / f_rows:
        Separator-local indices (0..n_S) of E_hat's columns / F_hat's
        rows — the implicit R_E / R_F maps.
    """

    ell: int
    vertices: np.ndarray
    D: sp.csr_matrix
    E_hat: sp.csr_matrix
    F_hat: sp.csr_matrix
    e_cols: np.ndarray
    f_rows: np.ndarray

    @property
    def dim(self) -> int:
        return self.D.shape[0]

    @property
    def n_interface_cols(self) -> int:
        return int(self.e_cols.size)

    @property
    def n_interface_rows(self) -> int:
        return int(self.f_rows.size)

    def permuted_D(self, perm: np.ndarray) -> sp.csc_matrix:
        """``D[perm][:, perm]`` in CSC — the matrix a subdomain's
        factors (and their SuperLU handle) are computed from."""
        return self.D[perm][:, perm].tocsc()


def extract_interfaces(p: DBBDPartition, ell: int) -> SubdomainInterfaces:
    """Extract the compressed local system of subdomain ``ell``."""
    v = p.subdomain_vertices(ell)
    E = p.E(ell)
    F = p.F(ell)
    e_cols = np.flatnonzero(col_nnz(E))
    f_rows = np.flatnonzero(row_nnz(F))
    return SubdomainInterfaces(
        ell=ell,
        vertices=v,
        D=p.D(ell),
        E_hat=E[:, e_cols].tocsr(),
        F_hat=F[f_rows].tocsr(),
        e_cols=e_cols,
        f_rows=f_rows,
    )
