"""Regression tests: explicitly stored zero entries must not confuse
structure-based code (found by hypothesis on kron-assembled matrices,
which routinely store zeros)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import build_dbbd, rhb_partition
from repro.graphs import Graph, nested_dissection_partition
from repro.ordering import elimination_tree
from repro.sparse import symmetrized


@pytest.fixture
def zeroful_grid():
    """4x4 grid operator assembled so scipy stores 96 explicit zeros."""
    nx = ny = 4
    Tx = sp.diags([-np.ones(nx - 1), 4 * np.ones(nx), -np.ones(nx - 1)],
                  [-1, 0, 1])
    Ty = sp.diags([-np.ones(ny - 1), np.zeros(ny), -np.ones(ny - 1)],
                  [-1, 0, 1])
    A = (sp.kron(sp.eye(ny), Tx) + sp.kron(Ty, sp.eye(nx))).tocsr()
    assert (A.data == 0).sum() > 0, "fixture must contain stored zeros"
    return A


class TestStoredZeros:
    def test_symmetrized_drops_zeros(self, zeroful_grid):
        S = symmetrized(zeroful_grid)
        assert (S.data == 0).sum() == 0
        # true 5-point pattern: 16 diagonal + 48 edges
        assert S.nnz == 64

    def test_graph_sees_true_pattern(self, zeroful_grid):
        g = Graph.from_matrix(zeroful_grid)
        assert g.n_edges == 24

    def test_ngd_partition_validates(self, zeroful_grid):
        for seed in range(3):
            r = nested_dissection_partition(zeroful_grid, 2, seed=seed)
            build_dbbd(zeroful_grid, r.part, 2)  # must not raise

    def test_rhb_partition_validates(self, zeroful_grid):
        r = rhb_partition(zeroful_grid, 2, seed=0)
        build_dbbd(zeroful_grid, r.col_part, 2)

    def test_etree_ignores_zeros(self, zeroful_grid):
        par_zeroful = elimination_tree(symmetrized(zeroful_grid))
        dense = zeroful_grid.toarray()
        clean = sp.csr_matrix(dense)
        par_clean = elimination_tree(symmetrized(clean))
        np.testing.assert_array_equal(par_zeroful, par_clean)
