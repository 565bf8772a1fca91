"""Unit tests for the minimum-degree ordering."""

import numpy as np
import scipy.sparse as sp
from tests.conftest import grid_laplacian

from repro.ordering import (
    minimum_degree,
    permute_symmetric,
    symbolic_cholesky_row_counts,
)


def fill_of(A) -> int:
    return int(symbolic_cholesky_row_counts(A).sum())


class TestMinimumDegree:
    def test_is_permutation(self, grid8):
        order = minimum_degree(grid8)
        assert sorted(order.tolist()) == list(range(grid8.shape[0]))

    def test_reduces_fill_on_grid(self):
        A = grid_laplacian(12, 12)
        order = minimum_degree(A)
        assert fill_of(permute_symmetric(A, order)) < fill_of(A)

    def test_reduces_fill_on_random_spd(self, spd60):
        order = minimum_degree(spd60)
        # natural order of a random matrix is usually terrible; MD must
        # not be significantly worse
        assert fill_of(permute_symmetric(spd60, order)) <= fill_of(spd60)

    def test_deterministic(self, grid8):
        a = minimum_degree(grid8)
        b = minimum_degree(grid8)
        np.testing.assert_array_equal(a, b)

    def test_tridiagonal_identity_fill(self):
        # tridiagonal has no fill in natural order; MD keeps it optimal
        A = sp.diags([np.ones(9), 2 * np.ones(10), np.ones(9)],
                     [-1, 0, 1]).tocsr()
        order = minimum_degree(A)
        assert fill_of(permute_symmetric(A, order)) == fill_of(A)

    def test_star_graph_center_last(self):
        # star: eliminating the hub first creates a clique; MD must
        # defer the hub (degree n-1) to the end
        n = 8
        rows = [0] * (n - 1) + list(range(1, n))
        cols = list(range(1, n)) + [0] * (n - 1)
        A = (sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
             + 2 * sp.eye(n)).tocsr()
        order = minimum_degree(A)
        assert order[-1] == 0 or order[-2] == 0

    def test_empty_matrix(self):
        assert minimum_degree(sp.csr_matrix((0, 0))).size == 0

    def test_unsymmetric_handled(self, unsym50):
        order = minimum_degree(unsym50)
        assert sorted(order.tolist()) == list(range(50))
