"""Tests for static-weight k-way hypergraph partitioning: RHB with unit
vertex weights (``rhb_partition(scheme="unit")``), the "standard
partitioning method" the paper compares its dynamic weights against."""

import numpy as np
import pytest
from tests.conftest import grid_laplacian

from repro.core import rhb_partition
from repro.hypergraph import Hypergraph, cutsize, imbalance

M_GRID = grid_laplacian(16, 16)


def _unit_rhb(M, k, **kw):
    """k-way partition of the rows of ``M`` (the vertices of its
    column-net hypergraph) under static unit weights."""
    return rhb_partition((M.T @ M).tocsr(), k, M=M, scheme="unit", **kw)


@pytest.fixture(scope="module")
def grid_h():
    return Hypergraph.column_net_model(M_GRID)


class TestPartitionHypergraph:
    @pytest.mark.parametrize("metric", ["con1", "cnet", "soed"])
    def test_all_metrics_run(self, grid_h, metric):
        res = _unit_rhb(M_GRID, 4, metric=metric, seed=0)
        assert res.total_cut_cost == cutsize(grid_h, res.row_part, 4, metric)
        counts = np.bincount(res.row_part, minlength=4)
        assert np.all(counts > 0)

    def test_balance_bound(self, grid_h):
        res = _unit_rhb(M_GRID, 4, epsilon=0.05, seed=0)
        # recursive bisection compounds epsilon; allow modest slack
        assert imbalance(grid_h, res.row_part, 4)[0] <= 0.25

    def test_k1_trivial(self):
        res = _unit_rhb(M_GRID, 1, seed=0)
        assert res.total_cut_cost == 0
        assert np.all(res.row_part == 0)

    def test_cut_reasonable_on_grid(self, grid_h):
        res = _unit_rhb(M_GRID, 4, metric="con1", seed=0)
        # 3 straight cuts cost ~3*2*16 connectivity; anything < 160 is sane
        assert cutsize(grid_h, res.row_part, 4, "con1") < 160

    def test_deterministic(self):
        a = _unit_rhb(M_GRID, 4, seed=5)
        b = _unit_rhb(M_GRID, 4, seed=5)
        np.testing.assert_array_equal(a.row_part, b.row_part)
