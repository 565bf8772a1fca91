"""Tests for the solver's substrate options: subdomain ordering choice
and the spectral NGD bisector."""

import numpy as np
import pytest
from tests.conftest import grid_laplacian

from repro.core import build_dbbd
from repro.graphs import nested_dissection_partition
from repro.solver import PDSLin, PDSLinConfig


class TestSubdomainOrdering:
    @pytest.mark.parametrize("ordering", ["md", "nd", "rcm"])
    def test_all_orderings_solve(self, ordering, rng):
        A = grid_laplacian(12, 12)
        b = rng.standard_normal(A.shape[0])
        cfg = PDSLinConfig(k=2, subdomain_ordering=ordering, seed=0)
        res = PDSLin(A, cfg).solve(b)
        assert res.residual_norm < 1e-8

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError):
            PDSLinConfig(subdomain_ordering="colamd")

    def test_orderings_change_fill(self, rng):
        A = grid_laplacian(16, 16)
        fills = {}
        for ordering in ("md", "rcm"):
            solver = PDSLin(A, PDSLinConfig(k=2, seed=0,
                                            subdomain_ordering=ordering))
            solver.setup()
            fills[ordering] = sum(s.factors.fill_nnz
                                  for s in solver.subdomains)
        assert fills["md"] != fills["rcm"]  # genuinely different orders


class TestSpectralNGD:
    def test_spectral_partition_valid(self, grid16):
        r = nested_dissection_partition(grid16, 4, seed=0,
                                        bisector="spectral")
        d = build_dbbd(grid16, r.part, 4)  # validates invariant
        assert np.all(d.subdomain_sizes() > 0)

    def test_spectral_quality_comparable(self):
        A = grid_laplacian(20, 20)
        fm = nested_dissection_partition(A, 4, seed=0, bisector="fm")
        spec = nested_dissection_partition(A, 4, seed=0,
                                           bisector="spectral")
        assert spec.separator_size <= 2 * max(fm.separator_size, 1)

    def test_non_power_of_two_rejected(self, grid16):
        with pytest.raises(ValueError):
            nested_dissection_partition(grid16, 6, bisector="spectral")

    def test_unknown_bisector_rejected(self, grid16):
        with pytest.raises(ValueError):
            nested_dissection_partition(grid16, 4, bisector="metis")
