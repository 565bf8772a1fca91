"""Tests for the spectral NGD bisector."""

import numpy as np
import pytest
from tests.conftest import grid_laplacian

from repro.core import build_dbbd
from repro.graphs import nested_dissection_partition


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
