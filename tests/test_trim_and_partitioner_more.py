"""Further behavioural tests: the unit-weight RHB cut matches the flat
metric definitions, and DBBD round-trips through permutation."""

import numpy as np
from tests.conftest import grid_laplacian

from repro.core import build_dbbd, rhb_partition
from repro.hypergraph import Hypergraph, net_connectivities


class TestConnectivityDetails:
    def test_lambda_counts_parts_not_pins(self):
        # net with 4 pins spread over 2 parts: lambda = 2 regardless of
        # pin multiplicity per part
        H = Hypergraph.from_arrays([0, 4], [0, 1, 2, 3], 4)
        part = np.array([0, 0, 1, 1])
        lam = net_connectivities(H, part, 2)
        assert lam[0] == 2

    def test_lambda_empty_net(self):
        H = Hypergraph.from_arrays([0, 0, 1], [2], 3)
        lam = net_connectivities(H, np.array([0, 1, 1]), 2)
        assert lam[0] == 0 and lam[1] == 1

    def test_partitioner_cut_matches_manual_sum(self):
        M = grid_laplacian(12, 12)
        H = Hypergraph.column_net_model(M)
        res = rhb_partition((M.T @ M).tocsr(), 4, M=M, metric="soed",
                            scheme="unit", seed=1)
        lam = net_connectivities(H, res.row_part, 4)
        manual = int(lam[lam > 1].sum())
        assert res.total_cut_cost == manual


class TestDBBDPermutationRoundTrip:
    def test_permuted_solve_equivalent(self, rng):
        """Solving the DBBD-permuted system permutes the solution."""
        import scipy.sparse.linalg as spla
        A = grid_laplacian(10, 10)
        r = rhb_partition(A, 4, seed=0)
        p = build_dbbd(A, r.col_part, 4)
        b = rng.standard_normal(100)
        x = spla.spsolve(A.tocsc(), b)
        Pm = p.permuted().tocsc()
        xp = spla.spsolve(Pm, b[p.perm])
        np.testing.assert_allclose(xp, x[p.perm], atol=1e-8)

    def test_block_extents_consistent(self, grid16):
        r = rhb_partition(grid16, 4, seed=0)
        p = build_dbbd(grid16, r.col_part, 4)
        ext = p.block_extents
        for ell in range(4):
            assert ext[ell + 1] - ext[ell] == p.subdomain_vertices(ell).size
        assert ext[-1] == grid16.shape[0]
