"""Unit and integration tests for GMRES, Schur assembly, and PDSLin."""

import numpy as np
import pytest
import scipy.sparse as sp
from tests.conftest import grid_laplacian

from repro.core import build_dbbd
from repro.obs import Tracer
from repro.solver import (
    PDSLin,
    PDSLinConfig,
    RuntimeOptions,
    assemble_approximate_schur,
    drop_small_entries,
    extract_interfaces,
    gmres,
)


class TestGMRES:
    def test_identity(self, rng):
        b = rng.standard_normal(10)
        res = gmres(lambda v: v, b)
        assert res.converged
        np.testing.assert_allclose(res.x, b, atol=1e-10)

    def test_spd_system(self, spd60, rng):
        b = rng.standard_normal(60)
        res = gmres(lambda v: spd60 @ v, b, tol=1e-12, restart=30)
        assert res.converged
        assert np.linalg.norm(spd60 @ res.x - b) <= 1e-10 * np.linalg.norm(b)

    def test_restart_path(self, spd60, rng):
        b = rng.standard_normal(60)
        res = gmres(lambda v: spd60 @ v, b, tol=1e-10, restart=5,
                    maxiter=400)
        assert res.converged

    def test_preconditioner_accelerates(self, rng):
        # diagonal system with huge condition number
        d = np.logspace(0, 8, 50)
        A = sp.diags(d)
        b = rng.standard_normal(50)
        plain = gmres(lambda v: A @ v, b, tol=1e-8, restart=10, maxiter=100)
        prec = gmres(lambda v: A @ v, b, preconditioner=lambda v: v / d,
                     tol=1e-8, restart=10, maxiter=100)
        assert prec.converged
        assert prec.iterations < max(plain.iterations, 100)

    def test_true_residual_history(self, spd60, rng):
        b = rng.standard_normal(60)
        res = gmres(lambda v: spd60 @ v, b, tol=1e-10)
        assert res.residual_norms[0] >= res.final_residual

    def test_zero_rhs(self):
        res = gmres(lambda v: v, np.zeros(5))
        assert res.converged and res.iterations == 0

    def test_x0_honored(self, spd60, rng):
        b = rng.standard_normal(60)
        x_star = gmres(lambda v: spd60 @ v, b, tol=1e-12).x
        res = gmres(lambda v: spd60 @ v, b, x0=x_star, tol=1e-8)
        assert res.iterations == 0

    def test_nonconvergence_reported(self, rng):
        # rotation-like skew system, 2 iterations allowed only
        n = 40
        A = sp.eye(n) + 10 * sp.random(n, n, 0.2, random_state=1)
        b = rng.standard_normal(n)
        res = gmres(lambda v: A @ v, b, tol=1e-14, restart=2, maxiter=2)
        assert not res.converged

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            gmres(lambda v: v, np.ones(3), restart=0)


class TestInterfaces:
    def make_partition(self, grid16):
        from repro.graphs import nested_dissection_partition
        r = nested_dissection_partition(grid16, 2, seed=0)
        return build_dbbd(grid16, r.part, 2)

    def test_compressed_shapes(self, grid16):
        p = self.make_partition(grid16)
        sub = extract_interfaces(p, 0)
        assert sub.E_hat.shape == (sub.dim, sub.e_cols.size)
        assert sub.F_hat.shape == (sub.f_rows.size, sub.dim)

    def test_no_zero_columns_in_e_hat(self, grid16):
        p = self.make_partition(grid16)
        sub = extract_interfaces(p, 0)
        from repro.sparse.patterns import col_nnz
        assert np.all(col_nnz(sub.E_hat) > 0)

    def test_maps_reconstruct_full_e(self, grid16):
        p = self.make_partition(grid16)
        sub = extract_interfaces(p, 0)
        E = p.E(0).toarray()
        E_hat = np.zeros_like(E)
        E_hat[:, sub.e_cols] = sub.E_hat.toarray()
        np.testing.assert_array_equal(E, E_hat)


class TestSchurAssembly:
    def test_drop_small_keeps_diagonal(self):
        A = sp.csr_matrix(np.array([[1e-12, 1.0], [0.5, 1e-12]]))
        out = drop_small_entries(A, 0.1)
        assert out[0, 0] == 1e-12  # diagonal kept
        assert out[1, 1] == 1e-12

    def test_drop_zero_tol_noop(self, spd60):
        out = drop_small_entries(spd60, 0.0)
        assert (out != spd60).nnz == 0

    def test_exact_schur_against_dense(self, grid16):
        """S~ with no dropping equals the dense Schur complement."""
        from repro.graphs import nested_dissection_partition
        r = nested_dissection_partition(grid16, 2, seed=0)
        p = build_dbbd(grid16, r.part, 2)
        sep = p.separator_vertices
        # dense reference
        interior = np.flatnonzero(p.part >= 0)
        Ad = grid16.toarray()
        S_ref = Ad[np.ix_(sep, sep)] - Ad[np.ix_(sep, interior)] @ \
            np.linalg.solve(Ad[np.ix_(interior, interior)],
                            Ad[np.ix_(interior, sep)])
        # via the solver pieces with no dropping (numerics off so S~ is
        # the Schur complement of A itself, not of the scaled system)
        cfg = PDSLinConfig(k=2, partitioner="ngd", drop_interface=0.0,
                           drop_schur=0.0, seed=0, numerics=False)
        solver = PDSLin(grid16, cfg)
        solver.setup()
        S = solver.S_tilde.toarray()
        np.testing.assert_allclose(S, S_ref, atol=1e-8)

    def test_shape_mismatch_rejected(self, grid16):
        from repro.graphs import nested_dissection_partition
        r = nested_dissection_partition(grid16, 2, seed=0)
        p = build_dbbd(grid16, r.part, 2)
        sub = extract_interfaces(p, 0)
        T_bad = sp.csr_matrix((3, 3))
        with pytest.raises(ValueError):
            assemble_approximate_schur(p.C(), [(sub, T_bad)])


class TestPDSLin:
    @pytest.mark.parametrize("partitioner", ["rhb", "ngd"])
    def test_solves_grid(self, partitioner, rng):
        A = grid_laplacian(14, 14)
        b = rng.standard_normal(A.shape[0])
        solver = PDSLin(A, PDSLinConfig(k=4, partitioner=partitioner, seed=0))
        res = solver.solve(b)
        assert res.converged
        assert res.residual_norm < 1e-8

    @pytest.mark.parametrize("ordering", ["natural", "postorder", "hypergraph"])
    def test_rhs_orderings_all_work(self, ordering, rng):
        A = grid_laplacian(12, 12)
        b = rng.standard_normal(A.shape[0])
        cfg = PDSLinConfig(k=2, rhs_ordering=ordering, seed=0, block_size=8)
        res = PDSLin(A, cfg).solve(b)
        assert res.residual_norm < 1e-8

    def test_unsymmetric_system(self, rng):
        from repro.matrices import fusion_matrix
        gm = fusion_matrix(5, 5, 4, seed=0)
        b = rng.standard_normal(gm.n)
        cfg = PDSLinConfig(k=2, seed=0, gmres_tol=1e-10)
        res = PDSLin(gm.A, cfg, M=gm.M).solve(b)
        assert res.residual_norm < 1e-7

    def test_indefinite_system(self, rng):
        from repro.matrices import cavity_matrix
        gm = cavity_matrix(6, 6, 5, seed=0)
        b = rng.standard_normal(gm.n)
        cfg = PDSLinConfig(k=2, seed=0)
        res = PDSLin(gm.A, cfg, M=gm.M).solve(b)
        assert res.residual_norm < 1e-7

    def test_aggressive_dropping_needs_iterations(self, rng):
        A = grid_laplacian(14, 14)
        b = rng.standard_normal(A.shape[0])
        exact = PDSLin(A, PDSLinConfig(k=4, seed=0, drop_interface=0.0,
                                       drop_schur=0.0))
        loose = PDSLin(A, PDSLinConfig(k=4, seed=0, drop_interface=1e-2,
                                       drop_schur=1e-2))
        r_exact = exact.solve(b)
        r_loose = loose.solve(b)
        assert r_exact.iterations <= r_loose.iterations
        assert r_loose.residual_norm < 1e-7  # still converges

    def test_stage_breakdown_present(self, rng):
        A = grid_laplacian(10, 10)
        b = rng.standard_normal(A.shape[0])
        solver = PDSLin(A, PDSLinConfig(k=2, seed=0))
        solver.solve(b)
        br = solver.machine.breakdown()
        for stage in ("LU(D)", "Comp(S)", "LU(S)", "Solve", "Partition"):
            assert stage in br

    def test_schur_size_reported(self, rng):
        A = grid_laplacian(12, 12)
        solver = PDSLin(A, PDSLinConfig(k=2, seed=0))
        res = solver.solve(rng.standard_normal(A.shape[0]))
        assert res.schur_size == solver.partition.separator_size

    def test_wrong_rhs_shape(self):
        # rejected from the constructor's shape, before the on-demand
        # set-up is paid for (it used to run first)
        A = grid_laplacian(12, 12)
        tracer = Tracer()
        solver = PDSLin(A, PDSLinConfig(k=2, seed=0),
                        runtime=RuntimeOptions(tracer=tracer))
        with pytest.raises(ValueError, match=r"^b must have shape \(144,\)$"):
            solver.solve(np.ones(7))
        with pytest.raises(ValueError, match=r"^B must be \(144, nrhs\)$"):
            solver.solve_block(np.ones((7, 2)))
        assert not solver._is_setup
        assert "partition" not in {s.name for s in tracer.spans}

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            PDSLinConfig(partitioner="magic")
        with pytest.raises(ValueError):
            PDSLinConfig(rhs_ordering="sorted")
        with pytest.raises(ValueError):
            PDSLinConfig(block_size=0)

    def test_k1_direct_solve(self, rng):
        # k=1: no separator, reduces to a direct solve
        A = grid_laplacian(8, 8)
        b = rng.standard_normal(A.shape[0])
        res = PDSLin(A, PDSLinConfig(k=1, seed=0)).solve(b)
        assert res.schur_size == 0
        assert res.residual_norm < 1e-10

    def test_balance_ratio_queries(self, rng):
        A = grid_laplacian(12, 12)
        solver = PDSLin(A, PDSLinConfig(k=4, seed=0))
        solver.solve(rng.standard_normal(A.shape[0]))
        assert solver.machine.balance_ratio("LU(D)") >= 1.0
