"""Invariant checks: pass on healthy pipeline stages, raise
:class:`VerificationError` on corrupted ones, and wire end-to-end
through ``verify=`` flags of the solver and partitioners."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from tests.conftest import grid_laplacian

from repro.core.dbbd import build_dbbd
from repro.core.rhb import rhb_partition
from repro.graphs.ngd import nested_dissection_partition
from repro.lu import factorize
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions
from repro.verify import NULL_VERIFIER, NullVerifier, VerificationError, Verifier


@pytest.fixture
def v():
    return Verifier()


class TestPermutation:
    def test_good(self, v):
        v.check_permutation(np.array([2, 0, 1]), 3, "t")
        assert v.checks_run == ["t"]

    def test_repeated_entry(self, v):
        with pytest.raises(VerificationError, match="bijection"):
            v.check_permutation(np.array([0, 0, 1]), 3, "t")

    def test_out_of_range(self, v):
        with pytest.raises(VerificationError, match="range"):
            v.check_permutation(np.array([0, 1, 3]), 3, "t")

    def test_wrong_shape(self, v):
        with pytest.raises(VerificationError, match="shape"):
            v.check_permutation(np.array([0, 1]), 3, "t")


class TestVertexSeparator:
    def test_good_ngd_result(self, v, grid8):
        res = nested_dissection_partition(grid8, 4, seed=0)
        adj = grid8 - sp.diags(grid8.diagonal())
        v.check_vertex_separator(adj, res.part, 4)
        assert "ngd.separator-complete" in v.checks_run

    def test_incomplete_separator_raises(self, v, grid8):
        res = nested_dissection_partition(grid8, 2, seed=0)
        bad = res.part.copy()
        # reassigning all separator vertices to part 0 exposes edges
        # between part 0 and part 1
        bad[bad == -1] = 0
        adj = grid8 - sp.diags(grid8.diagonal())
        with pytest.raises(VerificationError, match="separator"):
            v.check_vertex_separator(adj, bad, 2)

    def test_part_id_out_of_range(self, v):
        adj = sp.eye(3, format="csr")
        with pytest.raises(VerificationError, match="part ids"):
            v.check_vertex_separator(adj, np.array([0, 5, 1]), 2)


class TestPartitionStage:
    def test_good_partition(self, v, grid16):
        res = rhb_partition(grid16, 4, seed=0)
        p = build_dbbd(grid16, res.col_part, 4)
        v.after_partition(grid16, p)
        assert "partition.dbbd-exact" in v.checks_run

    def test_corrupted_perm_raises(self, v, grid16):
        res = rhb_partition(grid16, 4, seed=0)
        p = build_dbbd(grid16, res.col_part, 4)
        p.perm = p.perm.copy()
        p.perm[0] = p.perm[1]
        with pytest.raises(VerificationError, match="bijection"):
            v.after_partition(grid16, p)

    def test_coupling_part_raises(self, v, grid16):
        res = rhb_partition(grid16, 4, seed=0)
        p = build_dbbd(grid16, res.col_part, 4)
        bad = p.part.copy()
        bad[bad == -1] = 0  # no separator: subdomains now couple
        p2 = build_dbbd(grid16, bad, 4, validate=False)
        with pytest.raises(AssertionError):
            v.after_partition(grid16, p2)

    def test_validate_exact_detects_displaced_entry(self, grid8):
        res = rhb_partition(grid8, 2, seed=0)
        p = build_dbbd(grid8, res.col_part, 2)
        p.validate_exact()  # healthy partition tiles exactly
        p.A = p.A.copy()
        p.A.data = p.A.data.copy()
        p.A.data[0] += 1.0  # blocks were cut before the edit... rebuild
        # blocks come from p.A lazily, so instead displace the perm
        p.perm = np.roll(p.perm, 1)
        with pytest.raises(AssertionError, match="tile"):
            p.validate_exact()


class TestInterfaces:
    @staticmethod
    def _sub(e_cols, f_rows, ns=10):
        return SimpleNamespace(
            ell=0, e_cols=np.asarray(e_cols), f_rows=np.asarray(f_rows),
            E_hat=sp.csr_matrix((4, len(e_cols))),
            F_hat=sp.csr_matrix((len(f_rows), 4)))

    def test_good(self, v):
        v.after_interfaces(self._sub([1, 3, 7], [0, 2]), 10)
        assert "interfaces.e_cols-injective" in v.checks_run

    def test_not_increasing_raises(self, v):
        with pytest.raises(VerificationError, match="increasing"):
            v.after_interfaces(self._sub([3, 1, 7], [0, 2]), 10)

    def test_out_of_separator_range_raises(self, v):
        with pytest.raises(VerificationError, match="separator range"):
            v.after_interfaces(self._sub([1, 3], [0, 99]), 10)

    def test_size_mismatch_raises(self, v):
        sub = self._sub([1, 3, 7], [0, 2])
        sub.E_hat = sp.csr_matrix((4, 2))
        with pytest.raises(VerificationError, match="entries"):
            v.after_interfaces(sub, 10)


class TestLUStage:
    def test_good_factorization(self, v, grid8):
        f = factorize(grid8.tocsc())
        v.after_subdomain_lu(0, grid8, f)
        assert "lu.reconstruction" in v.checks_run

    def test_subdiagonal_in_U_raises(self, v, grid8):
        from dataclasses import replace
        f = factorize(grid8.tocsc())
        U = f.U.tolil()
        U[5, 0] = 1.0
        with pytest.raises(VerificationError, match="below the diagonal"):
            v.after_subdomain_lu(0, grid8, replace(f, U=U.tocsc()))

    def test_corrupted_values_fail_reconstruction(self, v, grid8):
        from dataclasses import replace
        f = factorize(grid8.tocsc())
        U = f.U.copy()
        U.data = U.data.copy()
        U.data[U.data.size // 2] *= 3.0
        with pytest.raises(VerificationError, match="reconstruct"):
            v.after_subdomain_lu(0, grid8, replace(f, U=U))


class TestTriangularSolveStage:
    def test_exact_solve_passes(self, v, rng):
        n = 20
        L = (sp.tril(sp.random(n, n, 0.3, random_state=rng), -1)
             + sp.eye(n)).tocsr()
        B = sp.random(n, 5, 0.4, random_state=rng, format="csr")
        import scipy.sparse.linalg as spla
        X = sp.csr_matrix(spla.spsolve_triangular(L, B.toarray(), lower=True))
        v.after_interface_solve(L, B, X, 0.0)
        assert "trsolve.residual" in v.checks_run

    def test_wrong_solution_raises(self, v, rng):
        n = 20
        L = (sp.tril(sp.random(n, n, 0.3, random_state=rng), -1)
             + sp.eye(n)).tocsr()
        B = sp.random(n, 5, 0.4, random_state=rng, format="csr")
        with pytest.raises(VerificationError, match="L X != B"):
            v.after_interface_solve(L, B, B.copy(), 0.0)

    def test_nan_raises_even_with_dropping(self, v):
        L = sp.eye(3, format="csr")
        X = sp.csr_matrix(np.array([[np.nan, 0], [0, 0], [0, 0]]))
        with pytest.raises(VerificationError, match="NaN"):
            v.after_interface_solve(L, X, X, 0.5)


class TestSchurStage:
    def test_no_drop_identity(self, v, rng):
        S = sp.random(12, 12, 0.4, random_state=rng, format="csr")
        v.after_schur_assembly(S, S, S.copy(), 0.0)
        assert "schur.no-drop-identity" in v.checks_run

    def test_tampered_value_raises(self, v, rng):
        S = sp.random(12, 12, 0.4, random_state=rng, format="csr")
        T = S.copy()
        T.data = T.data.copy()
        T.data[0] += 1.0
        with pytest.raises(VerificationError, match="drop_tol=0"):
            v.after_schur_assembly(S, S, T, 0.0)

    def test_legitimate_dropping_passes(self, v):
        S = sp.csr_matrix(np.array([[2.0, 1e-9], [1e-9, 2.0]]))
        T = sp.csr_matrix(np.diag([2.0, 2.0]))
        v.after_schur_assembly(S, S, T, 1e-6)
        assert "schur.drop-subset" in v.checks_run

    def test_dropping_must_not_alter_kept_entries(self, v):
        S = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        T = sp.csr_matrix(np.array([[2.0, 0.5], [1.0, 2.0]]))
        with pytest.raises(VerificationError, match="altered"):
            v.after_schur_assembly(S, S, T, 1e-6)

    def test_dropping_the_diagonal_raises(self, v):
        S = sp.csr_matrix(np.array([[1e-9, 1.0], [1.0, 2.0]]))
        T = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        T.eliminate_zeros()
        with pytest.raises(VerificationError, match="diagonal"):
            v.after_schur_assembly(S, S, T, 1e-6)


class TestKrylovStage:
    def test_honest_history_passes(self, v, rng):
        M = np.diag(rng.uniform(1, 2, 8))
        x = rng.standard_normal(8)
        b = M @ x
        res = SimpleNamespace(x=x, converged=True,
                              residual_norms=[1.0, 0.0])
        v.after_krylov(lambda u: M @ u, b, res)
        assert "krylov.true-residual" in v.checks_run

    def test_lying_history_raises(self, v, rng):
        M = np.diag(rng.uniform(1, 2, 8))
        b = rng.standard_normal(8)
        res = SimpleNamespace(x=np.zeros(8), converged=True,
                              residual_norms=[1.0, 1e-12])
        with pytest.raises(VerificationError, match="true residual"):
            v.after_krylov(lambda u: M @ u, b, res)

    def test_empty_history_raises(self, v):
        res = SimpleNamespace(x=np.zeros(2), converged=False,
                              residual_norms=[])
        with pytest.raises(VerificationError, match="history"):
            v.after_krylov(lambda u: u, np.ones(2), res)


class TestSolveStage:
    def test_reported_residual_must_match(self, v, grid8, rng):
        b = rng.standard_normal(grid8.shape[0])
        import scipy.sparse.linalg as spla
        x = spla.spsolve(grid8.tocsc(), b)
        r = float(np.linalg.norm(b - grid8 @ x) / np.linalg.norm(b))
        v.after_solve(grid8, b, x, r)
        with pytest.raises(VerificationError, match="reported"):
            v.after_solve(grid8, b, x, r + 0.5)


class TestEndToEnd:
    def test_pdslin_verify_runs_all_stages(self, grid16, rng):
        verifier = Verifier()
        b = rng.standard_normal(grid16.shape[0])
        res = PDSLin(grid16, PDSLinConfig(k=4, seed=0),
                     runtime=RuntimeOptions(verify=verifier)).solve(b)
        assert res.residual_norm < 1e-8
        ran = set(verifier.checks_run)
        for expected in ("partition.perm-bijection", "partition.dbbd-exact",
                         "interfaces.e_cols-injective",
                         "lu.reconstruction", "trsolve.finite",
                         "schur.assembly", "krylov.true-residual",
                         "solve.reported-residual"):
            assert expected in ran, expected

    def test_pdslin_verify_true_promotes_to_verifier(self, grid8, rng):
        solver = PDSLin(grid8, PDSLinConfig(k=2, seed=0),
                        runtime=RuntimeOptions(verify=True))
        assert isinstance(solver.verifier, Verifier)
        assert solver.verifier.enabled
        b = rng.standard_normal(grid8.shape[0])
        assert solver.solve(b).residual_norm < 1e-8

    def test_pdslin_default_is_null_verifier(self, grid8):
        solver = PDSLin(grid8, PDSLinConfig(k=2, seed=0))
        assert solver.verifier is NULL_VERIFIER
        assert not solver.verifier.enabled

    def test_rhb_verify_flag(self, grid16):
        verifier = Verifier()
        rhb_partition(grid16, 4, seed=1, verify=verifier)
        assert "rhb.cut-cost-identity" in verifier.checks_run
        assert "rhb.column-consistency" in verifier.checks_run
        assert "weights.definition" in verifier.checks_run

    def test_ngd_verify_flag(self, grid16):
        verifier = Verifier()
        nested_dissection_partition(grid16, 4, seed=1, verify=verifier)
        assert "ngd.separator-complete" in verifier.checks_run


class TestPlugins:
    def test_plugin_sees_checks(self, grid8):
        seen = []
        verifier = Verifier(plugins=[lambda name, payload:
                                     seen.append(name)])
        verifier.check_permutation(np.array([0, 1]), 2, "t")
        assert seen == ["t"]

    def test_plugin_can_fail_stage(self):
        def angry(name, payload):
            raise VerificationError("plugin.angry", "no")
        verifier = Verifier(plugins=[angry])
        with pytest.raises(VerificationError, match="angry"):
            verifier.check_permutation(np.array([0, 1]), 2, "t")


class TestNullVerifier:
    def test_all_hooks_noop(self):
        nv = NullVerifier()
        nv.check_permutation(np.array([5, 5]), 2, "t")  # would fail
        nv.after_schur_assembly(None, None, None, 0.0)   # would crash
        assert nv.checks_run == []
        assert not nv.enabled
