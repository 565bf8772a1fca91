"""Unit tests for the numerics layer: Ruiz equilibration, maximum-
product matching, Hager-Higham condition estimation, backward errors,
iterative refinement, and the Krylov input guards."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from tests.conftest import grid_laplacian, random_unsymmetric

from repro.lu.numeric import factorize
from repro.numerics import (
    CertifiedAccuracy,
    backward_errors,
    condest_from_factors,
    maximum_product_matching,
    onenormest_inverse,
    prepare_system,
    refine,
    retarget_system,
    ruiz_equilibrate,
    scaling_quality,
)
from repro.solver.gmres import gmres


def _ill_scaled(n: int = 60, decades: float = 6.0,
                seed: int = 0) -> sp.csr_matrix:
    """A benign operator wrapped in a wild diagonal scaling."""
    rng = np.random.default_rng(seed)
    base = grid_laplacian(int(np.sqrt(n)) + 1, int(np.sqrt(n)) + 1)
    m = base.shape[0]
    d = 10.0 ** (decades * (rng.random(m) - 0.5))
    return (sp.diags(d) @ base @ sp.diags(d)).tocsr()


# ---------------------------------------------------------------------------
# equilibration
# ---------------------------------------------------------------------------

class TestRuizEquilibration:
    def test_unit_row_col_maxima(self):
        A = _ill_scaled()
        eq = ruiz_equilibrate(A)
        assert eq.converged
        S = eq.A_scaled
        rmax = np.array([np.abs(S.getrow(i).data).max()
                         for i in range(S.shape[0])])
        cmax = np.array([np.abs(S.getcol(j).data).max()
                         for j in range(S.shape[1])])
        assert np.all(np.abs(rmax - 1.0) <= 1e-2)
        assert np.all(np.abs(cmax - 1.0) <= 1e-2)

    def test_scaled_matrix_is_rac(self):
        A = _ill_scaled(seed=1)
        eq = ruiz_equilibrate(A)
        RAC = sp.diags(eq.row_scale) @ A @ sp.diags(eq.col_scale)
        assert np.allclose(eq.A_scaled.toarray(), RAC.toarray())

    def test_round_trip_solution(self):
        # solving (R A C) y = R b and returning C y must solve A x = b
        A = _ill_scaled(seed=2)
        rng = np.random.default_rng(2)
        b = A @ rng.standard_normal(A.shape[0])
        eq = ruiz_equilibrate(A)
        y = spla.spsolve(eq.A_scaled.tocsc(), eq.scale_rhs(b))
        x = eq.unscale_solution(y)
        berr, _ = backward_errors(A, x, b)
        assert berr < 1e-12

    def test_quality_improves(self):
        A = _ill_scaled(seed=3)
        eq = ruiz_equilibrate(A)
        assert scaling_quality(eq.A_scaled) < 0.05
        assert scaling_quality(A) > 1.0

    def test_zero_row_and_column_keep_unit_scale(self):
        A = sp.csr_matrix(np.array([[1e6, 0.0], [0.0, 0.0]]))
        eq = ruiz_equilibrate(A)
        assert eq.row_scale[1] == 1.0
        assert eq.col_scale[1] == 1.0
        assert np.isclose(np.abs(eq.A_scaled[0, 0]), 1.0)

    def test_already_equilibrated_is_noop(self):
        A = sp.eye(5, format="csr")
        eq = ruiz_equilibrate(A)
        assert eq.converged
        assert eq.iterations == 0
        assert np.all(eq.row_scale == 1.0)

    def test_invalid_args(self):
        A = sp.eye(3, format="csr")
        with pytest.raises(ValueError):
            ruiz_equilibrate(A, max_iters=-1)
        with pytest.raises(ValueError):
            ruiz_equilibrate(A, tol=0.0)


# ---------------------------------------------------------------------------
# maximum-product matching
# ---------------------------------------------------------------------------

def _brute_force_log10_product(A: sp.csr_matrix) -> float:
    """Max over all permutations of sum_j log10 |A[p(j), j]|."""
    D = np.abs(A.toarray())
    n = D.shape[0]
    best = -np.inf
    for p in itertools.permutations(range(n)):
        vals = D[list(p), range(n)]
        if np.all(vals > 0):
            best = max(best, float(np.log10(vals).sum()))
    return best


class TestMaximumProductMatching:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_optimal_vs_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        # dense-ish random magnitudes spanning several decades
        M = 10.0 ** (3 * rng.standard_normal((n, n)))
        M[rng.random((n, n)) < 0.3] = 0.0
        np.fill_diagonal(M, np.where(np.diag(M) == 0, 1e-8, np.diag(M)))
        A = sp.csr_matrix(M)
        mt = maximum_product_matching(A)
        assert np.array_equal(np.sort(mt.row_perm), np.arange(n))
        assert mt.log10_product == pytest.approx(
            _brute_force_log10_product(A), abs=1e-8)

    def test_dominant_diagonal_fast_path(self):
        A = grid_laplacian(5, 5)
        mt = maximum_product_matching(A)
        assert mt.identity
        assert mt.is_perfect
        assert np.array_equal(mt.row_perm, np.arange(A.shape[0]))

    def test_apply_moves_large_entries_to_diagonal(self):
        # a cyclic shift of a dominant diagonal: matching must undo it
        n = 8
        base = sp.diags(np.arange(1.0, n + 1)).tocsr() \
            + 0.01 * sp.random(n, n, 0.3,
                               random_state=np.random.default_rng(0),
                               format="csr")
        perm = np.roll(np.arange(n), 1)
        A = base.tocsr()[perm].tocsr()
        mt = maximum_product_matching(A)
        assert not mt.identity
        d = np.abs(mt.apply(A).diagonal())
        assert np.all(d >= 1.0)

    def test_structurally_deficient(self):
        # column 2 has no nonzero: maximum matching, not perfect
        A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0],
                                    [3.0, 4.0, 0.0],
                                    [5.0, 6.0, 0.0]]))
        mt = maximum_product_matching(A)
        assert not mt.is_perfect
        assert mt.matched_fraction == pytest.approx(2.0 / 3.0)
        assert np.array_equal(np.sort(mt.row_perm), np.arange(3))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            maximum_product_matching(sp.csr_matrix((2, 3)))

    def test_empty_matrix(self):
        mt = maximum_product_matching(sp.csr_matrix((0, 0)))
        assert mt.identity and mt.is_perfect


# ---------------------------------------------------------------------------
# condition estimation
# ---------------------------------------------------------------------------

class TestCondest:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_factor_of_truth(self, seed):
        A = random_unsymmetric(40, 0.2, seed=seed)
        factors = factorize(A.tocsc())
        est = condest_from_factors(A, factors)
        dense = A.toarray()
        true = np.linalg.norm(dense, 1) * np.linalg.norm(
            np.linalg.inv(dense), 1)
        # Hager's estimate is a lower bound, almost always a tight one
        assert est <= true * 1.01
        assert est >= 0.1 * true

    def test_identity_is_one(self):
        A = sp.eye(10, format="csc")
        est = condest_from_factors(A, factorize(A))
        assert est == pytest.approx(1.0, rel=0.5)

    def test_detects_ill_conditioning(self):
        d = 10.0 ** -np.linspace(0, 12, 30)
        A = sp.diags(d).tocsc()
        est = condest_from_factors(A, factorize(A))
        assert est > 1e11

    def test_onenormest_diagonal_exact(self):
        d = np.array([1.0, 0.5, 0.25, 5.0])
        solve = lambda v: v / d
        est = onenormest_inverse(solve, solve, d.size)
        assert est == pytest.approx(1.0 / d.min(), rel=1e-12)


# ---------------------------------------------------------------------------
# backward errors
# ---------------------------------------------------------------------------

class TestBackwardErrors:
    def test_exact_solution_is_zero(self, grid8):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(grid8.shape[0])
        b = grid8 @ x
        berr, nberr = backward_errors(grid8, x, b)
        assert berr < 1e-14
        assert nberr < 1e-15

    def test_row_scaling_invariance(self, grid8):
        # componentwise berr must not change under row scaling — this is
        # what lets PDSLin certify against the ORIGINAL system while
        # solving the equilibrated one
        rng = np.random.default_rng(1)
        n = grid8.shape[0]
        x = rng.standard_normal(n)
        b = grid8 @ rng.standard_normal(n)
        d = 10.0 ** (4 * (rng.random(n) - 0.5))
        b1, _ = backward_errors(grid8, x, b)
        b2, _ = backward_errors(sp.diags(d) @ grid8, x, d * b)
        assert b1 == pytest.approx(b2, rel=1e-10)

    def test_zero_denominator_with_residual_is_inf(self):
        A = sp.csr_matrix((2, 2))
        berr, _ = backward_errors(A, np.zeros(2), np.zeros(2),
                                  r=np.array([1.0, 0.0]))
        assert berr == float("inf")

    def test_all_zero_system(self):
        A = sp.csr_matrix((2, 2))
        berr, nberr = backward_errors(A, np.zeros(2), np.zeros(2))
        assert berr == 0.0
        assert nberr == 0.0


# ---------------------------------------------------------------------------
# iterative refinement
# ---------------------------------------------------------------------------

class TestRefine:
    def _system(self, seed=0):
        A = grid_laplacian(8, 8)
        rng = np.random.default_rng(seed)
        b = A @ rng.standard_normal(A.shape[0])
        lu = spla.splu(A.tocsc())
        return A, b, lu

    def test_exact_solver_certifies_quickly(self):
        A, b, lu = self._system()
        x0 = lu.solve(b) + 1e-6  # perturbed start
        x, acc = refine(A, b, x0, lu.solve, cond_est=100.0)
        assert isinstance(acc, CertifiedAccuracy)
        assert acc.certified
        assert acc.berr <= 1e-12
        assert acc.refine_steps <= 2
        assert not acc.stagnated
        assert np.isfinite(acc.ferr_bound)

    def test_stagnation_detected_with_useless_solver(self):
        A, b, lu = self._system(1)
        x0 = np.zeros(b.size)
        x, acc = refine(A, b, x0, lambda r: np.zeros_like(r))
        assert acc.stagnated
        assert not acc.certified
        assert acc.refine_steps <= 2
        assert acc.escalations == 0

    def test_stall_escalation_recovers(self):
        # inner solver is useless until on_stall "rebuilds" it; refine
        # must escalate exactly once and then certify
        A, b, lu = self._system(2)
        state = {"good": False, "stalls": 0}

        def solve(r):
            return lu.solve(r) if state["good"] else np.zeros_like(r)

        def on_stall():
            state["good"] = True
            state["stalls"] += 1
            return True

        x, acc = refine(A, b, np.zeros(b.size), solve, on_stall=on_stall)
        assert state["stalls"] == 1
        assert acc.escalations == 1
        assert acc.certified
        assert acc.berr <= 1e-12

    def test_stall_escalation_declined(self):
        A, b, lu = self._system(3)
        x, acc = refine(A, b, np.zeros(b.size),
                        lambda r: np.zeros_like(r), on_stall=lambda: False)
        assert acc.stagnated
        assert acc.escalations == 0

    def test_nonfinite_correction_keeps_best_iterate(self):
        A, b, lu = self._system(4)
        x0 = lu.solve(b)
        x, acc = refine(A, b, x0, lambda r: np.full_like(r, np.nan))
        assert np.array_equal(x, x0)
        assert np.all(np.isfinite(x))

    def test_best_iterate_returned_when_later_steps_worsen(self):
        A, b, lu = self._system(5)
        calls = {"n": 0}

        def solve(r):
            calls["n"] += 1
            # first correction is exact, later ones are sabotage
            return lu.solve(r) if calls["n"] == 1 \
                else 10.0 * np.ones_like(r)

        x, acc = refine(A, b, np.zeros(b.size), solve, tol=0.0, maxiter=3)
        assert acc.berr <= 1e-12
        berr_direct, _ = backward_errors(A, x, b)
        assert berr_direct == pytest.approx(acc.berr)

    def test_history_and_dict(self):
        A, b, lu = self._system(6)
        _, acc = refine(A, b, np.zeros(b.size), lu.solve, cond_est=50.0)
        d = acc.to_dict()
        assert d["berr"] == acc.berr
        assert d["refine_steps"] == acc.refine_steps
        assert len(acc.berr_history) == acc.refine_steps + 1
        assert "CERTIFIED" in acc.describe()


# ---------------------------------------------------------------------------
# system-transform pipeline
# ---------------------------------------------------------------------------

class TestPrepareSystem:
    def test_working_system_equivalence(self):
        A = _ill_scaled(seed=7)
        rng = np.random.default_rng(7)
        b = A @ rng.standard_normal(A.shape[0])
        prep = prepare_system(A)
        y = spla.spsolve(prep.A_work.tocsc(), prep.scale_rhs(b))
        x = prep.unscale_solution(y)
        berr, _ = backward_errors(A, x, b)
        assert berr < 1e-12

    def test_matching_gated_off_for_adequate_diagonal(self):
        prep = prepare_system(grid_laplacian(6, 6))
        assert prep.matching is None
        assert np.array_equal(prep.row_perm, np.arange(36))

    def test_matching_engages_on_weak_diagonal(self):
        n = 8
        base = sp.diags(np.full(n, 2.0)).tocsr() + sp.eye(n, k=1) * 0.1
        A = base.tocsr()[np.roll(np.arange(n), 1)].tocsr()
        prep = prepare_system(A)
        assert prep.matching is not None
        assert not prep.matching.identity
        assert np.abs(prep.A_work.diagonal()).min() > 0.5

    def test_retarget_reuses_permutation(self):
        n = 8
        base = sp.diags(np.full(n, 2.0)).tocsr() + sp.eye(n, k=1) * 0.1
        A = base.tocsr()[np.roll(np.arange(n), 1)].tocsr()
        prep = prepare_system(A)
        A2 = A.copy()
        A2.data *= 3.0
        prep2 = retarget_system(prep, A2)
        assert np.array_equal(prep2.row_perm, prep.row_perm)
        rng = np.random.default_rng(8)
        b = A2 @ rng.standard_normal(n)
        y = spla.spsolve(prep2.A_work.tocsc(), prep2.scale_rhs(b))
        x = prep2.unscale_solution(y)
        berr, _ = backward_errors(A2, x, b)
        assert berr < 1e-12

    def test_disabled_stages_are_identity(self, grid8):
        prep = prepare_system(grid8, equilibrate=False, matching=False)
        assert prep.is_identity
        assert prep.equilibration is None and prep.matching is None


# ---------------------------------------------------------------------------
# Krylov entry guards (satellite regressions)
# ---------------------------------------------------------------------------

class TestKrylovGuards:
    def _op(self, grid8):
        return lambda v: grid8 @ v

    def test_gmres_zero_rhs(self, grid8):
        res = gmres(self._op(grid8), np.zeros(grid8.shape[0]))
        assert res.converged
        assert res.iterations == 0
        assert np.all(res.x == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_gmres_rejects_nonfinite_rhs(self, grid8, bad):
        b = np.ones(grid8.shape[0])
        b[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gmres(self._op(grid8), b)

    def test_gmres_rejects_nonfinite_x0(self, grid8):
        b = np.ones(grid8.shape[0])
        x0 = np.zeros_like(b)
        x0[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            gmres(self._op(grid8), b, x0=x0)

