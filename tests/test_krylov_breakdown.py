"""Seeded stagnation paths of GMRES: the stagnation flag that drives
the solver's Krylov recovery ladder."""

from __future__ import annotations

import numpy as np

from repro.solver.gmres import gmres


def _dense_op(A):
    return lambda v: A @ v


class TestGMRESStagnation:
    def test_shift_matrix_stagnates_under_restart(self):
        """The n-cycle shift matrix makes no residual progress until the
        Krylov space reaches dimension n; with restart < n every cycle
        repeats the same stall, which the stagnation flag reports."""
        n = 20
        C = np.zeros((n, n))
        for i in range(n):
            C[i, (i + 1) % n] = 1.0
        e1 = np.zeros(n)
        e1[0] = 1.0
        res = gmres(_dense_op(C), e1, restart=5, maxiter=15)
        assert not res.converged
        assert res.stagnated

    def test_progressing_non_convergence_not_stagnated(self):
        """Running out of iterations while still reducing the residual
        is a budget problem, not a preconditioner problem — the flag
        stays off so recovery does not rebuild S~ for nothing."""
        rng = np.random.default_rng(0)
        n = 40
        A = rng.standard_normal((n, n)) + 6.0 * np.eye(n)
        b = rng.standard_normal(n)
        res = gmres(_dense_op(A), b, tol=1e-14, restart=4, maxiter=8)
        assert not res.converged
        assert res.residual_norms[-1] < res.residual_norms[0]
        assert not res.stagnated

    def test_converged_solve_never_stagnated(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((15, 15)) + 8.0 * np.eye(15)
        b = rng.standard_normal(15)
        res = gmres(_dense_op(A), b, tol=1e-12, restart=15, maxiter=100)
        assert res.converged
        assert not res.stagnated
        assert np.linalg.norm(A @ res.x - b) <= 1e-11 * np.linalg.norm(b)
