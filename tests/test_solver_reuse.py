"""Tests for setup reuse: numeric refactorization (update_matrix) and
multi-RHS solves."""

import numpy as np
import pytest
import scipy.sparse as sp
from tests.conftest import (
    grid_laplacian,
    reachable_objects,
    retained_bytes_per_call,
)

from repro.matrices import generate
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions


@pytest.fixture
def system():
    A = grid_laplacian(12, 12)
    solver = PDSLin(A, PDSLinConfig(k=4, seed=0))
    solver.setup()
    return A, solver


class TestUpdateMatrix:
    def test_refactorize_scaled_matrix(self, system, rng):
        A, solver = system
        part_before = solver.partition.part.copy()
        A2 = (2.5 * A).tocsr()
        solver.update_matrix(A2)
        np.testing.assert_array_equal(solver.partition.part, part_before)
        b = rng.standard_normal(A.shape[0])
        res = solver.solve(b)
        assert res.residual_norm < 1e-8
        np.testing.assert_allclose(A2 @ res.x, b, atol=1e-7)

    def test_value_perturbation(self, system, rng):
        A, solver = system
        A2 = A.copy()
        A2.data = A2.data * (1.0 + 0.05 * rng.random(A2.nnz))
        A2 = A2 + A2.T  # keep it solvable and same pattern
        A2 = A2.tocsr()
        solver.update_matrix(A2)
        b = rng.standard_normal(A.shape[0])
        res = solver.solve(b)
        assert np.linalg.norm(A2 @ res.x - b) <= \
            1e-7 * np.linalg.norm(b)

    def test_pattern_change_rejected(self, system):
        A, solver = system
        A2 = A.tolil()
        A2[0, 50] = 1.0
        A2[50, 0] = 1.0
        with pytest.raises(ValueError):
            solver.update_matrix(sp.csr_matrix(A2))

    def test_shape_change_rejected(self, system):
        _, solver = system
        with pytest.raises(ValueError):
            solver.update_matrix(grid_laplacian(6, 6))

    def test_before_setup_rejected(self):
        solver = PDSLin(grid_laplacian(8, 8), PDSLinConfig(k=2))
        with pytest.raises(ValueError):
            solver.update_matrix(grid_laplacian(8, 8))


class TestSolveMultiple:
    def test_columns_solved(self, system, rng):
        A, solver = system
        B = rng.standard_normal((A.shape[0], 3))
        results = solver.solve_block(B)
        assert len(results) == 3
        for j, res in enumerate(results):
            np.testing.assert_allclose(A @ res.x, B[:, j], atol=1e-7)

    def test_bad_shape(self, system):
        _, solver = system
        with pytest.raises(ValueError):
            solver.solve_block(np.ones(5))
        with pytest.raises(ValueError):
            solver.solve_block(np.ones((7, 2)))

    def test_runs_setup_on_demand(self, rng):
        A = grid_laplacian(8, 8)
        solver = PDSLin(A, PDSLinConfig(k=2, seed=0))
        B = rng.standard_normal((64, 2))
        results = solver.solve_block(B)
        assert all(r.converged for r in results)


class TestWarmSolvesRetainNothing:
    """A warm solve books its stage time into per-stage totals and keeps
    no per-call record: serving traffic for hours must not grow the
    solver (default ``NullTracer`` configuration)."""

    def test_solve_and_solve_block_leave_the_machine_as_it_was(self, rng):
        A = generate("tdr190k", "tiny").A.tocsr()
        # serial whatever REPRO_BACKEND says: the machine under test is
        # the same on every backend, while a pool's transport buffers
        # (queue feeder pickles, unsealed results) would be counted too
        solver = PDSLin(A, PDSLinConfig(k=4, seed=0),
                        runtime=RuntimeOptions(backend="serial"))
        solver.setup()
        b = rng.standard_normal(A.shape[0])
        B = rng.standard_normal((A.shape[0], 8))
        for _ in range(20):
            solver.solve(b)
        solver.solve_block(B)
        objects = reachable_objects(solver.machine)
        stages = solver.machine.stage_names()
        calls = [lambda: solver.solve(b)] * 200 \
            + [lambda: solver.solve_block(B)] * 10
        assert retained_bytes_per_call(calls) < 200
        assert reachable_objects(solver.machine) == objects
        assert solver.machine.stage_names() == stages
