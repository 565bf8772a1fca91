"""The per-session ``SolvePlan``: the permuted interface blocks, the
separator block and the exact-Schur matvec are built once per set-up,
every solve reads them, and every event that changes what they were
built from replaces (or is seen through) them.

Parity here is bitwise: the plan holds the same CSR blocks the solve
phase used to slice out per call, applied in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._index as sparse_index
from tests.conftest import grid_laplacian, random_unsymmetric

from repro.matrices import generate
from repro.obs import Tracer
from repro.resilience import abft
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions, SolvePlan


def _cfg(**kw) -> PDSLinConfig:
    kw.setdefault("k", 4)
    kw.setdefault("block_size", 16)
    kw.setdefault("seed", 0)
    return PDSLinConfig(**kw)


def _rhs(A, seed=0):
    return np.random.default_rng(seed).standard_normal(A.shape[0])


def _block(A, p=5, seed=0):
    return np.random.default_rng(seed).standard_normal((A.shape[0], p))


def _adhoc_matvec(solver: PDSLin):
    """The exact Schur operator the way every solve used to build it:
    fresh slices of the partition and interface blocks."""
    C = solver.partition.C()
    parts = [(s.interfaces, s.factors,
              s.interfaces.E_hat[s.perm].tocsr(),
              s.interfaces.F_hat[:, s.perm].tocsr())
             for s in solver.subdomains]

    def matvec(v):
        out = C @ v
        for sub, f, Ep, Fp in parts:
            ve = v[sub.e_cols]
            if ve.size == 0:
                continue
            out[sub.f_rows] -= Fp @ f.solve(Ep @ ve)
        return out

    return matvec


def _assert_plan_matches_adhoc(solver: PDSLin, seed=3):
    ns = solver.partition.separator_size
    rng = np.random.default_rng(seed)
    ref = _adhoc_matvec(solver)
    for v in (rng.standard_normal(ns), rng.standard_normal((ns, 3))):
        assert solver.solve_plan.matvec(v).tobytes() == ref(v).tobytes()


class TestPlanOperator:
    @pytest.mark.parametrize("name,k", [("matrix211", 4), ("tdr190k", 8),
                                        ("G3_circuit", 8)])
    def test_matvec_bitwise_equals_adhoc_operator(self, name, k):
        A = generate(name, "tiny").A.tocsr()
        solver = PDSLin(A, PDSLinConfig(k=k, seed=0)).setup()
        plan = solver.solve_plan
        assert isinstance(plan, SolvePlan)
        assert len(plan.E_perm) == len(plan.F_perm) == k
        for s, Ep, Fp in zip(solver.subdomains, plan.E_perm, plan.F_perm):
            assert (Ep != s.interfaces.E_hat[s.perm]).nnz == 0
            assert (Fp != s.interfaces.F_hat[:, s.perm]).nnz == 0
        assert (plan.C != solver.partition.C()).nnz == 0
        _assert_plan_matches_adhoc(solver)

    def test_plan_exists_only_after_setup(self):
        solver = PDSLin(grid_laplacian(8, 8), _cfg())
        assert solver.solve_plan is None
        solver.setup()
        assert solver.solve_plan is not None

    def test_no_separator_and_empty_subdomain(self):
        # block-diagonal input: nothing to iterate on, plan still builds
        A = sp.identity(6, format="csr") * 2.0
        solver = PDSLin(A, PDSLinConfig(k=8, seed=0)).setup()
        assert solver.partition.separator_size == 0
        assert 0 in [s.interfaces.dim for s in solver.subdomains]
        b = np.arange(6, dtype=np.float64) + 1.0
        assert solver.solve(b).x.tobytes() == (b / 2.0).tobytes()
        assert solver.solve_block(b[:, None]).X[:, 0].tobytes() \
            == (b / 2.0).tobytes()


class TestNoSlicingInWarmSolves:
    """The mechanism this plan exists for: once set up, neither solve
    path indexes a scipy sparse matrix (34 fancy-index calls per
    ``solve(b)`` at k=8 before the plan)."""

    @pytest.fixture()
    def getitem_calls(self, monkeypatch):
        calls = []
        original = sparse_index.IndexMixin.__getitem__

        def counting(self, key):
            calls.append(type(self).__name__)
            return original(self, key)

        monkeypatch.setattr(sparse_index.IndexMixin, "__getitem__", counting)
        return calls

    def _warm(self, abft_mode):
        # serial whatever REPRO_BACKEND says: a pooled solve_block ships
        # each subdomain's permuted D per task, and deriving it slices
        A = generate("tdr190k", "tiny").A.tocsr()
        solver = PDSLin(A, PDSLinConfig(k=8, seed=0, abft=abft_mode),
                        runtime=RuntimeOptions(backend="serial"))
        solver.setup()
        solver.solve(_rhs(A))
        return A, solver

    @pytest.mark.parametrize("abft_mode", ["detect", "detect+recover"])
    def test_warm_solve(self, getitem_calls, abft_mode):
        A, solver = self._warm(abft_mode)
        del getitem_calls[:]
        res = solver.solve(_rhs(A, 1))
        assert res.converged and res.certified
        assert getitem_calls == []

    @pytest.mark.parametrize("abft_mode", ["detect", "detect+recover"])
    def test_warm_solve_block(self, getitem_calls, abft_mode):
        A, solver = self._warm(abft_mode)
        del getitem_calls[:]
        blk = solver.solve_block(_block(A))
        assert blk.converged and blk.certified
        assert getitem_calls == []

    def test_counter_sees_slicing(self, getitem_calls):
        # the guard above is only as good as the patch: set-up must trip it
        A = generate("tdr190k", "tiny").A.tocsr()
        PDSLin(A, PDSLinConfig(k=8, seed=0)).setup()
        assert len(getitem_calls) >= 34


class TestInvalidation:
    def test_update_matrix_rebuilds_plan(self):
        A = random_unsymmetric(80, 0.08, seed=5)
        A2 = A.copy()
        A2.data = A2.data * np.random.default_rng(2).uniform(
            0.5, 1.5, A2.nnz)
        b, B = _rhs(A), _block(A)
        solver = PDSLin(A, _cfg()).setup()
        solver.solve(b)
        old = solver.solve_plan
        solver.update_matrix(A2)
        assert solver.solve_plan is not old
        fresh = PDSLin(A2, _cfg()).setup()
        assert solver.solve(b).x.tobytes() == fresh.solve(b).x.tobytes()
        assert solver.solve_block(B).X.tobytes() \
            == fresh.solve_block(B).X.tobytes()
        _assert_plan_matches_adhoc(solver)

    def test_setup_time_lu_bitflip_drill_recovers_to_clean_bits(
            self, monkeypatch):
        A = generate("tdr190k", "tiny").A.tocsr()
        b = _rhs(A)
        cfg = dict(k=4, seed=0, abft="detect+recover", condest=False)
        # serial: an ambient pool forked before the seam is armed below
        # would never flip a bit (the process leg is repro.smoke bitflip's)
        serial = RuntimeOptions(backend="serial")
        ref = PDSLin(A, PDSLinConfig(**cfg), runtime=serial).solve(b)
        monkeypatch.setenv(abft.ENV_BITFLIP_TARGET, "lu")
        monkeypatch.setenv(abft.ENV_BITFLIP_SEED, "9")
        monkeypatch.setenv(abft.ENV_BITFLIP_SUBDOMAIN, "1")
        abft.reset_bitflip_state()
        tr = Tracer()
        solver = PDSLin(A, PDSLinConfig(**cfg),
                        runtime=RuntimeOptions(tracer=tr, backend="serial"))
        try:
            res = solver.solve(b)
        finally:
            abft.reset_bitflip_state()
        actions = [e.action for e in res.recovery.events]
        assert "sdc-detected" in actions and actions[-1] == "sdc-recovered"
        assert tr.counters.get("sdc_recovered", 0) >= 1
        assert res.x.tobytes() == ref.x.tobytes()
        _assert_plan_matches_adhoc(solver)

    def test_solve_phase_refactorization_is_seen_through_the_plan(self):
        # corrupt one subdomain's factors after set-up: the sweep in
        # _run_with_factor_sweep swaps in fresh factors mid-solve and
        # the redone pass must iterate on them, through the same plan
        A = grid_laplacian(16, 16)
        b = _rhs(A)
        solver = PDSLin(A, _cfg(abft="detect+recover")).setup()
        plan = solver.solve_plan
        s = solver.subdomains[1]
        stale = s.factors
        assert abft.flip_bits([stale.U.data], rng=np.random.default_rng(5))
        stale.handle = None      # solve through the corrupted L/U data
        s.handle_thresh = None
        res = solver.solve(b)
        actions = [e.action for e in solver.recovery.events]
        assert "sdc-detected" in actions and actions[-1] == "sdc-recovered"
        assert s.factors is not stale
        assert solver.solve_plan is plan
        assert res.converged and res.residual_norm < 1e-10
        clean = PDSLin(A, _cfg()).solve(b)
        assert np.allclose(res.x, clean.x)
        _assert_plan_matches_adhoc(solver)

    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path):
        A = grid_laplacian(16, 16)
        b, B = _rhs(A), _block(A)
        ref = PDSLin(A, _cfg(),
                     runtime=RuntimeOptions(checkpoint=tmp_path)).setup()
        resumed = PDSLin(A, _cfg(),
                         runtime=RuntimeOptions(resume=tmp_path)).setup()
        assert resumed.solve_plan is not None
        assert resumed.solve(b).x.tobytes() == ref.solve(b).x.tobytes()
        assert resumed.solve_block(B).X.tobytes() \
            == ref.solve_block(B).X.tobytes()
        v = np.random.default_rng(1).standard_normal(
            ref.partition.separator_size)
        assert resumed.solve_plan.matvec(v).tobytes() \
            == ref.solve_plan.matvec(v).tobytes()


class TestScalarBlockParity:
    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    @pytest.mark.parametrize("make", [
        lambda: grid_laplacian(16, 16),
        lambda: random_unsymmetric(80, 0.08, seed=5),
    ], ids=["grid16", "unsym80"])
    def test_solve_equals_one_column_block(self, make, backend):
        A = make()
        b = _rhs(A, 4)
        solver = PDSLin(A, _cfg(), runtime=RuntimeOptions(backend=backend))
        try:
            one = solver.solve(b)
            blk = solver.solve_block(b[:, None])
        finally:
            solver.backend.close()
        assert one.x.tobytes() == blk.X[:, 0].tobytes()
        assert one.iterations == blk[0].iterations
