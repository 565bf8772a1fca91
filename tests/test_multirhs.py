"""Batched multi-RHS solves (``PDSLin.solve_block``).

The parity contract under test: column ``j`` of ``solve_block(B)`` is
bit-identical to ``solve(B[:, j])`` on direct paths (and everywhere
with Krylov seeding off), equally certified on seeded-Krylov paths;
the batched path keeps that contract across execution backends, under
the ABFT ladder, through checkpoint/resume, and after
``update_matrix``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp
from tests.conftest import grid_laplacian, random_unsymmetric

from repro.numerics.refine import refine, refine_block
from repro.obs import Tracer
from repro.parallel.exec import get_backend
from repro.resilience import FaultPlan, FaultSpec, abft
from repro.resilience.checkpoint import (
    SOLVE_PHASE_FIELDS,
    config_fingerprint,
)
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions

NRHS = 5

SEAM_VARS = (abft.ENV_BITFLIP_TARGET, abft.ENV_BITFLIP_COUNT,
             abft.ENV_BITFLIP_SEED, abft.ENV_BITFLIP_SUBDOMAIN)


@pytest.fixture(autouse=True)
def _clean_seams():
    saved = {name: os.environ.get(name) for name in SEAM_VARS}
    for name in SEAM_VARS:
        os.environ.pop(name, None)
    abft.reset_bitflip_state()
    yield
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    abft.reset_bitflip_state()


def _cfg(**kw) -> PDSLinConfig:
    kw.setdefault("k", 4)
    kw.setdefault("block_size", 16)
    kw.setdefault("seed", 0)
    return PDSLinConfig(**kw)


def _block(A, p=NRHS, seed=0):
    return np.random.default_rng(seed).standard_normal((A.shape[0], p))


def _per_column(A, B, **kw):
    solver = PDSLin(A, _cfg(**kw))
    return [solver.solve(B[:, j]) for j in range(B.shape[1])]


class TestParity:
    def test_seed_off_bit_identical(self):
        A = grid_laplacian(16, 16)
        B = _block(A)
        cols = _per_column(A, B)
        blk = PDSLin(A, _cfg(krylov_seed=False)).solve_block(B)
        for j in range(NRHS):
            assert blk[j].x.tobytes() == cols[j].x.tobytes()
            assert blk[j].iterations == cols[j].iterations
            assert blk[j].certified == cols[j].certified

    def test_seeded_first_column_bitwise_rest_certified(self):
        A = random_unsymmetric(120, 0.06, seed=2)
        B = _block(A)
        cols = _per_column(A, B)
        blk = PDSLin(A, _cfg()).solve_block(B)
        # column 0 has no seed: bit-identical to the scalar solve
        assert blk[0].x.tobytes() == cols[0].x.tobytes()
        for j in range(NRHS):
            assert blk[j].converged
            assert blk[j].certified == cols[j].certified
            assert blk[j].residual_norm < 1e-10

    def test_block_gmres_equally_certified(self):
        A = grid_laplacian(16, 16)
        B = _block(A)
        cols = _per_column(A, B)
        blk = PDSLin(A, _cfg(block_gmres=True)).solve_block(B)
        for j in range(NRHS):
            assert blk[j].converged
            assert blk[j].certified == cols[j].certified
            assert blk[j].residual_norm < 1e-10

    def test_direct_path_k1_bit_identical(self):
        # k=1: no separator — the pure batched-triangular-solve path
        A = grid_laplacian(8, 8)
        B = _block(A)
        cols = _per_column(A, B, k=1)
        blk = PDSLin(A, _cfg(k=1)).solve_block(B)
        for j in range(NRHS):
            assert blk[j].schur_size == 0
            assert blk[j].x.tobytes() == cols[j].x.tobytes()

    def test_throughput_counter_and_span(self):
        A = grid_laplacian(12, 12)
        tr = Tracer()
        PDSLin(A, _cfg(),
               runtime=RuntimeOptions(tracer=tr)).solve_block(_block(A))
        assert tr.counters.get("noise:rhs_per_s", 0.0) > 0.0
        assert "solve_block" in {s.name for s in tr.spans}

    def test_empty_block(self):
        A = grid_laplacian(8, 8)
        assert PDSLin(A, _cfg()).solve_block(
            np.empty((A.shape[0], 0))) == []

    def test_validation(self):
        A = grid_laplacian(8, 8)
        solver = PDSLin(A, _cfg())
        with pytest.raises(ValueError):
            solver.solve_block(np.ones(A.shape[0]))  # 1-D
        with pytest.raises(ValueError):
            solver.solve_block(np.ones((3, 2)))      # wrong n
        bad = np.ones((A.shape[0], 2)) * np.nan
        with pytest.raises(ValueError):
            solver.solve_block(bad)


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["process:2"])
    def test_block_solve_matches_serial_bitwise(self, backend):
        A = grid_laplacian(16, 16)
        B = _block(A)
        ref = PDSLin(A, _cfg()).solve_block(B)
        solver = PDSLin(A, _cfg(), runtime=RuntimeOptions(backend=backend))
        try:
            par = solver.solve_block(B)
        finally:
            if hasattr(solver.backend, "close"):
                solver.backend.close()
        for j in range(NRHS):
            assert par[j].x.tobytes() == ref[j].x.tobytes()
            assert par[j].iterations == ref[j].iterations

    def test_process_backend_with_abft_matches_serial(self):
        A = random_unsymmetric(100, 0.08, seed=7)
        B = _block(A)
        cfg = dict(abft="detect+recover")
        ref = PDSLin(A, _cfg(**cfg)).solve_block(B)
        tr = Tracer()
        solver = PDSLin(A, _cfg(**cfg),
                        runtime=RuntimeOptions(tracer=tr, backend="process:2"))
        try:
            par = solver.solve_block(B)
        finally:
            solver.backend.close()
        for j in range(NRHS):
            assert par[j].x.tobytes() == ref[j].x.tobytes()
        # the workers' solve audits were folded back and swept clean
        assert tr.counters.get("sdc_checks", 0) > 0
        assert tr.counters.get("sdc_detected", 0) == 0


class TestAbftInterplay:
    def test_krylov_flip_detected_and_recovered(self):
        A = grid_laplacian(16, 16)
        B = _block(A)
        os.environ[abft.ENV_BITFLIP_TARGET] = "krylov"
        os.environ[abft.ENV_BITFLIP_SEED] = "3"
        abft.reset_bitflip_state()
        tr = Tracer()
        solver = PDSLin(A, _cfg(abft="detect+recover"),
                        runtime=RuntimeOptions(tracer=tr))
        res = solver.solve_block(B)
        assert tr.counters.get("sdc_detected", 0) >= 1
        assert tr.counters.get("sdc_recovered", 0) >= 1
        for r in res:
            assert r.converged
            assert r.residual_norm < 1e-10

    def test_krylov_flip_in_block_gmres_iterate(self):
        # the seam lands in the 2-D iterate of the block run (it raised
        # a TypeError there before flip_bits took blocks); the block
        # audit names the column and restarts only that one
        A = grid_laplacian(16, 16)
        B = _block(A)
        os.environ[abft.ENV_BITFLIP_TARGET] = "krylov"
        os.environ[abft.ENV_BITFLIP_SEED] = "3"
        abft.reset_bitflip_state()
        tr = Tracer()
        solver = PDSLin(A, _cfg(abft="detect+recover", block_gmres=True),
                        runtime=RuntimeOptions(tracer=tr))
        res = solver.solve_block(B)
        events = [(e.action, e.detail) for e in solver.recovery.events]
        assert [a for a, _ in events] == ["sdc-detected", "sdc-recovered"]
        assert "(column " in events[0][1]
        assert tr.counters["sdc_detected"] == tr.counters["sdc_recovered"] == 1
        clean = PDSLin(A, _cfg(block_gmres=True)).solve_block(B)
        for r, c in zip(res, clean):
            assert r.converged and r.residual_norm < 1e-10
            assert np.allclose(r.x, c.x)

    def test_factor_corruption_swept_and_refactorized(self):
        A = grid_laplacian(16, 16)
        B = _block(A)
        tr = Tracer()
        solver = PDSLin(A, _cfg(abft="detect+recover"),
                        runtime=RuntimeOptions(tracer=tr))
        solver.setup()
        clean = PDSLin(A, _cfg()).solve_block(B)
        # corrupt one subdomain's factors after setup: only the
        # solve-phase checksum sweep can catch this. Drop the SuperLU
        # handle so the solves actually run through the corrupted
        # explicit L/U data (the handle keeps its own pristine copy)
        s = solver.subdomains[1]
        recs = abft.flip_bits([s.factors.U.data],
                              rng=np.random.default_rng(5))
        assert recs
        s.factors.handle = None
        s.handle_thresh = None
        res = solver.solve_block(B)
        actions = {e.action for e in solver.recovery.events}
        assert "sdc-detected" in actions
        assert "sdc-recovered" in actions
        for j, r in enumerate(res):
            assert r.converged
            assert r.residual_norm < 1e-10
            # the redone pass runs on pristine refactorized factors
            assert np.allclose(r.x, clean[j].x)


class TestDispatchPolicy:
    """Where the per-subdomain solves run is decided in one place,
    ``_block_subdomain_solves``, from the block width: one column stays
    inline on every backend, wider blocks fan out on pooled ones."""

    @staticmethod
    def _solver(A, backend, **runtime):
        # one pass, no correction solves: fan-outs can be counted. A
        # private pool, so the counting map below does not outlive the
        # test on the shared instance
        tr = Tracer()
        solver = PDSLin(A, _cfg(refine_maxiter=0), runtime=RuntimeOptions(
            tracer=tr, backend=get_backend(backend, fresh=True),
            **runtime)).setup()
        shipped = []
        pooled_map = solver.backend.map

        def counting_map(fn, payloads, **kw):
            shipped.append(len(payloads))
            return pooled_map(fn, payloads, **kw)

        solver.backend.map = counting_map
        return solver, tr, shipped

    @pytest.mark.parametrize("backend", ["process:2"])
    def test_one_column_stays_inline_on_pooled_backends(self, backend):
        A = grid_laplacian(16, 16)
        B = _block(A, p=2)
        ref = PDSLin(A, _cfg(refine_maxiter=0)).solve(B[:, 0])
        solver, tr, shipped = self._solver(A, backend)
        try:
            one = solver.solve(B[:, 0])
            blk1 = solver.solve_block(B[:, :1])
            assert shipped == [] and tr.span_count("solve_fanout") == 0
            blk2 = solver.solve_block(B)
        finally:
            solver.backend.close()
        # two columns: one fan-out per substitution pass, k tasks each
        assert shipped == [4, 4] and tr.span_count("solve_fanout") == 2
        assert tr.span_count("solve_block") == 2
        assert tr.span_count("solve") == 1
        # and column 0 of the wide block is still the one-column answer
        for x in (one.x, blk1.X[:, 0], blk2.X[:, 0]):
            assert x.tobytes() == ref.x.tobytes()

    def test_wide_block_keeps_fanout_failover(self):
        # a permanently failing process is skipped at dispatch and its
        # solves redone on the root, once per substitution pass
        A = grid_laplacian(16, 16)
        B = _block(A, p=2)
        ref = PDSLin(A, _cfg(refine_maxiter=0)).solve_block(B)
        plan = FaultPlan([FaultSpec("Solve", process=1, kind="permanent")])
        solver, tr, shipped = self._solver(A, "process:2", fault_plan=plan)
        try:
            blk = solver.solve_block(B)
        finally:
            solver.backend.close()
        assert shipped == [3, 3] and tr.span_count("solve_fanout") == 2
        assert solver.recovery.actions() == {"failover-root": 2}
        assert blk.degraded and blk.converged
        assert blk.X.tobytes() == ref.X.tobytes()


class TestCheckpointAndReuse:
    def test_fingerprint_invariant_to_solve_phase_fields(self):
        base = config_fingerprint(_cfg())
        assert config_fingerprint(_cfg(krylov_seed=False)) == base
        assert config_fingerprint(_cfg(block_gmres=True)) == base
        assert "krylov_seed" in SOLVE_PHASE_FIELDS
        assert "block_gmres" in SOLVE_PHASE_FIELDS

    def test_resume_then_solve_block_bit_parity(self, tmp_path):
        A = grid_laplacian(16, 16)
        B = _block(A)
        ref = PDSLin(
            A, _cfg(), runtime=RuntimeOptions(checkpoint=tmp_path)).solve_block(B)
        resumed = PDSLin(
            A, _cfg(), runtime=RuntimeOptions(resume=tmp_path)).solve_block(B)
        for j in range(NRHS):
            assert resumed[j].x.tobytes() == ref[j].x.tobytes()

    def test_update_matrix_then_solve_block(self):
        A = grid_laplacian(12, 12)
        A2 = (A * 1.5).tocsr()
        B = _block(A)
        solver = PDSLin(A, _cfg())
        solver.solve_block(B)
        res2 = solver.update_matrix(A2).solve_block(B)
        ref = PDSLin(A2, _cfg()).solve_block(B)
        for j in range(NRHS):
            assert res2[j].x.tobytes() == ref[j].x.tobytes()


class TestRefineBlock:
    def _system(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        A = sp.random(n, n, density=0.2, random_state=rng,
                      format="csc") + sp.eye(n) * 5.0
        A = A.tocsc()
        B = rng.standard_normal((n, 4))
        lu = sp.linalg.splu(A)
        return A, B, lu

    def test_matches_per_column_refine_bitwise(self):
        A, B, lu = self._system()
        X0 = np.zeros_like(B)
        # splu.solve is columnwise bit-deterministic, so block refine
        # must reproduce scalar refine exactly
        Xb, accs = refine_block(A, B, X0, lu.solve, maxiter=3)
        for j in range(B.shape[1]):
            xj, acc = refine(A, B[:, j], X0[:, j], lu.solve, maxiter=3)
            np.testing.assert_array_equal(Xb[:, j], xj)
            assert accs[j].refine_steps == acc.refine_steps
            assert accs[j].berr == acc.berr
            assert accs[j].certified == acc.certified

    def test_maxiter_zero_spends_no_solves(self):
        A, B, _ = self._system()
        calls = []

        def solve_block(R):
            calls.append(R.shape)
            return R

        X, accs = refine_block(A, B, B.copy(), solve_block, maxiter=0)
        assert calls == []
        assert all(a.refine_steps == 0 for a in accs)

    def test_empty_block(self):
        A, B, lu = self._system()
        X, accs = refine_block(A, B[:, :0], B[:, :0].copy(), lu.solve)
        assert X.shape[1] == 0 and accs == []

    def test_nonfinite_correction_stagnates_column(self):
        A, B, lu = self._system()

        def poisoned(R):
            D = lu.solve(R)
            D[:, 0] = np.nan  # first active column gets a bad correction
            return D

        X, accs = refine_block(A, B, np.zeros_like(B), poisoned, maxiter=3)
        assert accs[0].stagnated
        assert np.isfinite(X).all()  # best iterate (x0) returned, not NaN
