"""End-to-end tests of PDSLin on the real execution backends: bit
parity with serial, crash recovery through the chaos seam, fault-plan
parity, the speculative drop-tolerance redo round, and the symbolic
cache on refactorization."""

from __future__ import annotations

import numpy as np
import pytest
from tests.conftest import grid_laplacian, random_unsymmetric

from repro.obs import Tracer
from repro.parallel.exec import (
    ProcessBackend,
    TaskOutcome,
    get_backend,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    TaskDeadlineError,
    TransportChecksumError,
    WorkerCrashError,
)
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions, pdslin
from repro.solver.partasks import ENV_CRASH_SUBDOMAIN, run_subdomain_setup


def _cfg(**kw) -> PDSLinConfig:
    kw.setdefault("k", 4)
    kw.setdefault("block_size", 16)
    kw.setdefault("seed", 0)
    return PDSLinConfig(**kw)


def _rhs(A, seed=0):
    return np.random.default_rng(seed).standard_normal(A.shape[0])


def _solve(A, backend, *, tracer=None, fault_plan=None, cfg=None):
    solver = PDSLin(A, cfg or _cfg(), runtime=RuntimeOptions(
        tracer=tracer or Tracer(), fault_plan=fault_plan, backend=backend))
    return solver, solver.solve(_rhs(A))


@pytest.fixture(scope="module")
def process2():
    backend = ProcessBackend(workers=2)
    yield backend
    backend.close()


class TestBitParity:
    @pytest.mark.parametrize("make", [
        lambda: grid_laplacian(16, 16),
        lambda: random_unsymmetric(80, 0.08, seed=5),
    ], ids=["grid16", "unsym80"])
    @pytest.mark.parametrize("backend", ["process:2"])
    def test_backend_matches_serial_bitwise(self, make, backend):
        A = make()
        _, ref = _solve(A, "serial")
        _, par = _solve(A, backend)
        assert par.x.tobytes() == ref.x.tobytes()
        assert par.iterations == ref.iterations
        assert par.residual_norm == ref.residual_norm
        assert par.converged and ref.converged

    def test_parallel_run_records_fanout_and_skew(self, process2):
        A = grid_laplacian(16, 16)
        tracer = Tracer()
        _solve(A, process2, tracer=tracer)
        names = [s.name for s in tracer.spans]
        assert "subdomain_fanout" in names
        # worker spans came back stamped onto per-process tracks
        tracks = {s.attrs.get("track") for s in tracer.spans}
        assert any(t and t.startswith("proc") for t in tracks)
        assert "noise:model_skew_subdomain_setup" in tracer.counters

    def test_update_matrix_parity_and_cache_hits(self, process2):
        A = grid_laplacian(12, 12)
        A2 = (A * 1.5).tocsr()
        tracer = Tracer()
        solver = PDSLin(A, _cfg(), runtime=RuntimeOptions(
            tracer=tracer, backend=process2))
        solver.solve(_rhs(A))
        misses = tracer.counters.get("symbolic_cache_miss", 0)
        hits0 = tracer.counters.get("symbolic_cache_hit", 0)
        assert misses >= 4  # one ordering per subdomain, cold
        res2 = solver.update_matrix(A2).solve(_rhs(A))
        # same pattern: every symbolic analysis is a cache hit now
        assert tracer.counters.get("symbolic_cache_hit", 0) >= hits0 + 4
        assert tracer.counters.get("symbolic_cache_miss", 0) == misses
        ref = PDSLin(A2, _cfg(), runtime=RuntimeOptions(
            backend="serial")).solve(_rhs(A))
        assert res2.x.tobytes() == ref.x.tobytes()


class TestChaosCrash:
    def test_worker_crash_fails_over_and_stays_bit_identical(
            self, monkeypatch):
        A = grid_laplacian(16, 16)
        _, ref = _solve(A, "serial")
        monkeypatch.setenv(ENV_CRASH_SUBDOMAIN, "1")
        backend = ProcessBackend(workers=2)  # fresh: workers inherit env
        try:
            solver, res = _solve(A, backend)
        finally:
            backend.close()
        assert res.converged
        assert res.x.tobytes() == ref.x.tobytes()
        # the dead worker shows up as a degrading failover-root event
        assert res.degraded
        actions = res.recovery.actions()
        assert actions.get("failover-root", 0) >= 1
        assert any(e.subdomain == 1 and e.action == "failover-root"
                   for e in res.recovery.events)

    def test_crash_seam_is_inert_on_inline_backends(self, monkeypatch):
        # the seam must never kill the parent process, where the serial
        # backend runs the task bodies
        A = grid_laplacian(8, 8)
        monkeypatch.setenv(ENV_CRASH_SUBDOMAIN, "1")
        _, res = _solve(A, "serial")
        assert res.converged
        assert res.recovery.actions().get("failover-root", 0) == 0


class TestFaultPlanParity:
    def _plan(self):
        return FaultPlan([
            FaultSpec(stage="LU(D)", process=1, kind="permanent"),
            FaultSpec(stage="Comp(S)", process=2, kind="transient"),
        ], seed=0)

    def test_injected_faults_replay_identically(self, process2):
        A = grid_laplacian(16, 16)
        _, ref = _solve(A, "serial", fault_plan=self._plan())
        _, par = _solve(A, process2, fault_plan=self._plan())
        assert par.x.tobytes() == ref.x.tobytes()
        assert par.iterations == ref.iterations
        # identical ladders: same actions on the same subdomains
        def key(e):
            return (e.stage, e.action, e.subdomain)
        assert sorted(map(key, par.recovery.events)) == \
            sorted(map(key, ref.recovery.events))
        assert par.degraded == ref.degraded


class TestDropToleranceRedo:
    @pytest.fixture(autouse=True)
    def every_condition_tightens(self, monkeypatch):
        # a threshold of 1 makes every subdomain's condition estimate
        # tighten the interface tolerance; it is read only on the
        # parent side, so patching it here reaches pooled runs too
        monkeypatch.setattr(pdslin, "COND_THRESHOLD", 1.0)

    def test_speculative_comp_is_redone_at_serial_tolerance(self):
        # the comps dispatched speculatively at the coarse tolerance
        # must be recomputed at the tightened one
        A = random_unsymmetric(80, 0.08, seed=5)
        _, ref = _solve(A, "serial")
        tracer = Tracer()
        backend = ProcessBackend(workers=2)
        try:
            _, par = _solve(A, backend, tracer=tracer)
        finally:
            backend.close()
        assert par.x.tobytes() == ref.x.tobytes()
        assert tracer.counters.get("comp_tol_redo", 0) >= 1
        names = [s.name for s in tracer.spans]
        assert "subdomain_fanout_redo" in names

    @pytest.mark.parametrize("lost, action, why", [
        (dict(error=TransportChecksumError("digest mismatch, twice"),
              transport_retries=2),
         "failover-root", "untrusted result payload"),
        (dict(error=WorkerCrashError("worker died")),
         "failover-root", "worker process died"),
        (dict(error=TaskDeadlineError("too slow", deadline_s=1.0),
              timed_out=True),
         "deadline-failover", "task deadline expired"),
    ], ids=["transport", "crash", "deadline"])
    def test_redo_round_loses_its_results(self, lost, action, why):
        # every task of the second set-up fan-out (the redo round) comes
        # back lost: the same triage as the first round fails each over
        # to the root, says why (a twice-failed transport digest used to
        # be reported as a dead worker here), and the answer is serial's
        class LosesTheRedoRound(ProcessBackend):
            setup_maps = 0

            def map(self, fn, payloads, **kw):
                if fn is run_subdomain_setup:
                    self.setup_maps += 1
                    if self.setup_maps == 2:
                        return [TaskOutcome(index=i, **lost)
                                for i in range(len(payloads))]
                return super().map(fn, payloads, **kw)

        A = random_unsymmetric(80, 0.08, seed=5)
        _, ref = _solve(A, "serial")
        backend = LosesTheRedoRound(workers=2)
        try:
            solver, par = _solve(A, backend)
        finally:
            backend.close()
        assert backend.setup_maps == 2
        assert par.x.tobytes() == ref.x.tobytes()
        assert par.degraded
        redone = [e for e in solver.recovery.events if e.stage == "Comp(S)"]
        assert redone and all(
            e.action == action and e.detail
            == why + "; re-executing the work on root" for e in redone)
        detected = [e.subdomain for e in solver.recovery.events
                    if (e.stage, e.action) == ("Transport", "sdc-detected")]
        assert detected == ([e.subdomain for e in redone]
                            if "transport_retries" in lost else [])


class TestBackendSelection:
    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        A = grid_laplacian(8, 8)
        solver = PDSLin(A, _cfg())
        assert isinstance(solver.backend, ProcessBackend)
        assert solver.backend.workers == 2
        assert solver.solve(_rhs(A)).converged

    def test_shared_backend_instances_reused_across_solvers(self):
        A = grid_laplacian(8, 8)
        s1 = PDSLin(A, _cfg(), runtime=RuntimeOptions(backend="process:2"))
        s2 = PDSLin(A, _cfg(), runtime=RuntimeOptions(backend="process:2"))
        assert s1.backend is s2.backend
        assert s1.backend is get_backend("process", workers=2)

    def test_non_backend_value_is_a_type_error(self):
        # named at the entry point, not an AttributeError from inside
        # spec parsing
        with pytest.raises(TypeError, match="backend must be an Executor, "
                           "a spec string or None, not int"):
            PDSLin(grid_laplacian(8, 8), _cfg(),
                   runtime=RuntimeOptions(backend=123))
