"""End-to-end recovery-ladder tests: PDSLin solves through injected
faults and numerical breakdowns, reporting degradation honestly."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from tests.conftest import grid_laplacian

from repro import smoke
from repro.obs import Tracer
from repro.resilience import FaultPlan, FaultSpec, InjectedFault
from repro.service import SolverService
from repro.smoke import standard_fault_plan
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions


def _cfg(**kw) -> PDSLinConfig:
    kw.setdefault("k", 4)
    kw.setdefault("block_size", 16)
    kw.setdefault("seed", 0)
    return PDSLinConfig(**kw)


def _rhs(A, seed=0):
    return np.random.default_rng(seed).standard_normal(A.shape[0])


# ---------------------------------------------------------------------------
# the acceptance scenario: permanent LU(D) + transient LU(S) faults
# ---------------------------------------------------------------------------

class TestFaultInjectionEndToEnd:
    def test_acceptance_scenario(self, grid16):
        plan = FaultPlan([
            FaultSpec(stage="LU(D)", process=1, kind="permanent"),
            FaultSpec(stage="LU(S)", process=None, kind="transient"),
        ], seed=0)
        tracer = Tracer()
        solver = PDSLin(grid16, _cfg(),
                        runtime=RuntimeOptions(tracer=tracer, fault_plan=plan))
        result = solver.solve(_rhs(grid16))

        assert result.converged
        assert result.residual_norm < 1e-8
        # non-empty recovery report with both ladders exercised
        rep = result.recovery
        assert rep.events
        actions = rep.actions()
        assert actions.get("failover-root") == 1   # permanent LU(D) fault
        assert actions.get("retry", 0) >= 1        # transient LU(S) fault
        assert result.degraded                     # failover degrades
        # the Recover stage shows up in the machine breakdown
        bd = result.breakdown()
        assert bd.get("Recover", 0.0) > 0.0
        # tracer counters match the report
        assert tracer.counters["recovery_events"] == len(rep.events)
        assert tracer.counters["recovery_failover_root"] == 1
        assert plan.fired_summary()["permanent"] == 1
        assert plan.fired_summary()["transient"] == 1

    def test_transient_subdomain_fault_retries_in_place(self, grid16):
        plan = FaultPlan([FaultSpec(stage="Comp(S)", process=2,
                                    kind="transient", trips=1)])
        solver = PDSLin(grid16, _cfg(),
                        runtime=RuntimeOptions(fault_plan=plan))
        result = solver.solve(_rhs(grid16))
        assert result.converged
        assert result.recovery.actions() == {"retry": 1}
        assert not result.degraded  # a plain retry is not degradation
        assert result.breakdown().get("Recover", 0.0) > 0.0

    def test_straggler_inflates_makespan_without_events(self, grid16):
        plan = FaultPlan([FaultSpec(stage="LU(D)", process=0,
                                    kind="straggler", delay_s=0.5)])
        solver = PDSLin(grid16, _cfg(),
                        runtime=RuntimeOptions(fault_plan=plan))
        result = solver.solve(_rhs(grid16))
        assert result.converged
        assert result.recovery.healthy  # stragglers are slow, not broken
        assert solver.machine.process_stage_times("LU(D)")[0] >= 0.5

    def test_same_seed_same_recovery_events(self, grid16):
        def run():
            plan = FaultPlan([
                FaultSpec(stage="LU(D)", process=1, kind="transient",
                          trips=2, recovery_cost_s=0.01),
                FaultSpec(stage="Comp(S)", process=3, kind="transient",
                          recovery_cost_s=0.02),
            ], seed=4)
            solver = PDSLin(grid16, _cfg(),
                            runtime=RuntimeOptions(fault_plan=plan))
            result = solver.solve(_rhs(grid16))
            return plan, result

        plan_a, res_a = run()
        plan_b, res_b = run()
        assert res_a.converged and res_b.converged
        # identical fired-fault sequences and recovery events
        assert plan_a.fired == plan_b.fired
        assert res_a.recovery.events == res_b.recovery.events
        # transient-only plans charge Recover purely through
        # deterministic add() amounts -> bit-identical stage time;
        # breakdown() reports the parallel max over processes:
        # max(2 retries * 0.01 on process 1, 1 retry * 0.02 on process 3)
        ra = res_a.machine.breakdown()["Recover"]
        rb = res_b.machine.breakdown()["Recover"]
        assert ra == rb == pytest.approx(0.02)

    def test_chaos_smoke_passes_all_checks(self):
        run = smoke.run("faults")
        assert run.checks == {name: True for name in run.checks}
        assert run.ok
        assert run.record["degraded"]
        assert run.record["breakdown"]["Recover"] > 0.0

    def test_standard_fault_plan_deterministic(self):
        a = standard_fault_plan(k=4, seed=3)
        b = standard_fault_plan(k=4, seed=3)
        assert a.specs == b.specs
        assert a.specs[0].kind == "permanent"
        assert a.specs[1].process is None


class TestRootSolveFault:
    """Every root-side piece of the solve phase (the ``F^_l U_l`` /
    ``E^_l Y`` products as much as the Krylov solve) enters the root's
    ``Solve`` stage through the retrying ``_on_stage``, whichever
    entry point was called."""

    @staticmethod
    def _plan(kind):
        return FaultPlan([FaultSpec("Solve", process=None, kind=kind)])

    @pytest.mark.parametrize("entry", ["solve", "solve_block"])
    def test_transient_root_fault_is_retried(self, grid16, entry):
        b = _rhs(grid16)
        solver = PDSLin(grid16, _cfg(), runtime=RuntimeOptions(
            fault_plan=self._plan("transient")))
        if entry == "solve":
            res = solver.solve(b)
        else:
            res = solver.solve_block(b[:, None])[0]
        assert res.converged and res.residual_norm < 1e-8
        assert res.recovery.actions() == {"retry": 1}
        assert not res.degraded
        assert res.x.tobytes() == PDSLin(grid16, _cfg()).solve(b).x.tobytes()

    def test_transient_root_fault_is_retried_behind_the_service(
            self, grid16):
        b = _rhs(grid16)
        with SolverService(config=_cfg()) as svc:
            ref = svc.solve(grid16, b)
            (session,) = svc.cache
            session.solver.machine.fault_plan = self._plan("transient")
            res = svc.solve(grid16, b)
        assert res.converged and not res.degraded
        assert res.recovery.actions() == {"retry": 1}
        assert res.x.tobytes() == ref.x.tobytes()

    @pytest.mark.parametrize("entry", ["solve", "solve_block"])
    def test_permanent_root_fault_propagates(self, grid16, entry):
        # there is no spare root to fail over to
        b = _rhs(grid16)
        solver = PDSLin(grid16, _cfg(), runtime=RuntimeOptions(
            fault_plan=self._plan("permanent")))
        solver.setup()
        with pytest.raises(InjectedFault):
            if entry == "solve":
                solver.solve(b)
            else:
                solver.solve_block(b[:, None])


# ---------------------------------------------------------------------------
# numerical-breakdown ladders
# ---------------------------------------------------------------------------

class TestNumericalRecovery:
    def test_singular_subdomain_solved_by_static_pivoting(self):
        """A subdomain-singular (but globally nonsingular) matrix that
        previously aborted the factorization now solves via the static
        pivot perturbation rung, with the count reported."""
        A = grid_laplacian(12, 12)
        cfg = PDSLinConfig(k=2, block_size=16, seed=0)
        probe = PDSLin(A, cfg)
        probe.setup()
        part = probe.partition.part
        sepv = set(probe.partition.separator_vertices.tolist())
        Acsr = A.tocsr()
        victim = next(
            v for v in range(A.shape[0])
            if v not in sepv and part[v] == 0 and any(
                int(w) in sepv
                for w in Acsr.indices[Acsr.indptr[v]:Acsr.indptr[v + 1]]
                if w != v))
        # zero the victim's row inside its subdomain block (diagonal
        # included) but keep its separator coupling: D_ell becomes
        # singular while A stays nonsingular
        A2 = A.tolil()
        for w in Acsr.indices[Acsr.indptr[victim]:Acsr.indptr[victim + 1]]:
            if int(w) not in sepv:
                A2[victim, int(w)] = 0.0
        A2 = A2.tocsr()
        A2.eliminate_zeros()

        # static_pivot_matching would *proactively* permute the zero
        # pivot away (see test below); disable it to exercise the
        # reactive perturbation rung
        tracer = Tracer()
        solver = PDSLin(A2, PDSLinConfig(k=2, block_size=16, seed=0,
                                         static_pivot_matching=False),
                        runtime=RuntimeOptions(tracer=tracer))
        result = solver.solve(_rhs(A2))
        assert result.converged
        rep = result.recovery
        assert rep.perturbed_pivots >= 1
        assert rep.actions().get("static-pivot", 0) >= 1
        assert result.degraded
        assert tracer.counters["perturbed_pivots"] == rep.perturbed_pivots
        assert "perturbed pivots" in rep.summary()
        # degraded accuracy is expected, catastrophic loss is not
        assert result.residual_norm < 0.1

    def test_gmres_stagnation_refreshes_preconditioner(self, grid16):
        """An over-dropped S~ makes GMRES fail its iteration budget; the
        ladder rebuilds the preconditioner without dropping and retries
        once, warm-started, to convergence."""
        tracer = Tracer()
        solver = PDSLin(grid16, _cfg(drop_schur=0.5, gmres_maxiter=4,
                                     gmres_restart=4),
                        runtime=RuntimeOptions(tracer=tracer))
        result = solver.solve(_rhs(grid16))
        assert result.converged
        assert result.residual_norm < 1e-8
        assert result.recovery.actions().get("precond-refresh") == 1
        assert result.recovery.preconditioner_mode == \
            "lu(refreshed, drop_schur=0)"
        assert result.degraded
        assert tracer.counters["recovery_precond_refresh"] == 1
        assert result.breakdown().get("Recover", 0.0) > 0.0


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

class TestInputValidation:
    def test_nan_matrix_rejected_at_init(self, grid8):
        A = grid8.tolil()
        A[3, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            PDSLin(A.tocsr(), _cfg(k=2))

    def test_inf_rhs_rejected(self, grid8):
        solver = PDSLin(grid8, _cfg(k=2))
        b = np.ones(grid8.shape[0])
        b[0] = np.inf
        with pytest.raises(ValueError, match="b contains"):
            solver.solve(b)

    def test_nan_block_rhs_rejected(self, grid8):
        solver = PDSLin(grid8, _cfg(k=2))
        B = np.ones((grid8.shape[0], 2))
        B[1, 1] = np.nan
        with pytest.raises(ValueError, match="B contains"):
            solver.solve_block(B)

    def test_finite_inputs_pass(self, grid8):
        solver = PDSLin(grid8, _cfg(k=2))
        result = solver.solve(np.ones(grid8.shape[0]))
        assert result.converged and result.recovery.healthy
        assert not result.degraded


# ---------------------------------------------------------------------------
# result surface
# ---------------------------------------------------------------------------

def test_result_carries_recovery_report(grid8):
    solver = PDSLin(grid8, _cfg(k=2))
    r1 = solver.solve(np.ones(grid8.shape[0]))
    r2 = solver.solve(np.arange(grid8.shape[0], dtype=float))
    # one cumulative report per solver instance, shared across results
    assert r1.recovery is solver.recovery
    assert r2.recovery is solver.recovery
    assert isinstance(r1.degraded, bool)
    assert sp.issparse(grid8)
