"""Unit tests for the resilience subsystem: structured errors, seeded
fault injection, machine integration, recovery report."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.lu.numeric import GilbertPeierlsLU, factorize
from repro.obs import Tracer
from repro.parallel import RECOVER_STAGE, SimulatedMachine
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    KrylovBreakdownError,
    RecoveryReport,
    SdcDetectedError,
    SingularSubdomainError,
    SolverError,
    emit_recovery,
    factorize_resilient,
    sdc_ladder,
)


# ---------------------------------------------------------------------------
# structured errors
# ---------------------------------------------------------------------------

class TestErrors:
    def test_solver_error_context_in_message(self):
        err = SolverError("boom", stage="LU(D)", subdomain=3)
        assert "stage=LU(D)" in str(err)
        assert "subdomain=3" in str(err)

    def test_solver_error_is_runtime_error(self):
        # pre-existing callers catch RuntimeError around factorizations
        assert issubclass(SingularSubdomainError, RuntimeError)
        assert issubclass(KrylovBreakdownError, RuntimeError)
        assert issubclass(InjectedFault, RuntimeError)

    def test_singular_subdomain_attributes(self):
        err = SingularSubdomainError("singular", column=7, pivot=1e-20,
                                     subdomain=2)
        assert err.column == 7
        assert err.pivot == 1e-20
        assert err.stage == "LU(D)"
        assert err.subdomain == 2

    def test_krylov_breakdown_attributes(self):
        err = KrylovBreakdownError("stalled", iterations=42)
        assert err.iterations == 42
        assert err.stage == "Solve"

    def test_injected_fault_kinds(self):
        assert InjectedFault("x", kind="permanent").permanent
        assert not InjectedFault("x", kind="transient").permanent
        with pytest.raises(ValueError):
            InjectedFault("x", kind="sporadic")


# ---------------------------------------------------------------------------
# fault plan
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("LU(D)", kind="weird")
        with pytest.raises(ValueError):
            FaultSpec("LU(D)", trips=0)
        with pytest.raises(ValueError):
            FaultSpec("LU(D)", delay_s=-1.0)
        assert FaultSpec("LU(D)", process=2).target() == "process 2"
        assert FaultSpec("LU(S)").target() == "root"

    def test_transient_fires_then_clears(self):
        plan = FaultPlan([FaultSpec("LU(D)", process=0, kind="transient",
                                    trips=2)])
        with pytest.raises(InjectedFault):
            plan.before("LU(D)", 0)
        with pytest.raises(InjectedFault):
            plan.before("LU(D)", 0)
        plan.before("LU(D)", 0)  # third attempt: cleared
        assert len(plan.fired) == 2
        assert plan.fired_summary() == {"transient": 2}

    def test_permanent_fires_forever(self):
        plan = FaultPlan([FaultSpec("LU(D)", process=1, kind="permanent")])
        for _ in range(4):
            with pytest.raises(InjectedFault) as exc:
                plan.before("LU(D)", 1)
            assert exc.value.permanent
        assert all(f.kind == "permanent" for f in plan.fired)

    def test_untargeted_stage_passes(self):
        plan = FaultPlan([FaultSpec("LU(D)", process=0)])
        plan.before("LU(D)", 1)       # other process
        plan.before("Comp(S)", 0)     # other stage
        plan.before("LU(D)", None)    # root, not process 0
        assert not plan.fired

    def test_straggler_adds_delay_on_exit(self):
        plan = FaultPlan([FaultSpec("Solve", process=0, kind="straggler",
                                    delay_s=0.25)])
        plan.before("Solve", 0)  # stragglers never raise
        assert plan.after("Solve", 0) == pytest.approx(0.25)
        assert plan.after("Solve", 1) == 0.0
        assert plan.fired_summary() == {"straggler": 1}

    def test_reset_clears_state(self):
        plan = FaultPlan([FaultSpec("LU(D)", process=0, trips=1)])
        with pytest.raises(InjectedFault):
            plan.before("LU(D)", 0)
        plan.reset()
        assert not plan.fired
        with pytest.raises(InjectedFault):
            plan.before("LU(D)", 0)  # armed again after reset

    def test_random_plan_deterministic(self):
        a = FaultPlan.random(seed=7, k=8, rate=0.5)
        b = FaultPlan.random(seed=7, k=8, rate=0.5)
        assert a.specs == b.specs
        # rate bounds
        assert len(FaultPlan.random(seed=0, k=4, rate=0.0)) == 0
        assert len(FaultPlan.random(seed=0, k=4,
                                    stages=("LU(D)",), rate=1.0)) == 4
        with pytest.raises(ValueError):
            FaultPlan.random(seed=0, k=4, rate=1.5)


# ---------------------------------------------------------------------------
# machine integration
# ---------------------------------------------------------------------------

class TestMachineFaults:
    def test_fault_raised_inside_stage(self):
        plan = FaultPlan([FaultSpec("LU(D)", process=1, kind="transient")])
        m = SimulatedMachine(2, fault_plan=plan)
        with pytest.raises(InjectedFault):
            with m.on_process(1, "LU(D)"):
                raise AssertionError("body must not run on a fault")
        # the failed entry still charged wall time to the stage
        assert m.processes[1].timer.get("LU(D)") > 0.0

    def test_straggler_inflates_stage_time(self):
        plan = FaultPlan([FaultSpec("Solve", process=0, kind="straggler",
                                    delay_s=0.5)])
        m = SimulatedMachine(2, fault_plan=plan)
        with m.on_process(0, "Solve"):
            pass
        with m.on_process(1, "Solve"):
            pass
        t = m.process_stage_times("Solve")
        assert t[0] >= 0.5
        assert t[1] < 0.5
        assert m.parallel_stage_time("Solve") >= 0.5

    def test_root_faults(self):
        plan = FaultPlan([FaultSpec("LU(S)", process=None, kind="transient")])
        m = SimulatedMachine(2, fault_plan=plan)
        with pytest.raises(InjectedFault):
            with m.on_root("LU(S)"):
                pass
        with m.on_root("LU(S)"):  # transient cleared
            pass

    def test_charge_recovery(self):
        m = SimulatedMachine(3)
        m.charge_recovery(1, seconds=0.125, flops=1000)
        m.charge_recovery(None, seconds=0.25)
        assert m.processes[1].timer.get(RECOVER_STAGE) == pytest.approx(0.125)
        assert m.processes[1].ops.get(RECOVER_STAGE) == 1000
        assert m.root.timer.get(RECOVER_STAGE) == pytest.approx(0.25)
        assert RECOVER_STAGE in m.breakdown()
        # parallel max (0.125) + serial root (0.25)
        assert m.breakdown()[RECOVER_STAGE] == pytest.approx(0.375)

    def test_scripted_makespan_deterministic(self):
        """Two machines driven by identical deterministic charges under
        the same plan produce bit-identical makespans."""
        def drive(machine, plan):
            for ell in range(machine.k):
                try:
                    with machine.on_process(ell, "LU(D)") as led:
                        led.timer.add("LU(D)", 0.5)
                except InjectedFault as f:
                    machine.charge_recovery(ell, seconds=f.recovery_cost_s)
                    with machine.on_process(ell, "LU(D)") as led:
                        led.timer.add("LU(D)", 0.5)
            return machine

        plans = [FaultPlan([FaultSpec("LU(D)", process=1, trips=1,
                                      recovery_cost_s=0.125)])
                 for _ in range(2)]
        machines = [drive(SimulatedMachine(4, fault_plan=p), p)
                    for p in plans]
        # wall-time noise from the stage context manager is real time,
        # so compare the deterministic (add-based) charges instead
        r0 = machines[0].breakdown()[RECOVER_STAGE]
        r1 = machines[1].breakdown()[RECOVER_STAGE]
        assert r0 == r1 == pytest.approx(0.125)
        assert [f.attempt for f in plans[0].fired] == \
               [f.attempt for f in plans[1].fired]


# ---------------------------------------------------------------------------
# recovery report
# ---------------------------------------------------------------------------

class TestRecoveryReport:
    def test_healthy_until_event(self):
        rep = RecoveryReport()
        assert rep.healthy and not rep.degraded
        rep.record("LU(D)", "retry", RuntimeError("x"))
        assert not rep.healthy and not rep.degraded  # retry isn't degrading
        assert rep.retries == 1

    def test_degrading_actions_flip_flag(self):
        for action in ("static-pivot", "failover-root", "precond-refresh",
                       "refine-stall"):
            rep = RecoveryReport()
            rep.record("LU(D)", action, RuntimeError("x"))
            assert rep.degraded, action

    def test_summary_and_to_dict(self):
        rep = RecoveryReport()
        rep.record("LU(D)", "static-pivot",
                   SingularSubdomainError("bad pivot"), subdomain=2,
                   detail="perturbed")
        rep.perturbed_pivots = 3
        text = rep.summary()
        assert "DEGRADED" in text
        assert "LU(D)[l=2]" in text
        assert "3 perturbed pivots" in text
        d = rep.to_dict()
        assert d["degraded"] and d["perturbed_pivots"] == 3
        assert d["events"][0]["error"] == "SingularSubdomainError"
        assert rep.actions() == {"static-pivot": 1}

    def test_emit_recovery_counts_on_tracer(self):
        tracer = Tracer()
        rep = RecoveryReport()
        emit_recovery(tracer, rep, "LU(S)", "full-pivot", RuntimeError("x"))
        emit_recovery(tracer, rep, "Solve", "precond-refresh",
                      KrylovBreakdownError("y"))
        assert tracer.counters["recovery_events"] == 2
        assert tracer.counters["recovery_full_pivot"] == 1
        assert tracer.counters["recovery_precond_refresh"] == 1
        assert len(rep.events) == 2


# ---------------------------------------------------------------------------
# structured errors out of the LU kernel + the factorization ladder
# ---------------------------------------------------------------------------

def _singular4() -> sp.csc_matrix:
    """4x4 with an exactly dependent column pair (numerically singular)."""
    A = np.array([[2.0, 1.0, 3.0, 0.0],
                  [4.0, 2.0, 6.0, 1.0],
                  [1.0, 0.5, 1.5, 2.0],
                  [0.0, 0.0, 0.0, 1.0]])
    return sp.csc_matrix(A)


class TestFactorizeResilient:
    def test_gp_raises_structured_error(self):
        with pytest.raises(SingularSubdomainError) as exc:
            GilbertPeierlsLU(_singular4(), subdomain=5)
        err = exc.value
        assert err.column is not None and err.pivot == 0.0
        assert err.subdomain == 5
        assert "stage=LU(D)" in str(err)

    def test_gp_structural_singularity(self):
        A = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularSubdomainError):
            GilbertPeierlsLU(A)

    def test_static_pivoting_survives_and_counts(self):
        lu = GilbertPeierlsLU(_singular4(), static_pivoting=True)
        assert lu.perturbations >= 1
        assert np.all(np.isfinite(lu.factors.L.data))
        assert np.all(np.isfinite(lu.factors.U.data))

    def test_rejects_non_finite_input(self):
        A = np.eye(3)
        A[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            factorize(sp.csc_matrix(A))

    def test_ladder_escalates_to_static_pivot(self):
        rep = RecoveryReport()
        tracer = Tracer()
        factors, handle_thresh = factorize_resilient(
            _singular4(), diag_pivot_thresh=0.0, subdomain=1,
            report=rep, tracer=tracer)
        # the static-pivot rung keeps no SuperLU handle to re-attach
        assert handle_thresh is None and factors.handle is None
        assert rep.perturbed_pivots >= 1
        assert rep.degraded
        actions = rep.actions()
        assert actions.get("full-pivot") == 1
        assert actions.get("static-pivot") == 1
        assert tracer.counters["perturbed_pivots"] == rep.perturbed_pivots
        # the perturbed factors are still usable
        b = np.ones(4)
        x = factors.solve(b)
        assert np.all(np.isfinite(x))

    def test_ladder_no_events_on_healthy_matrix(self):
        rep = RecoveryReport()
        A = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        factors, handle_thresh = factorize_resilient(A, report=rep)
        # first rung: the handle recipe is the caller's own threshold
        assert handle_thresh == 0.0 and rep.healthy
        assert rep.perturbed_pivots == 0
        x = factors.solve(np.array([1.0, 2.0]))
        np.testing.assert_allclose(A.toarray() @ x, [1.0, 2.0], atol=1e-12)


# ---------------------------------------------------------------------------
# the silent-data-corruption ladder, on fake detectors and repairs
# ---------------------------------------------------------------------------

class TestSdcLadder:
    DETAILS = dict(unrepaired="reported, not repaired",
                   recovered="repaired and re-verified")

    @staticmethod
    def _finding(ell=None, detail="checksum off"):
        return (SdcDetectedError("boom", site="lu", subdomain=ell), detail,
                ell)

    def _climb(self, findings, *, recover, repair, **details):
        tracer, report = Tracer(), RecoveryReport()
        calls = []

        def spy():
            calls.append(len(report.events))
            return repair()

        ok = sdc_ladder(tracer, report, "LU(D)", findings, recover=recover,
                        repair=spy, **{**self.DETAILS, **details})
        log = [(e.action, e.subdomain, e.detail) for e in report.events]
        return ok, log, tracer.counters, report, calls

    def test_detect_only_reports_and_stops(self):
        ok, log, counters, report, calls = self._climb(
            [self._finding(2)], recover=False, repair=lambda: None)
        assert not ok and not calls          # the repair never ran
        assert log == [("sdc-detected", 2, "checksum off"),
                       ("sdc-unrecoverable", 2, "reported, not repaired")]
        assert counters["sdc_detected"] == 1
        assert "sdc_recovered" not in counters
        assert report.degraded

    def test_clean_repair_recovers(self):
        ok, log, counters, report, calls = self._climb(
            [self._finding(2)], recover=True, repair=lambda: None)
        assert ok and calls == [1]           # after the detection event
        assert log == [("sdc-detected", 2, "checksum off"),
                       ("sdc-recovered", 2, "repaired and re-verified")]
        assert counters["sdc_detected"] == counters["sdc_recovered"] == 1
        assert not report.degraded
        assert {e.error for e in report.events} == {"SdcDetectedError"}

    def test_dirty_repair_says_what_is_still_wrong(self):
        ok, log, counters, report, _ = self._climb(
            [self._finding()], recover=True,
            repair=lambda: "still off by 3e-2")
        assert not ok
        assert log == [("sdc-detected", None, "checksum off"),
                       ("sdc-unrecoverable", None, "still off by 3e-2")]
        assert "sdc_recovered" not in counters
        assert report.degraded

    @pytest.mark.parametrize("still_wrong, verdict", [
        (None, ("sdc-recovered", "repaired and re-verified")),
        ("both still off", ("sdc-unrecoverable", "both still off")),
    ])
    def test_batch_is_reported_then_repaired_once_then_judged(
            self, still_wrong, verdict):
        # the solve-phase sweep's order: every detection first, ONE
        # repair for the batch, then one verdict per finding
        batch = [self._finding(1, "d1"), self._finding(3, "d3")]
        ok, log, counters, _, calls = self._climb(
            batch, recover=True, repair=lambda: still_wrong)
        assert ok == (still_wrong is None)
        assert calls == [2]
        assert log == [("sdc-detected", 1, "d1"), ("sdc-detected", 3, "d3"),
                       (verdict[0], 1, verdict[1]),
                       (verdict[0], 3, verdict[1])]
        assert counters["sdc_detected"] == 2
        assert counters.get("sdc_recovered", 0) == (2 if ok else 0)

    def test_no_verdict_when_the_caller_escalates(self):
        # unrepaired=None: a result that failed its transport digest
        # twice is failed over by the fan-out triage, not judged here
        ok, log, _, report, calls = self._climb(
            [self._finding(0)], recover=False, repair=lambda: None,
            unrepaired=None)
        assert not ok and not calls
        assert log == [("sdc-detected", 0, "checksum off")]
        assert not report.degraded

    def test_never_entered_on_a_clean_solve(self, monkeypatch):
        from tests.conftest import grid_laplacian

        from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions
        from repro.solver import partasks, pdslin

        entered = []
        for module in (pdslin, partasks):
            monkeypatch.setattr(module, "sdc_ladder",
                                lambda *a, **kw: entered.append(a))
        A = grid_laplacian(12, 12)
        tracer = Tracer()
        res = PDSLin(A, PDSLinConfig(k=4, abft="detect+recover"),
                     runtime=RuntimeOptions(tracer=tracer)).solve(
                         np.ones(A.shape[0]))
        assert res.converged and tracer.counters["sdc_checks"] > 0
        assert not entered

