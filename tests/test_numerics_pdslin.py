"""End-to-end tests of the numerics layer inside PDSLin: the robust
stress suite certifies with the layer on and visibly fails with it off,
accuracy is surfaced on results/reports/metrics, and refinement stalls
escalate into the resilience ladder."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from tests.conftest import grid_laplacian

from repro import smoke
from repro.matrices import generate_robust, robust_suite_names
from repro.numerics import backward_errors
from repro.obs import Tracer
from repro.obs.export import load_metrics, stage_metrics, write_metrics
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions
from repro.solver.report import format_report, run_report

CERTIFY_TOL = 1e-12
UNPROTECTED_BERR = 1e-8


def _cfg(**kw) -> PDSLinConfig:
    kw.setdefault("k", 4)
    kw.setdefault("seed", 0)
    return PDSLinConfig(**kw)


def _rhs(A, seed=0):
    return A @ np.random.default_rng(seed).standard_normal(A.shape[0])


# ---------------------------------------------------------------------------
# the acceptance criterion: robust suite certifies iff numerics is on
# ---------------------------------------------------------------------------

class TestRobustSuiteAcceptance:
    @pytest.mark.parametrize("name", robust_suite_names())
    def test_certified_with_numerics(self, name):
        gm = generate_robust(name, "tiny")
        b = _rhs(gm.A)
        res = PDSLin(gm.A, _cfg()).solve(b)
        assert res.converged
        assert res.certified
        assert res.accuracy is not None
        assert res.accuracy.berr <= CERTIFY_TOL

    @pytest.mark.parametrize("name", robust_suite_names())
    def test_unprotected_pipeline_fails(self, name):
        gm = generate_robust(name, "tiny")
        b = _rhs(gm.A)
        try:
            res = PDSLin(gm.A, _cfg(numerics=False)).solve(b)
        except Exception:
            return  # outright breakdown also counts as failure
        berr, _ = backward_errors(gm.A, res.x, b)
        assert (not res.converged) or berr > UNPROTECTED_BERR

    def test_lying_residual_on_graded_matrix(self):
        # the motivating phenomenon: without equilibration the residual
        # of the scaled-away rows is invisible — berr exposes it
        gm = generate_robust("graded.laplace", "tiny")
        b = _rhs(gm.A)
        res = PDSLin(gm.A, _cfg(numerics=False)).solve(b)
        berr, _ = backward_errors(gm.A, res.x, b)
        assert berr > UNPROTECTED_BERR

    def test_smoke_runner_passes(self):
        run = smoke.run("numerics", check_unprotected=False)
        assert run.ok
        assert set(run.record["results"]) == set(robust_suite_names())
        for name in robust_suite_names():
            assert run.checks[f"{name}:certified"]


# ---------------------------------------------------------------------------
# accuracy surfaced on results, reports, and metrics
# ---------------------------------------------------------------------------

class TestAccuracySurfacing:
    def test_result_accuracy_fields(self, grid16):
        res = PDSLin(grid16, _cfg()).solve(_rhs(grid16))
        acc = res.accuracy
        assert acc is not None
        assert acc.certified and res.certified
        assert acc.berr <= CERTIFY_TOL
        assert np.isfinite(acc.cond_est)
        assert acc.refine_steps >= 0
        assert len(acc.berr_history) == acc.refine_steps + 1

    def test_recovery_report_carries_accuracy(self, grid16):
        res = PDSLin(grid16, _cfg()).solve(_rhs(grid16))
        rep = res.recovery
        assert rep.accuracy is not None
        assert rep.accuracy["certified"]
        assert "accuracy: CERTIFIED" in rep.summary()
        assert rep.to_dict()["accuracy"]["berr"] == res.accuracy.berr

    def test_run_report_includes_numerics_and_accuracy(self, grid16):
        solver = PDSLin(grid16, _cfg())
        res = solver.solve(_rhs(grid16))
        rep = run_report(solver, res)
        assert rep["numerics"] is not None
        assert rep["numerics"]["equilibrated"]
        assert rep["solve"]["certified"]
        assert rep["solve"]["accuracy"]["berr"] <= CERTIFY_TOL
        assert "accuracy" in format_report(rep)

    def test_tracer_counters_and_metrics_roundtrip(self, tmp_path):
        gm = generate_robust("graded.laplace", "tiny")
        tracer = Tracer()
        res = PDSLin(gm.A, _cfg(),
                     runtime=RuntimeOptions(tracer=tracer)).solve(_rhs(gm.A))
        assert res.certified
        for key in ("cond_est_subdomain", "cond_est_schur",
                    "refine_steps", "refine_certified",
                    "equilibrate_iters"):
            assert key in tracer.counters, key
        m = stage_metrics(tracer)
        assert "equilibrate" in m["stages"]
        assert "refine" in m["stages"]
        assert "cond_est_schur" in m["totals"]["counters"]
        path = tmp_path / "metrics.json"
        write_metrics(tracer, path)
        loaded = load_metrics(path)
        assert loaded["totals"]["counters"]["refine_certified"] >= 1

    def test_master_switch_disables_everything(self, grid16):
        tracer = Tracer()
        solver = PDSLin(grid16, _cfg(numerics=False),
                        runtime=RuntimeOptions(tracer=tracer))
        res = solver.solve(_rhs(grid16))
        assert res.converged
        assert res.accuracy is None
        assert not res.certified
        assert solver._prep is None
        for key in tracer.counters:
            assert not key.startswith(("cond_est", "refine",
                                       "equilibrate", "matching"))


# ---------------------------------------------------------------------------
# condition-driven drop tightening and Schur rebuild
# ---------------------------------------------------------------------------

class TestCondestDrivenAdaptation:
    def test_tightening_and_rebuild_on_graded_matrix(self):
        # equilibration off: the graded conditioning hits the subdomain
        # factors and the condest machinery must react
        gm = generate_robust("graded.laplace", "tiny")
        tracer = Tracer()
        cfg = _cfg(equilibrate=False, static_pivot_matching=False)
        res = PDSLin(gm.A, cfg,
                     runtime=RuntimeOptions(tracer=tracer)).solve(_rhs(gm.A))
        assert res.certified  # refinement + adaptation still certify
        assert tracer.counters.get("cond_tightenings", 0) >= 1
        assert tracer.counters.get("schur_cond_rebuilds", 0) >= 1

    def test_cond_estimates_recorded(self, grid16):
        solver = PDSLin(grid16, _cfg())
        solver.setup()
        conds = solver.cond_estimates
        assert len(conds["subdomains"]) == solver.config.k
        assert all(np.isfinite(v) and v >= 1.0
                   for v in conds["subdomains"].values())
        assert conds["schur"] is not None and conds["schur"] >= 1.0

    def test_well_conditioned_system_untouched(self, grid16):
        tracer = Tracer()
        solver = PDSLin(grid16, _cfg(), runtime=RuntimeOptions(tracer=tracer))
        solver.setup()
        assert tracer.counters.get("cond_tightenings", 0) == 0
        assert solver._drop_schur_eff == solver.config.drop_schur


# ---------------------------------------------------------------------------
# refinement-stall escalation into the resilience ladder
# ---------------------------------------------------------------------------

class TestRefineStallEscalation:
    def test_on_refine_stall_rebuilds_once(self, grid16):
        solver = PDSLin(grid16, _cfg(drop_schur=1e-4))
        solver.setup()
        assert solver._schur_drop_used > 0.0
        assert solver._on_refine_stall() is True
        assert solver._schur_drop_used == 0.0
        assert solver.recovery.actions().get("precond-refresh") == 1
        # nothing left to strengthen: a second stall cannot escalate
        assert solver._on_refine_stall() is False

    def test_stall_degrades_report(self, grid16, monkeypatch):
        # sloppy main solve + useless corrections: refinement stalls,
        # escalates once (precond rebuild), stalls again, and the run is
        # reported as degraded via a "refine-stall" event
        solver = PDSLin(grid16, _cfg(gmres_tol=1e-3, drop_schur=1e-4))
        monkeypatch.setattr(solver, "_correction_solve_block",
                            lambda R: np.zeros_like(R))
        res = solver.solve(_rhs(grid16))
        acc = res.accuracy
        assert acc is not None
        assert acc.stagnated
        assert not res.certified
        actions = res.recovery.actions()
        assert actions.get("refine-stall") == 1
        assert res.degraded
        assert "refine-stall" in res.recovery.summary()


# ---------------------------------------------------------------------------
# matrix updates through the working-system transform
# ---------------------------------------------------------------------------

class TestUpdateMatrixWithNumerics:
    def _ill_scaled(self, seed=0):
        rng = np.random.default_rng(seed)
        base = grid_laplacian(10, 10)
        d = 10.0 ** (5 * (rng.random(base.shape[0]) - 0.5))
        return (sp.diags(d) @ base @ sp.diags(d)).tocsr()

    def test_update_values_recertifies(self):
        A = self._ill_scaled()
        solver = PDSLin(A, _cfg())
        res1 = solver.solve(_rhs(A))
        assert res1.certified
        A2 = A.copy()
        A2.data *= 3.0
        solver.update_matrix(A2)
        b2 = _rhs(A2, seed=1)
        res2 = solver.solve(b2)
        assert res2.certified
        berr, _ = backward_errors(A2, res2.x, b2)
        assert berr <= CERTIFY_TOL

    def test_update_rejects_nonfinite_values(self):
        A = self._ill_scaled(1)
        solver = PDSLin(A, _cfg())
        solver.setup()
        A2 = A.copy()
        A2.data = A2.data.copy()
        A2.data[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solver.update_matrix(A2)
