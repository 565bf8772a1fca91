"""Tests for the perf-regression gate and its CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import smoke
from repro.obs.gate import compare_metrics

REPO = Path(__file__).resolve().parent.parent


def metrics(wall_a=0.10, wall_b=0.20, ops=1000, total=0.30):
    return {
        "schema_version": 1,
        "stages": {
            "stage_a": {"wall_s": wall_a, "calls": 1,
                        "counters": {"ops": ops}},
            "stage_b": {"wall_s": wall_b, "calls": 2, "counters": {}},
        },
        "totals": {"wall_s": total, "counters": {"ops": ops}},
    }


class TestCompareMetrics:
    def test_identical_metrics_pass(self):
        report = compare_metrics(metrics(), metrics())
        assert report.ok
        assert report.regressions == []
        assert report.describe().endswith("perf gate: PASS")

    def test_within_tolerance_passes(self):
        # counters within ops_tol of the baseline, either side
        assert compare_metrics(metrics(ops=1050), metrics()).ok
        assert compare_metrics(metrics(ops=950), metrics()).ok

    def test_wall_time_is_not_judged(self):
        cur = metrics(wall_a=3.5, wall_b=9.0, total=12.5)
        report = compare_metrics(cur, metrics())
        assert report.ok
        assert not any(c.metric == "wall_s" for c in report.checks)

    def test_baseline_tightened_by_half_fails(self):
        # same run, baseline counters halved -> ratio 2.0; doubled -> 0.5
        cur = metrics()
        for factor in (0.5, 2.0):
            moved = metrics(ops=int(1000 * factor))
            assert not compare_metrics(cur, moved).ok, factor

    def test_counter_regression_uses_tight_tolerance(self):
        cur = metrics(ops=1200)  # 1.2x > ops_tol 1.10
        report = compare_metrics(cur, metrics())
        assert any(c.metric == "ops" and c.regressed
                   for c in report.regressions)
        assert compare_metrics(cur, metrics(), ops_tol=1.25).ok

    def test_falling_counter_fails(self):
        # ABFT audits silently off: sdc_checks 11 -> 0 is not a pass
        base, cur = metrics(), metrics()
        base["stages"]["stage_a"]["counters"]["sdc_checks"] = 11
        cur["stages"]["stage_a"]["counters"]["sdc_checks"] = 0
        for current in (cur, metrics()):  # fallen to 0, or gone
            report = compare_metrics(current, base)
            bad = [c for c in report.regressions
                   if c.metric == "sdc_checks"]
            assert bad and not report.ok
            assert "re-record the baseline deliberately" in bad[0].describe()

    def test_counter_new_to_the_baseline_fails(self):
        cur = metrics()
        cur["stages"]["stage_b"]["counters"]["refactorizations"] = 1
        report = compare_metrics(cur, metrics())
        assert [c.metric for c in report.regressions] == ["refactorizations"]

    def test_changed_call_count_fails(self):
        for calls in (1, 3):  # stage_b ran twice in the baseline
            cur = metrics()
            cur["stages"]["stage_b"]["calls"] = calls
            # call counts are exact whatever the counter tolerance
            for tol in (1.10, 10.0):
                report = compare_metrics(cur, metrics(), ops_tol=tol)
                assert [(c.stage, c.metric) for c in report.regressions] \
                    == [("stage_b", "calls")]

    def test_missing_stage_fails(self):
        cur = metrics()
        del cur["stages"]["stage_b"]
        report = compare_metrics(cur, metrics())
        assert not report.ok
        assert report.missing_stages == ["stage_b"]
        assert "stage_b" in report.describe()

    def test_extra_current_stage_fails(self):
        # a stage the baseline has never seen means the pipeline changed
        # shape: fail until the baseline is re-recorded deliberately
        cur = metrics()
        cur["stages"]["new_stage"] = {"wall_s": 9.9, "calls": 1,
                                      "counters": {}}
        report = compare_metrics(cur, metrics())
        assert not report.ok
        assert report.extra_stages == ["new_stage"]
        assert "new_stage" in report.describe()
        assert "not in baseline" in report.describe()

    def test_noise_counters_are_not_gated(self):
        base = metrics()
        base["stages"]["stage_a"]["counters"]["noise:model_skew_x"] = 0.001
        for value in (42.0, 0.001, 0.0, None):  # up, same, down, gone
            cur = metrics()
            if value is not None:
                cur["stages"]["stage_a"]["counters"][
                    "noise:model_skew_x"] = value
            report = compare_metrics(cur, base)
            assert report.ok
            assert not any(c.metric.startswith("noise:")
                           for c in report.checks)

    def test_malformed_stage_raises_clear_error(self):
        cur = metrics()
        del cur["stages"]["stage_a"]["calls"]
        with pytest.raises(ValueError, match="stage 'stage_a'.*calls"):
            compare_metrics(cur, metrics())
        base = metrics()
        base["stages"]["stage_b"]["calls"] = None
        with pytest.raises(ValueError, match="baseline"):
            compare_metrics(metrics(), base)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_metrics(metrics(), metrics(), ops_tol=0)


class TestPerfGateCli:
    def _run(self, tmp_path, cur, base, *extra):
        cur_p = tmp_path / "current.json"
        base_p = tmp_path / "baseline.json"
        cur_p.write_text(json.dumps(cur))
        base_p.write_text(json.dumps(base))
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "perf_gate.py"),
             str(cur_p), str(base_p), *extra],
            capture_output=True, text=True)

    def test_exit_zero_on_pass(self, tmp_path):
        proc = self._run(tmp_path, metrics(), metrics())
        assert proc.returncode == 0, proc.stderr
        assert "perf gate: PASS" in proc.stdout

    def test_exit_nonzero_on_regression(self, tmp_path):
        proc = self._run(tmp_path, metrics(ops=2000), metrics())
        assert proc.returncode == 1
        assert "perf gate: FAIL" in proc.stdout

    def test_tolerance_flags_are_honored(self, tmp_path):
        proc = self._run(tmp_path, metrics(ops=2000), metrics(),
                         "--ops-tol", "10.0")
        assert proc.returncode == 0, proc.stdout


def test_committed_baseline_is_well_formed():
    """The baselines the CI trace-shape job diffs against stay valid:
    no wall clock in them, and a fresh run of each scenario passes the
    two-sided gate (call counts equal, counters within ``ops_tol``)."""
    for name, required in (
            ("smoke",
             ("partition", "factor_subdomain", "interface_solve",
              "schur_assemble", "factor_schur", "gmres", "solve",
              "abft_verify")),
            ("multirhs",
             ("solve_block", "refine_block"))):
        text = (REPO / "benchmarks" / "baselines" / f"{name}.json").read_text()
        base = json.loads(text)
        assert base["schema_version"] == 1
        assert "wall_s" not in text
        for stage in required:
            assert stage in base["stages"], (name, stage)
        for st in base["stages"].values():
            assert st["calls"] >= 1
        assert base["meta"]["converged"] is True
        report = compare_metrics(smoke.run(name).record, base)
        assert report.ok, report.describe()
