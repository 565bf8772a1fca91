"""Tests for run reports, chrome-trace export, and the ILU Schur option."""

import json

import numpy as np
import pytest
from tests.conftest import grid_laplacian

from repro.parallel import SimulatedMachine, export_chrome_trace
from repro.solver import (
    PDSLin,
    PDSLinConfig,
    format_report,
    run_report,
    save_report,
)


@pytest.fixture(scope="module")
def solved():
    A = grid_laplacian(12, 12)
    rng = np.random.default_rng(0)
    solver = PDSLin(A, PDSLinConfig(k=4, seed=0, block_size=16))
    result = solver.solve(rng.standard_normal(A.shape[0]))
    return solver, result


class TestRunReport:
    def test_report_structure(self, solved):
        solver, result = solved
        rep = run_report(solver, result)
        assert rep["n"] == 144
        assert set(rep["partition"]) == {"separator_size", "dim_ratio",
                                         "nnz_D_ratio", "ncol_E_ratio",
                                         "nnz_E_ratio"}
        assert len(rep["subdomains"]) == 4
        assert rep["solve"]["converged"]

    def test_report_json_serializable(self, solved):
        solver, result = solved
        json.dumps(run_report(solver, result))

    def test_save_report(self, solved, tmp_path):
        solver, result = solved
        path = tmp_path / "r.json"
        save_report(run_report(solver, result), path)
        loaded = json.loads(path.read_text())
        assert loaded["solve"]["converged"]

    def test_format_report_readable(self, solved):
        solver, result = solved
        txt = format_report(run_report(solver, result))
        assert "separator" in txt and "iters=" in txt

    def test_unsetup_solver_rejected(self):
        A = grid_laplacian(6, 6)
        solver = PDSLin(A, PDSLinConfig(k=2))
        with pytest.raises(ValueError):
            run_report(solver, None)  # type: ignore[arg-type]


class TestChromeTrace:
    def test_export_shape(self, solved, tmp_path):
        solver, _ = solved
        path = tmp_path / "trace.json"
        trace = export_chrome_trace(solver.machine, path)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert events, "no duration events exported"
        # stage ordering: every LU(D) event ends before any Solve starts
        lud_end = max(e["ts"] + e["dur"] for e in events
                      if e["name"] == "LU(D)")
        solve_start = min(e["ts"] for e in events if e["name"] == "Solve")
        assert lud_end <= solve_start + 1e-9
        # file round-trips as JSON
        json.loads(path.read_text())

    def test_thread_metadata_per_process(self, solved):
        solver, _ = solved
        import io
        buf = io.StringIO()
        trace = export_chrome_trace(solver.machine, buf)
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["name"] == "thread_name"}
        assert {"root", "proc0", "proc3"} <= names

    def test_empty_machine(self, tmp_path):
        m = SimulatedMachine(2)
        trace = export_chrome_trace(m, tmp_path / "t.json")
        assert all(e["ph"] == "M" for e in trace["traceEvents"])
