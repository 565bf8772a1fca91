"""Tests for the observability layer: tracer, exporters, solver wiring."""

import json
import time

import numpy as np
import pytest

from repro.matrices import generate
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace_dict,
    export_chrome_trace,
    load_metrics,
    stage_metrics,
    write_metrics,
)
from repro.obs.export import format_stage_summary
from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions


class TestSpans:
    def test_nesting_records_path_and_depth(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner", l=3):
                pass
        inner, outer = tr.spans
        assert inner.name == "inner" and inner.depth == 1
        assert inner.path == "outer/inner"
        assert inner.attrs == {"l": 3}
        assert outer.name == "outer" and outer.depth == 0
        assert outer.path == "outer"
        # the inner span is contained in the outer one
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s

    def test_wall_time_measures_elapsed(self):
        tr = Tracer()
        with tr.span("sleep"):
            time.sleep(0.02)
        assert tr.spans[0].wall_s >= 0.015

    def test_depth_tracks_open_spans(self):
        tr = Tracer()
        assert tr.depth == 0
        with tr.span("a"):
            assert tr.depth == 1
            with tr.span("b"):
                assert tr.depth == 2
        assert tr.depth == 0

    def test_exception_still_closes_span(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        assert tr.depth == 0
        assert [s.name for s in tr.spans] == ["boom"]

    def test_iter_roots_yields_top_level_only(self):
        tr = Tracer()
        with tr.span("r1"):
            with tr.span("child"):
                pass
        with tr.span("r2"):
            pass
        assert [s.name for s in tr.iter_roots()] == ["r1", "r2"]


class TestCounters:
    def test_counts_accumulate_globally_and_per_span(self):
        tr = Tracer()
        with tr.span("a"):
            tr.count("nnz", 10)
            with tr.span("b"):
                tr.count("nnz", 5)
                tr.count("iters")
        assert tr.counters == {"nnz": 15, "iters": 1}
        by_name = {s.name: s for s in tr.spans}
        # each increment lands on the innermost open span only
        assert by_name["a"].counters == {"nnz": 10}
        assert by_name["b"].counters == {"nnz": 5, "iters": 1}

    def test_count_outside_any_span_is_global_only(self):
        tr = Tracer()
        tr.count("x", 2)
        assert tr.counters == {"x": 2}
        assert tr.spans == []


class TestNullTracer:
    def test_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", attr=1):
            NULL_TRACER.count("ignored", 99)
        assert NULL_TRACER.depth == 0
        assert list(NULL_TRACER.spans) == []
        assert NULL_TRACER.counters == {}
        assert NULL_TRACER.events() == []
        assert list(NULL_TRACER.iter_roots()) == []

    def test_span_returns_shared_context_manager(self):
        # one reusable object: no per-call allocation when disabled
        assert NullTracer().span("a") is NULL_TRACER.span("b")


class TestExport:
    def _traced(self):
        tr = Tracer()
        with tr.span("stage_a", k=4):
            tr.count("ops", 100)
        with tr.span("stage_a"):
            tr.count("ops", 50)
        with tr.span("stage_b"):
            pass
        return tr

    def test_stage_metrics_aggregates_calls_and_counters(self):
        m = stage_metrics(self._traced())
        assert m["stages"]["stage_a"]["calls"] == 2
        assert m["stages"]["stage_a"]["counters"] == {"ops": 150}
        assert m["stages"]["stage_b"]["calls"] == 1
        assert m["totals"]["counters"] == {"ops": 150}

    def test_totals_do_not_double_count_nesting(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.01)
        m = stage_metrics(tr)
        outer_wall = m["stages"]["outer"]["wall_s"]
        # total == outer (the only root), not outer + inner
        assert m["totals"]["wall_s"] == pytest.approx(outer_wall)

    def test_metrics_round_trip(self, tmp_path):
        tr = self._traced()
        path = tmp_path / "metrics.json"
        written = write_metrics(tr, path, meta={"seed": 0})
        loaded = load_metrics(path)
        assert loaded == json.loads(json.dumps(written))
        assert loaded["meta"] == {"seed": 0}

    def test_chrome_trace_is_valid(self, tmp_path):
        tr = self._traced()
        path = tmp_path / "trace.json"
        export_chrome_trace(tr, path)
        doc = json.loads(path.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3
        assert all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in xs)
        args = {e["name"]: e.get("args", {}) for e in xs}
        assert args["stage_a"].get("ops") in (100, 50)

    def test_chrome_trace_dict_from_events(self):
        tr = self._traced()
        doc = chrome_trace_dict(tr.events())
        assert doc["displayTimeUnit"] == "ms"

    def test_format_stage_summary(self):
        text = format_stage_summary(self._traced())
        assert "stage_a" in text and "TOTAL" in text
        assert "ops=150" in text
        assert format_stage_summary(Tracer()) == "(no spans recorded)"


class TestSolverWiring:
    @pytest.fixture(scope="class")
    def traced_solve(self):
        gm = generate("tdr190k", "tiny")
        A = gm.A.tocsr()
        b = np.random.default_rng(0).standard_normal(A.shape[0])
        tracer = Tracer()
        solver = PDSLin(A, PDSLinConfig(k=2, seed=0),
                        runtime=RuntimeOptions(tracer=tracer))
        result = solver.solve(b)
        return tracer, result

    def test_pipeline_stages_are_covered(self, traced_solve):
        tracer, result = traced_solve
        assert result.converged
        names = {s.name for s in tracer.spans}
        assert {"partition", "factor_subdomain", "interface_solve",
                "schur_assemble", "factor_schur", "solve"} <= names
        assert tracer.depth == 0

    def test_key_counters_recorded(self, traced_solve):
        tracer, _ = traced_solve
        assert tracer.counters["separator_size"] > 0
        assert tracer.counters["lu_fill_nnz"] > 0
        assert tracer.counters["lu_flops"] > 0
        assert tracer.counters["gmres_iterations"] >= 1

    def test_default_solver_uses_null_tracer(self):
        gm = generate("tdr190k", "tiny")
        solver = PDSLin(gm.A.tocsr(), PDSLinConfig(k=2, seed=0))
        assert solver.tracer is NULL_TRACER
