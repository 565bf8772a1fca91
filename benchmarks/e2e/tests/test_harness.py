"""Self-test of the end-to-end benchmark's plumbing.

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

Runs the driver with ``--quick`` (tiny matrices, one round, a few
seconds of traffic), so it checks names, units and accounting, never
the numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E))

import harness  # noqa: E402
import layers  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_within_contract_limits():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert 1 <= MANIFEST["run_seconds"] <= 60
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in MANIFEST[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in MANIFEST["end_to_end"])


def test_layer_table_is_what_the_manifest_declares():
    declared = [(m["name"], m["unit"], m["better"])
                for m in MANIFEST["per_layer"]]
    assert declared == [(la.name, la.unit, la.better)
                        for la in layers.LAYERS]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in MANIFEST["workloads"]])
def test_quick_run_emits_every_declared_metric(workload, trace, tmp_path):
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--quick",
         "--record", str(record)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert np.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    full = json.loads(record.read_text())
    assert full["quick"] is True and full["seed"] == 3
    assert {"nproc", "python", "numpy", "scipy", "blas", "thread_pins",
            "loadavg_1m_at_start"} <= set(full["host"])
    assert full["host"]["thread_pins"]["OMP_NUM_THREADS"] == "1"


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    files there is nothing to measure: non-zero exit, no result line."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for f in E2E.glob("*.py"):
        (bare / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "cold_circuit", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_arithmetic_on_a_synthetic_tree():
    #  root [0, 10]
    #    a [1, 4]          self 3 - 1 = 2
    #      a1 [2, 3]       self 1
    #    b [4, 9]          self 5 - (2 + 1) = 2
    #      b1 [5, 7]       self 2
    #      b2 [7, 8]       self 1
    #  lone [10, 12]       self 2
    S = harness.Span
    spans = [S("a1", 2, 3, 2), S("a", 1, 4, 1), S("b1", 5, 7, 2),
             S("b2", 7, 8, 2), S("b", 4, 9, 1), S("root", 0, 10, 0),
             S("lone", 10, 12, 0)]
    assert harness.self_times(spans) == [1, 2, 2, 1, 2, 2, 2]
    # self times partition the roots' wall time
    assert sum(harness.self_times(spans)) == 12


def test_recorder_nests_and_times():
    rec = harness.SpanRecorder()
    with rec.span("outer") as outer:
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    assert [(s.name, s.depth) for s in rec.spans] == [
        ("inner", 1), ("inner", 1), ("outer", 0)]
    assert outer.wall_s == rec.total("outer") >= rec.total("inner") >= 0
    assert harness.self_times(rec.spans)[2] == pytest.approx(
        rec.total("outer") - rec.total("inner"))


def test_unknown_root_span_counts_as_unattributed():
    S = harness.Span
    spans = [S("partition", 0, 6, 0), S("mystery", 6, 8, 0)]
    warned = []
    out = layers.layer_metrics(spans, {"cut_cost": 7}, 10.0, {},
                               warned.append)
    assert out["core.partition_s"] == 6
    assert out["core.cut_cost"] == 7
    assert out["solver.unattributed_frac"] == pytest.approx(0.4)
    assert any("mystery" in w for w in warned)
    # spans every workload must produce are missed out loud
    assert any("lu.interface_solve_s" in w for w in warned)


def test_injected_wrong_answer_counts_as_failed():
    A = sp.identity(4, format="csr") * 2.0
    b = np.arange(1.0, 5.0)
    oracle = harness.Oracle()
    assert oracle.check("right", A, b, b / 2, True, reference=True)
    assert not oracle.check("wrong", A, b, b / 2 + 1e-3, True)
    assert not oracle.check("diverged", A, b, b / 2, False)
    oracle.check_identical("same bits", b, b.copy())
    oracle.check_identical("one ulp off", b, np.nextafter(b, 9.0))
    oracle.run_references()
    assert (oracle.attempted, oracle.failed) == (6, 3)
    assert oracle.failed_frac == 0.5
    import run
    record = {"failed": oracle.failed, "attempted": oracle.attempted,
              "metrics": {"m": {"median": 1.0}}}
    line = run.result_line(record, {"m": "s"})
    assert line["correct"] is False and line["failed"] == 3
