"""Observability layer: tracing, counters, perf artifacts, perf gate.

``repro.obs`` is the instrumentation subsystem every stage of the
pipeline reports through:

- :class:`Tracer` / :data:`NULL_TRACER` — nested spans + named
  counters; disabled tracing is a strict no-op;
- :mod:`repro.obs.events` — the trace-event model shared with the
  simulated machine's exporter (:mod:`repro.parallel.trace`);
- :mod:`repro.obs.export` — Chrome-trace JSON, flat ``metrics.json``,
  human summaries;
- :mod:`repro.obs.gate` — the perf-regression comparison used by
  ``tools/perf_gate.py``.

The traced solves CI gates live with every other drill in
:mod:`repro.smoke` (``smoke``, ``multirhs``), above the solver.
"""

from repro.obs.events import TraceEvent, chrome_trace_dict, write_chrome_trace
from repro.obs.export import (
    export_chrome_trace,
    format_stage_summary,
    load_metrics,
    stage_metrics,
    write_metrics,
)
from repro.obs.gate import GateCheck, GateReport, compare_metrics
from repro.obs.tracer import NULL_TRACER, NullTracer, SpanRecord, Tracer

__all__ = [
    "Tracer", "NullTracer", "NULL_TRACER", "SpanRecord",
    "TraceEvent", "chrome_trace_dict", "write_chrome_trace",
    "export_chrome_trace", "stage_metrics", "write_metrics",
    "load_metrics", "format_stage_summary",
    "GateCheck", "GateReport", "compare_metrics",
]
