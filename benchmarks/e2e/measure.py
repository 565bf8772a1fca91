"""One run of one workload: the untraced end-to-end measurement, or an
untraced and then an identical traced pass for the per-layer metrics."""

from __future__ import annotations

import statistics
import sys
from dataclasses import replace

import numpy as np

import harness
import layers
import workloads as wl
from repro.obs import Tracer

TRACED_PLAN = (1, 2)    # rounds, warm cycles of a traced PDSLin pass
LATE_MS_LIMIT = 5.0     # open-loop generator lateness at p95: the
#                         interpreter's thread switch interval


def _latency_p95(streams: dict) -> float:
    """p95 of each latency stream, averaged."""
    parts = [harness.percentile(v, 95) for v in streams.values() if len(v)]
    return statistics.fmean(parts) if parts else 0.0


def end_to_end(spec, rng, oracle, seconds: float, quick: bool):
    """The untraced measurement: (metric summaries, plan, invalid)."""
    served = isinstance(spec, wl.Served)
    if served:
        done = wl.run_served(spec, rng, oracle, seconds=seconds)
    else:
        done = wl.run_direct(spec, rng, oracle, seconds=seconds,
                             plan=(1, 1) if quick else None)
    rss = harness.peak_rss_mb()     # before the oracle builds references
    invalid = []
    if served:
        late = done.bench["service.generator_late_ms_p95"]
        if late > LATE_MS_LIMIT:
            invalid.append(f"open-loop generator late by {late:.2f} ms at "
                           f"p95 (limit {LATE_MS_LIMIT} ms)")
        if done.bench["service.rejected"]:
            invalid.append("the service refused requests at the base rate")
        wl.compare_with_direct(spec, done.traffic, rng, oracle)
    sm = done.samples
    # columns per second over one batch of each stream, each batch at
    # its stream's median wall
    batch = harness.over_streams(sm["batch_s"])
    cols = done.batch_cols * len(sm["batch_s"])
    summaries = {
        "setup_s": harness.over_streams(sm["setup_s"]),
        "time_to_solution_s": harness.over_streams(sm["time_to_solution_s"]),
        "latency_p50_ms":
            harness.over_streams(sm["latency_ms"], statistics.fmean),
        "rhs_per_s": {"median": cols / batch["median"],
                      "q1": cols / batch["q3"], "q3": cols / batch["q1"],
                      "n": batch["n"]} if batch["n"] else harness.point(0.0),
        "peak_rss_mb": harness.point(rss),
    }
    return summaries, done.plan, invalid


def per_layer(spec, rng, oracle, seconds: float, quick: bool, warn):
    """An untraced pass, then the same operation counts traced:
    (metric summaries, plan)."""
    tracer = Tracer()
    if isinstance(spec, wl.Served):
        short = replace(spec, bursts=1)
        kw = {"seconds": seconds / 2, "rate80_s": seconds / 5}
        plain = wl.run_served(short, rng, oracle, **kw)
        traced = wl.run_served(short, rng, oracle, tracer=tracer, **kw)
        traced.bench["service.overhead_ms_p50"] = \
            wl.compare_with_direct(spec, traced.traffic, rng, oracle)
        traced.bench["service.latency_p95_ms"] = \
            _latency_p95(traced.samples["latency_ms"])
    else:
        plan = (1, 1) if quick else TRACED_PLAN
        plain = wl.run_direct(spec, rng, oracle, seconds=0.0, plan=plan)
        traced = wl.run_direct(spec, rng, oracle, seconds=0.0,
                               tracer=tracer, plan=plan)
        traced.bench["solver.solve_p95_ms"] = \
            _latency_p95(traced.samples["latency_ms"])
        if spec.process_backend:
            traced.bench.update(wl.process_backend_layers(
                spec, harness.over_streams(
                    traced.samples["setup_s"])["median"], warn))
    bench = traced.bench
    bench.update(wl.partition_layers(spec, oracle))
    bench["lu.padded_zero_frac"] = tracer.counters.get("padded_zeros", 0) \
        / max(tracer.counters.get("block_entries", 0), 1)
    bench["obs.tracing_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    values = layers.layer_metrics(tracer.spans, tracer.counters,
                                  traced.wall_s, bench, warn)
    roots = sum(s.wall_s for s in tracer.iter_roots()
                if s.name in layers.KNOWN_SPANS)
    print(f"reconcile: traced wall {traced.wall_s:.4f} s = known root "
          f"spans {roots:.4f} s + unattributed "
          f"{values['solver.unattributed_frac'] * traced.wall_s:.4f} s")
    return {m: harness.point(v) for m, v in values.items()}, traced.plan


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Run one workload one way; returns the full record of the run."""
    host = harness.host_stamp()
    warnings: list[str] = []

    def warn(msg: str) -> None:
        warnings.append(msg)
        print(f"warning: {msg}", file=sys.stderr)

    spec = wl.WORKLOADS[name]
    if quick:
        spec = wl.quick(spec)
    else:
        # one tiny pass through the same code path: imports, lazy
        # set-up and allocator growth are paid before anything is timed
        tiny, rng0 = wl.quick(spec), np.random.default_rng(0)
        tracer = Tracer() if trace else None
        if isinstance(spec, wl.Served):
            wl.run_served(tiny, rng0, harness.Oracle(), seconds=0.5,
                          tracer=tracer)
        else:
            wl.run_direct(tiny, rng0, harness.Oracle(), seconds=0.0,
                          tracer=tracer, plan=(1, 1))

    rng = np.random.default_rng(seed)
    oracle = harness.Oracle()
    invalid: list[str] = []
    if trace:
        summaries, plan = per_layer(spec, rng, oracle, seconds, quick, warn)
    else:
        summaries, plan, invalid = end_to_end(spec, rng, oracle, seconds,
                                              quick)
    oracle.run_references()
    for msg in oracle.failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    for msg in invalid:
        print(f"INVALID: {msg}", file=sys.stderr)
    return {
        "workload": name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "quick": quick,
        "host": host, "plan": {"rounds": plan[0], "cycles": plan[1]},
        "valid": not invalid, "invalid_reasons": invalid,
        "attempted": oracle.attempted, "failed": oracle.failed,
        "failed_frac": oracle.failed_frac, "failures": oracle.failures,
        "warnings": warnings, "metrics": summaries,
    }
