"""The one table that maps the program's span and counter names onto
the benchmark's per-layer metrics, named ``<module>.<metric>``.

Sources:

- ``span``    summed wall time of the program's tracer spans of that name
- ``self``    summed self time of those spans (children subtracted)
- ``counter`` a program tracer counter
- ``bench``   measured by the benchmark itself (its own spans around
  public entry points, ``service_report()``, partition objects)

Time metrics are totals over the traced pass, whose operation counts
are fixed per workload (see README), so they compare run to run.
``always`` marks spans every workload must produce: if one is missing
the program renamed or dropped it, which is reported as a warning
instead of passing silently as an idle layer.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from harness import self_times


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str
    key: Optional[str] = None
    always: bool = False


LAYERS: tuple[Layer, ...] = (
    # partitioning, from outside: direct calls on the workload's matrices
    Layer("core.rhb_partition_s", "s", "lower", "bench"),
    Layer("graphs.ngd_partition_s", "s", "lower", "bench"),
    Layer("core.build_dbbd_s", "s", "lower", "bench"),
    # partitioning, as the pipeline ran it
    Layer("core.partition_s", "s", "lower", "span", "partition", True),
    Layer("hypergraph.bisect_s", "s", "lower", "span", "rhb_bisect"),
    Layer("core.rhb_overhead_s", "s", "lower", "self", "rhb_partition"),
    Layer("core.cut_cost", "count", "lower", "counter", "cut_cost"),
    Layer("core.separator_frac", "ratio", "lower", "bench"),
    Layer("core.nnzD_imbalance", "ratio", "lower", "bench"),
    Layer("core.rhs_order_s", "s", "lower", "span", "rhs_hypergraph_order"),
    # subdomain factorisation and the interface solve, Comp(S)
    Layer("lu.factor_subdomain_s", "s", "lower", "span",
          "factor_subdomain", True),
    Layer("lu.interface_solve_s", "s", "lower", "span",
          "interface_solve", True),
    Layer("lu.blocked_trsolve_s", "s", "lower", "span",
          "blocked_trsolve", True),
    Layer("lu.padded_zero_frac", "ratio", "lower", "bench"),
    Layer("lu.trsolve_flops", "count", "lower", "counter", "trsolve_flops"),
    Layer("lu.fill_nnz", "count", "lower", "counter", "lu_fill_nnz"),
    Layer("lu.flops", "count", "lower", "counter", "lu_flops"),
    # Schur complement
    Layer("solver.schur_assemble_s", "s", "lower", "span",
          "schur_assemble", True),
    Layer("solver.factor_schur_s", "s", "lower", "span",
          "factor_schur", True),
    Layer("solver.schur_nnz", "count", "lower", "counter", "schur_nnz"),
    # solve phase
    Layer("solver.solve_s", "s", "lower", "span", "solve"),
    Layer("solver.solve_block_s", "s", "lower", "span", "solve_block", True),
    Layer("solver.solve_fanout_s", "s", "lower", "span", "solve_fanout"),
    Layer("solver.solve_p95_ms", "ms", "lower", "bench"),
    Layer("solver.gmres_s", "s", "lower", "span", "gmres", True),
    Layer("solver.gmres_iters", "count", "lower", "counter",
          "gmres_iterations"),
    Layer("solver.refine_block_s", "s", "lower", "span",
          "refine_block", True),
    Layer("numerics.refine_s", "s", "lower", "span", "refine"),
    Layer("numerics.refine_steps", "count", "lower", "counter",
          "refine_steps"),
    # numerics pre-pass
    Layer("numerics.equilibrate_s", "s", "lower", "span",
          "equilibrate", True),
    Layer("numerics.matching_s", "s", "lower", "span", "matching", True),
    # silent-data-corruption defence
    Layer("resilience.abft_s", "s", "lower", "span", "abft_verify", True),
    Layer("resilience.sdc_checks", "count", "lower", "counter",
          "sdc_checks"),
    # serving layer
    Layer("service.setup_span_s", "s", "lower", "span", "service_setup"),
    Layer("service.batch_span_s", "s", "lower", "span", "service_batch"),
    Layer("service.mean_batch_nrhs", "count", "higher", "bench"),
    Layer("service.batches", "count", "lower", "bench"),
    Layer("service.busy_frac", "ratio", "lower", "bench"),
    Layer("service.cache_hit_frac", "ratio", "higher", "bench"),
    Layer("service.queue_depth_hwm", "count", "lower", "bench"),
    Layer("service.rejected", "count", "lower", "bench"),
    Layer("service.latency_p95_ms", "ms", "lower", "bench"),
    Layer("service.overhead_ms_p50", "ms", "lower", "bench"),
    Layer("service.latency_p95_ms_rate80", "ms", "lower", "bench"),
    Layer("service.generator_late_ms_p95", "ms", "lower", "bench"),
    # process backend (measured, not gated: see README hazards)
    Layer("parallel.proc1_overhead_s", "s", "lower", "bench"),
    Layer("parallel.tasks", "count", "lower", "bench"),
    # accounting
    Layer("solver.unattributed_frac", "ratio", "lower", "bench"),
    Layer("obs.tracing_overhead_frac", "ratio", "lower", "bench"),
)

KNOWN_SPANS = frozenset(layer.key for layer in LAYERS
                        if layer.source in ("span", "self"))


def layer_metrics(spans, counters: dict, wall_s: float, bench: dict,
                  warn) -> dict[str, float]:
    """Per-layer values for one traced pass.

    ``spans``/``counters`` come from the program's tracer; ``wall_s``
    is the wall time the benchmark measured around the same calls;
    ``bench`` holds the values the workload measured itself. Root spans
    the table does not know are left unattributed (and warned about),
    so ``solver.unattributed_frac`` plus the known root spans always
    add up to ``wall_s``.
    """
    wall_by_name: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    attributed = 0.0
    unknown: set[str] = set()
    for span, self_s in zip(spans, self_times(spans)):
        wall_by_name[span.name] = wall_by_name.get(span.name, 0.0) \
            + span.wall_s
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + self_s
        if span.depth == 0:
            if span.name in KNOWN_SPANS:
                attributed += span.wall_s
            else:
                unknown.add(span.name)
    for name in sorted(unknown):
        warn(f"root span {name!r} is not in the layer table; its time "
             f"counts as unattributed")

    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer.source == "span":
            value = wall_by_name.get(layer.key)
        elif layer.source == "self":
            value = self_by_name.get(layer.key)
        elif layer.source == "counter":
            value = counters.get(layer.key, 0)
        else:
            value = bench.get(layer.name, 0.0)
        if value is None:
            if layer.always:
                warn(f"{layer.name}: the program recorded no "
                     f"{layer.key!r} span; reporting 0")
            value = 0.0
        out[layer.name] = float(value)
    out["solver.unattributed_frac"] = \
        (wall_s - attributed) / wall_s if wall_s > 0 else 0.0
    return out
