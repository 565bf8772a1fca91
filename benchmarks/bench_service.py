"""Bench: serving-layer throughput (SolverService vs per-request setup).

Replays a mixed traffic trace — >= 64 requests over four matrices, one
hot (receiving ~3/4 of the traffic) and three cold — through two
front ends: the naive per-request path (a fresh ``PDSLin`` built, set
up, and solved for every request, what a stateless endpoint would do)
and a :class:`repro.service.SolverService` (LRU session cache +
micro-batched request queue). The wall-clock speedup over the naive
path is a row of the published table (target >= 2x), not an assertion:
timing is judged by ``benchmarks/e2e/compare.py``. What is asserted:
every sampled cache-hit response is bit-identical to a fresh solve of
the same system, and no worker processes survive ``service.close()``.

Run directly (``PYTHONPATH=src python -m benchmarks.bench_service``)
for a one-off report. The serving layer's pass/fail drill is the
``service`` scenario of ``python -m repro.smoke``; CI runs both.
"""

from __future__ import annotations

import argparse
import multiprocessing
import time

import numpy as np

from benchmarks.conftest import publish
from repro.matrices import generate
from repro.service import SolverService
from repro.solver import PDSLin, PDSLinConfig

HOT_MATRIX = "tdr190k"
COLD_MATRICES = ("tdr455k", "dds.quad", "matrix211")
N_REQUESTS = 64
TARGET_SPEEDUP = 2.0


def _trace(scale: str, n_requests: int, seed: int = 0):
    """The request trace: (matrix_name, A, b) per request, hot-heavy."""
    mats = {name: generate(name, scale).A.tocsr()
            for name in (HOT_MATRIX, *COLD_MATRICES)}
    rng = np.random.default_rng(seed)
    trace = []
    for i in range(n_requests):
        # every 4th request goes to a cold matrix, round-robin
        name = COLD_MATRICES[(i // 4) % len(COLD_MATRICES)] \
            if i % 4 == 3 else HOT_MATRIX
        A = mats[name]
        trace.append((name, A, rng.standard_normal(A.shape[0])))
    return trace


def _naive(trace, cfg):
    """Stateless per-request baseline: setup + solve every time."""
    xs = []
    for _, A, b in trace:
        solver = PDSLin(A, cfg)
        solver.setup()
        xs.append(solver.solve(b).x)
    return xs


def _served(trace, cfg, backend=None):
    svc = SolverService(config=cfg, backend=backend)
    try:
        futs = [svc.submit(A, b) for _, A, b in trace]
        xs = [f.result(timeout=600).x for f in futs]
        report = svc.service_report()
    finally:
        svc.close()
    return xs, report


def test_service_throughput(scale, results_dir):
    cfg = PDSLinConfig(k=4, seed=0)
    trace = _trace(scale, N_REQUESTS)
    hot_count = sum(1 for name, _, _ in trace if name == HOT_MATRIX)
    assert len(trace) >= 64 and hot_count > len(trace) // 2

    t0 = time.perf_counter()
    naive_xs = _naive(trace, cfg)
    t_naive = time.perf_counter() - t0

    t0 = time.perf_counter()
    served_xs, report = _served(trace, cfg)
    t_served = time.perf_counter() - t0

    # cache-hit responses must be bit-identical to a fresh solve
    for x_naive, x_served in zip(naive_xs, served_xs):
        assert x_served.tobytes() == x_naive.tobytes(), \
            "served response diverged from the fresh per-request solve"
    assert report["cache"]["hits"] > 0
    assert report["requests"]["max_batch_nrhs"] >= 2

    # workers: a process-backed service must leave no orphans behind
    _, preport = _served(trace[:8], cfg, backend="process:2")
    assert multiprocessing.active_children() == [], \
        "worker processes survived service.close()"
    assert preport["requests"]["served"] == 8

    speedup = t_naive / t_served
    lines = [f"Serving throughput ({scale}, k=4, {len(trace)} requests, "
             f"{hot_count} hot / {len(trace) - hot_count} cold, "
             "serial backend)",
             f"naive per-request  {t_naive * 1e3:8.1f} ms   "
             f"{len(trace) / t_naive:8.1f} req/s",
             f"SolverService      {t_served * 1e3:8.1f} ms   "
             f"{len(trace) / t_served:8.1f} req/s   {speedup:5.2f}x   "
             f"(target {TARGET_SPEEDUP}x)",
             "",
             f"cache: {report['cache']['sessions']} sessions, "
             f"{report['cache']['hits']} hits / "
             f"{report['cache']['misses']} misses",
             f"batching: {report['requests']['batches']} batches, "
             f"max {report['requests']['max_batch_nrhs']} RHS, "
             f"mean {report['throughput']['mean_batch_nrhs']:.1f} RHS",
             f"solver throughput: "
             f"{report['throughput']['rhs_per_s']:.1f} RHS/s"]
    publish(results_dir, "service_throughput", "\n".join(lines))


def main(argv: list[str] | None = None) -> int:
    """CLI: replay the trace and print the throughput comparison."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", default="tiny")
    ap.add_argument("--requests", type=int, default=N_REQUESTS)
    ap.add_argument("--k", type=int, default=4)
    args = ap.parse_args(argv)

    cfg = PDSLinConfig(k=args.k, seed=0)
    trace = _trace(args.scale, args.requests)
    t0 = time.perf_counter()
    _naive(trace, cfg)
    t_naive = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, report = _served(trace, cfg)
    t_served = time.perf_counter() - t0
    speedup = t_naive / t_served
    print(f"naive:   {t_naive:6.2f} s  "
          f"{len(trace) / t_naive:8.1f} req/s")
    print(f"service: {t_served:6.2f} s  "
          f"{len(trace) / t_served:8.1f} req/s  ({speedup:.2f}x)")
    print(f"cache hits={report['cache']['hits']} "
          f"sessions={report['cache']['sessions']} "
          f"max_batch={report['requests']['max_batch_nrhs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
