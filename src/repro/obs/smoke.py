"""The smoke scenario: one small traced end-to-end solve.

This is the workload the CI trace-shape gate runs and the baseline
recorder samples: a tiny Table-I matrix through the full PDSLin pipeline —
partition, subdomain LU, interface solves, Schur assembly + LU, GMRES —
with a live :class:`repro.obs.Tracer` attached. Run directly
(``PYTHONPATH=src python -m repro.obs.smoke --metrics m.json``) to
produce the ``metrics.json`` / Chrome-trace artifacts.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs.export import (
    export_chrome_trace,
    format_stage_summary,
    stage_metrics,
    write_metrics,
)
from repro.obs.tracer import Tracer

__all__ = ["SmokeRun", "run_smoke", "run_multirhs_smoke",
           "SMOKE_MATRIX", "SMOKE_SCALE", "MULTIRHS_NRHS"]

SMOKE_MATRIX = "tdr190k"
SMOKE_SCALE = "tiny"
MULTIRHS_NRHS = 16


@dataclass
class SmokeRun:
    """A completed smoke solve with its tracer and accounting."""

    tracer: Tracer
    metrics: dict
    converged: bool
    iterations: int
    residual_norm: float

    @property
    def meta(self) -> dict:
        return self.metrics.get("meta", {})


def run_smoke(*, name: str = SMOKE_MATRIX, scale: str = SMOKE_SCALE,
              k: int = 4, seed: int = 0,
              rhs_ordering: str = "hypergraph",
              checkpoint: bool = True) -> SmokeRun:
    """Solve the smoke system once under a fresh tracer.

    Deterministic given ``seed``: the matrix, right-hand side and every
    op-count metric are reproducible; only wall times vary run to run.
    The solve checkpoints into a throwaway directory by default so the
    checkpoint-write path (shard packing, blake2b digests, the manifest)
    is part of the gated surface; its shard/snapshot counters are
    deterministic, its byte counter rides under the ``noise:`` prefix.
    """
    # imported here so `repro.obs` stays free of solver dependencies
    import tempfile

    from repro.matrices import generate
    from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions

    gm = generate(name, scale)
    A = gm.A.tocsr()
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(A.shape[0])
    tracer = Tracer()
    cfg = PDSLinConfig(k=k, seed=seed, rhs_ordering=rhs_ordering,
                       block_size=32)
    if checkpoint:
        with tempfile.TemporaryDirectory(prefix="repro-smoke-ckpt-") as d:
            solver = PDSLin(A, cfg, runtime=RuntimeOptions(
                tracer=tracer, checkpoint=d))
            result = solver.solve(b)
    else:
        solver = PDSLin(A, cfg, runtime=RuntimeOptions(tracer=tracer))
        result = solver.solve(b)
    metrics = stage_metrics(tracer)
    metrics["meta"] = {
        "scenario": "smoke", "matrix": name, "scale": scale, "k": k,
        "seed": seed, "rhs_ordering": rhs_ordering,
        "n": int(A.shape[0]), "nnz": int(A.nnz),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
    }
    return SmokeRun(tracer=tracer, metrics=metrics,
                    converged=bool(result.converged),
                    iterations=int(result.iterations),
                    residual_norm=float(result.residual_norm))


def run_multirhs_smoke(*, name: str = SMOKE_MATRIX,
                       scale: str = SMOKE_SCALE, k: int = 4, seed: int = 0,
                       nrhs: int = MULTIRHS_NRHS,
                       rhs_ordering: str = "hypergraph") -> SmokeRun:
    """The multi-RHS smoke scenario: one setup, one batched
    ``solve_block`` over ``nrhs`` columns, under a fresh tracer.

    This is what the CI ``trace-shape`` job gates: the stages of the
    batched path (``solve_block``, ``refine_block``), how often each
    ran, and its deterministic op counters. The block
    throughput counter rides under the ``noise:`` prefix
    (``noise:rhs_per_s``) so it is exported but not gated."""
    from repro.matrices import generate
    from repro.solver import PDSLin, PDSLinConfig, RuntimeOptions

    gm = generate(name, scale)
    A = gm.A.tocsr()
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((A.shape[0], nrhs))
    tracer = Tracer()
    cfg = PDSLinConfig(k=k, seed=seed, rhs_ordering=rhs_ordering,
                       block_size=32)
    solver = PDSLin(A, cfg, runtime=RuntimeOptions(tracer=tracer))
    solver.setup()
    results = solver.solve_block(B)
    converged = bool(all(r.converged for r in results))
    metrics = stage_metrics(tracer)
    metrics["meta"] = {
        "scenario": "multirhs", "matrix": name, "scale": scale, "k": k,
        "seed": seed, "nrhs": nrhs, "rhs_ordering": rhs_ordering,
        "n": int(A.shape[0]), "nnz": int(A.nnz),
        "converged": converged,
        "iterations": int(max(r.iterations for r in results)),
    }
    return SmokeRun(tracer=tracer, metrics=metrics,
                    converged=converged,
                    iterations=int(max(r.iterations for r in results)),
                    residual_norm=float(max(r.residual_norm
                                            for r in results)))


def main(argv: list[str] | None = None) -> int:
    """CLI: run a smoke scenario and write the perf artifacts."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--metrics", default="metrics.json",
                    help="output path for metrics.json")
    ap.add_argument("--trace", default=None,
                    help="optional output path for the Chrome-trace JSON")
    ap.add_argument("--scenario", choices=("smoke", "multirhs"),
                    default="smoke")
    ap.add_argument("--scale", default=SMOKE_SCALE)
    ap.add_argument("--matrix", default=SMOKE_MATRIX)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nrhs", type=int, default=MULTIRHS_NRHS,
                    help="columns in the multirhs scenario")
    args = ap.parse_args(argv)
    if args.scenario == "multirhs":
        run = run_multirhs_smoke(name=args.matrix, scale=args.scale,
                                 k=args.k, seed=args.seed, nrhs=args.nrhs)
    else:
        run = run_smoke(name=args.matrix, scale=args.scale, k=args.k,
                        seed=args.seed)
    for out in (args.metrics, args.trace):
        if out:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
    write_metrics(run.tracer, args.metrics, meta=run.meta)
    if args.trace:
        export_chrome_trace(run.tracer, args.trace)
    print(format_stage_summary(run.tracer))
    print(f"converged={run.converged} iterations={run.iterations} "
          f"residual={run.residual_norm:.2e}")
    print(f"wrote {args.metrics}" + (f" and {args.trace}" if args.trace else ""))
    return 0 if run.converged else 1


if __name__ == "__main__":
    raise SystemExit(main())
