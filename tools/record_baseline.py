#!/usr/bin/env python
"""Record the trace-shape baseline for the CI gate.

Runs the :mod:`repro.obs.smoke` scenario twice and writes what a fixed
seed makes deterministic — the stage set, per-stage call counts and
every non-``noise:`` counter — as ``benchmarks/baselines/smoke.json``.
The second run must reproduce the first exactly, or nothing is
written. No wall time is recorded: the gate (``tools/perf_gate.py``)
does not judge it. Commit the output; the CI ``trace-shape`` job diffs
every fresh run against it.

Usage::

    PYTHONPATH=src python tools/record_baseline.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    # allow running as a plain script: put src/ on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.gate import NOISE_COUNTER_PREFIX
from repro.obs.smoke import MULTIRHS_NRHS, run_multirhs_smoke, run_smoke

BASELINE_DIR = Path(__file__).resolve().parent.parent / \
    "benchmarks" / "baselines"
DEFAULT_OUTS = {"smoke": BASELINE_DIR / "smoke.json",
                "multirhs": BASELINE_DIR / "multirhs.json"}


def _deterministic(counters: dict) -> dict:
    """Drop ``noise:``-prefixed counters: they carry wall-clock skew and
    legitimately differ across identical runs."""
    return {name: v for name, v in counters.items()
            if not name.startswith(NOISE_COUNTER_PREFIX)}


def _shape(metrics: dict) -> dict:
    """The gated part of a metrics dict: no wall times, no noise."""
    return {
        "stages": {name: {"calls": st["calls"],
                          "counters": _deterministic(st["counters"])}
                   for name, st in metrics["stages"].items()},
        "totals": {"counters": _deterministic(
            metrics["totals"]["counters"])},
    }


def record(*, scale: str, k: int, seed: int, scenario: str = "smoke",
           nrhs: int = MULTIRHS_NRHS) -> dict:
    """One scenario run's trace shape, confirmed by a second run."""
    def run() -> dict:
        if scenario == "multirhs":
            return run_multirhs_smoke(scale=scale, k=k, seed=seed,
                                      nrhs=nrhs).metrics
        return run_smoke(scale=scale, k=k, seed=seed).metrics

    base = run()
    if _shape(run()) != _shape(base):
        raise RuntimeError(
            f"stage calls or counters differ across identical runs; the "
            f"{scenario} scenario is not deterministic — refusing to "
            f"record")
    return {"schema_version": base["schema_version"],
            "meta": dict(base.get("meta", {})), **_shape(base)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", choices=("smoke", "multirhs"),
                    default="smoke")
    ap.add_argument("--scale", default="tiny")
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nrhs", type=int, default=MULTIRHS_NRHS)
    ap.add_argument("--out", default=None,
                    help="output path (default: benchmarks/baselines/"
                         "<scenario>.json)")
    args = ap.parse_args(argv)
    baseline = record(scale=args.scale, k=args.k, seed=args.seed,
                      scenario=args.scenario, nrhs=args.nrhs)
    out = Path(args.out) if args.out else DEFAULT_OUTS[args.scenario]
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"recorded {out} ({len(baseline['stages'])} stages)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
