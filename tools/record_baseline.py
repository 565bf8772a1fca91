#!/usr/bin/env python
"""Record the trace-shape baselines for the CI gate.

Runs every gated scenario of :mod:`repro.smoke` (``GATED``: ``smoke``
and ``multirhs``) twice and writes what a fixed seed makes
deterministic — the stage set, per-stage call counts and every
non-``noise:`` counter — as ``<scenario>.json`` in ``--out`` (default
``benchmarks/baselines``). The second run of a scenario must reproduce
the first exactly, or nothing is written. No wall time is recorded:
the gate (``tools/perf_gate.py``) does not judge it. Commit the output;
the CI ``trace-shape`` job diffs every fresh run against it.

Usage::

    PYTHONPATH=src python tools/record_baseline.py [--out DIR]
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
from repro.smoke import GATED, run

BASELINE_DIR = Path(__file__).resolve().parent.parent / \
    "benchmarks" / "baselines"


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


def record(scenario: str) -> dict:
    """One scenario run's trace shape, confirmed by a second run."""
    base = run(scenario).record
    if _shape(run(scenario).record) != _shape(base):
        raise RuntimeError(
            f"stage calls or counters differ across identical runs; the "
            f"{scenario} scenario is not deterministic — refusing to "
            f"record")
    return {"schema_version": base["schema_version"],
            "meta": dict(base.get("meta", {})), **_shape(base)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=str(BASELINE_DIR),
                    help="output directory (default: benchmarks/baselines)")
    args = ap.parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for scenario in GATED:
        baseline = record(scenario)
        out = out_dir / f"{scenario}.json"
        with open(out, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded {out} ({len(baseline['stages'])} stages)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
