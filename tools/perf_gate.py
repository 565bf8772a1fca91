#!/usr/bin/env python
"""CI perf gate: diff a fresh metrics.json against a committed baseline.

Usage::

    PYTHONPATH=src python -m repro.smoke smoke --metrics /tmp/metrics.json
    PYTHONPATH=src python tools/perf_gate.py /tmp/metrics.json \
        benchmarks/baselines/smoke.json

and likewise ``multirhs`` against ``benchmarks/baselines/multirhs.json``:
each scenario in ``repro.smoke.GATED`` has a baseline.

Exits 0 when the stage set and every stage's call count match the
baseline exactly and every deterministic counter is within ``--ops-tol``
of it in either direction, 1 otherwise, 2 on unreadable input. Wall
time is not compared (``benchmarks/e2e/compare.py`` judges timing).
Re-record the baselines with ``tools/record_baseline.py`` after an
intentional change of behaviour.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):
    # allow running as a plain script: put src/ on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.export import load_metrics
from repro.obs.gate import DEFAULT_OPS_TOL, compare_metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="fresh metrics.json to check")
    ap.add_argument("baseline", help="committed baseline metrics.json")
    ap.add_argument("--ops-tol", type=float, default=DEFAULT_OPS_TOL,
                    help="allowed counter ratio current/baseline, "
                         "either way (default %(default)s)")
    args = ap.parse_args(argv)
    try:
        current = load_metrics(args.current)
        baseline = load_metrics(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"perf_gate: cannot read metrics: {exc}", file=sys.stderr)
        return 2
    report = compare_metrics(current, baseline, ops_tol=args.ops_tol)
    print(report.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
