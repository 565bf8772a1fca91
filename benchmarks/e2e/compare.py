#!/usr/bin/env python3
"""Compare two benchmark records written by ``run.py --all --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base (the parent commit), B the change. For every workload and
end-to-end metric it prints both medians, the ratio B/A, and a verdict
against the bound stored in ``BENCHMARK.json``:

- ``same``        B's median is within the bound of A's
- ``worse``       B's median is worse than A's by more than the bound
- ``better``      ... better by more than the bound
- ``unresolved``  the medians differ by more than the bound, but the
  run-to-run spread of either side is wider than the bound or unknown,
  so they decide nothing (unless every run of B beats every run of A
  by more than the bound, which still reads ``better``)

With ``--repeats`` the spread is the quartile distance between the runs'
values. With one run per side it is estimated from inside the run: the
quartile distance of the n samples the value is a median of, over the
square root of n; a value that is one sample (a single set-up, a peak,
a percentile) has no spread to show, ``n/a``. A whole run on this host
can be 1.5x slow, so prefer ``--repeats 3`` or more before believing a
``better`` or ``worse``. The per-layer metrics are printed beside,
without a verdict.
Exit code 1 on any ``worse`` or a raised failed fraction, 2 when the two
files cannot be compared (different seeds or lengths, ``--quick`` or
invalid runs).
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def refuse(msg: str) -> None:
    print(f"compare: refusing: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path: str) -> dict:
    rec = json.loads(Path(path).read_text())
    if rec.get("quick"):
        refuse(f"{path} is a --quick record; its numbers mean nothing")
    for run in rec["runs"]:
        if not run["valid"]:
            refuse(f"{path}: {run['workload']} run is invalid: "
                   f"{'; '.join(run['invalid_reasons'])}")
    return rec


def runs_of(rec: dict, workload: str, trace: int) -> list[dict]:
    return [r for r in rec["runs"]
            if r["workload"] == workload and r["trace"] == trace]


def stats(runs: list[dict], metric: str):
    """(median, spread as a share of the median or None when it cannot
    be known, the runs' values)."""
    values = [r["metrics"][metric]["median"] for r in runs]
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        m = runs[0]["metrics"][metric]
        if m["q1"] == m["q3"]:
            return med, None, values
        scale = math.sqrt(m["n"])
        q1, q3 = m["q1"] / scale, m["q3"] / scale
    return med, (q3 - q1) / abs(med) if med else 0.0, values


def verdict(a, b, lower_is_better: bool, bound: float) -> str:
    med_a, spread_a, vals_a = a
    med_b, spread_b, vals_b = b
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if abs(worse_by) <= bound:
        return "same"
    if all(s is not None and s <= bound for s in (spread_a, spread_b)):
        return "worse" if worse_by > 0 else "better"
    clear_win = max(sign * v for v in vals_b) \
        < min(sign * v for v in vals_a) * (1 - sign * bound)
    return "better" if clear_win and len(vals_a) > 1 else "unresolved"


def failed_frac(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(argv[0]), load(argv[1])
    for key in ("schema", "seed", "seconds"):
        if a[key] != b[key]:
            refuse(f"{key} differs: {a[key]} vs {b[key]}")

    bad = False
    print(f"{'workload':<17}{'metric':<20}{'A':>12}{'B':>12}"
          f"{'B/A':>8}{'spread A':>10}{'spread B':>10}  verdict")
    for wl in (w["name"] for w in manifest["workloads"]):
        ra, rb = runs_of(a, wl, 0), runs_of(b, wl, 0)
        if not ra or not rb:
            refuse(f"{wl}: missing from one of the records")
        for m in manifest["end_to_end"]:
            sa, sb = stats(ra, m["name"]), stats(rb, m["name"])
            v = verdict(sa, sb, m["better"] == "lower", m["bound"])
            bad |= v == "worse"
            ratio = sb[0] / sa[0] if sa[0] else float("nan")
            spreads = "".join(f"{'n/a' if x is None else format(x, '.1%'):>10}"
                              for x in (sa[1], sb[1]))
            print(f"{wl:<17}{m['name']:<20}{sa[0]:>12.5g}{sb[0]:>12.5g}"
                  f"{ratio:>8.3f}{spreads}   {v}"
                  f"  ({m['unit']}, bound {m['bound']:.0%})")
        fa, fb = failed_frac(ra), failed_frac(rb)
        raised = fb > fa
        bad |= raised
        print(f"{wl:<17}{'failed_frac':<20}{fa:>12.5g}{fb:>12.5g}"
              f"{'':>28}   {'RAISED' if raised else 'same'}")

    print(f"\nper-layer (traced pass; '=' marks identical values, layers "
          f"idle on both sides are left out)\n"
          f"{'workload':<17}{'metric':<32}{'A':>14}{'B':>14}{'B/A':>8}")
    for wl in (w["name"] for w in manifest["workloads"]):
        ra, rb = runs_of(a, wl, 1), runs_of(b, wl, 1)
        if not ra or not rb:
            continue
        for m in manifest["per_layer"]:
            va, vb = stats(ra, m["name"])[0], stats(rb, m["name"])[0]
            if va == 0 and vb == 0:
                continue
            ratio = f"{vb / va:8.3f}" if va else "     new"
            print(f"{wl:<17}{m['name']:<32}{va:>14.6g}{vb:>14.6g}{ratio}"
                  f" {'=' if va == vb else ' '} {m['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
