#!/usr/bin/env python3
"""End-to-end benchmark driver.

    python3 benchmarks/e2e/run.py --workload cold_circuit --seed 0 \\
        --seconds 10 --trace 0

runs one workload in this process and prints every metric by name with
its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` runs an
untraced then an identical traced pass and reports the per-layer
metrics. ``--all --out FILE`` runs every workload both ways, each in a
fresh subprocess, and writes the record ``compare.py`` reads.

The program is measured from outside: ``src/`` is imported from the
checkout this file sits in and nothing under it is modified.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = 1
QUICK_SECONDS = 3.0


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(name: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Run one workload one way in this process; the run's full record.
    numpy and the program are first imported here, after the pins."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    import measure as m
    record = m.measure(name, seed, seconds, trace, quick)
    record["schema"] = SCHEMA
    return record


def declared(manifest: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def result_line(record: dict, units: dict[str, str]) -> dict:
    """The one-line result; raises if the run and BENCHMARK.json
    disagree about which metrics exist."""
    if set(record["metrics"]) != set(units):
        raise SystemExit(
            "error: metrics emitted and metrics declared in BENCHMARK.json "
            f"differ: {sorted(set(record['metrics']) ^ set(units))}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name]["median"],
                           "unit": unit} for name, unit in units.items()},
    }


def print_report(record: dict, units: dict[str, str]) -> None:
    host = record["host"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  trace {record['trace']}"
          + ("  QUICK" if record["quick"] else "")
          + ("" if record["valid"] else "  INVALID"))
    print(f"host: {host['nproc']} cpus, python {host['python']}, numpy "
          f"{host['numpy']}, scipy {host['scipy']}, blas {host['blas']}, "
          f"pins {host['thread_pins']}, load {host['loadavg_1m_at_start']:.2f}")
    print(f"plan: {record['plan']['rounds']} cold rounds, "
          f"{record['plan']['cycles']} warm cycles or bursts; "
          f"{record['attempted']} operations checked, "
          f"{record['failed']} failed")
    width = max(len(name) for name in units)
    for name, unit in units.items():
        m = record["metrics"][name]
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]" \
            if m["q1"] != m["q3"] else ""
        print(f"  {name:<{width}}  {m['median']:.6g} {unit}{spread}")


def run_all(args, manifest: dict) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    runs, status = [], 0
    out = Path(args.out).resolve()
    with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
        for rep in range(args.repeats):
            for wl_entry in manifest["workloads"]:
                for trace in (0, 1):
                    rec_path = Path(tmp) / "record.json"
                    cmd = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", wl_entry["name"],
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace),
                           "--record", str(rec_path)]
                    if args.quick:
                        cmd.append("--quick")
                    print(f"--- repeat {rep}: {' '.join(cmd[2:10])}",
                          flush=True)
                    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
                    status = status or proc.returncode
                    if rec_path.exists():
                        runs.append(json.loads(rec_path.read_text()))
                        rec_path.unlink()
    out.write_text(json.dumps({
        "schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "claim": None, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out} ({len(runs)} runs)")
    return status


def main(argv=None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long the timed phase measures (default: "
                         "run_seconds of BENCHMARK.json; 3 with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny matrices, one round: checks the plumbing, "
                         "not the numbers")
    ap.add_argument("--record", help="also write this run's full record")
    ap.add_argument("--all", action="store_true",
                    help="every workload, both trace modes, into --out")
    ap.add_argument("--out", help="record file written by --all")
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick \
            else float(manifest["run_seconds"])
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.all:
        if not args.out:
            ap.error("--all needs --out FILE")
        return run_all(args, manifest)
    if not args.workload:
        ap.error("give --workload NAME or --all")

    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    units = declared(manifest, bool(args.trace))
    line = result_line(record, units)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print_report(record, units)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
