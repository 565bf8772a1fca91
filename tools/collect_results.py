#!/usr/bin/env python
"""Collect archived bench outputs into one markdown appendix.

Reads every ``benchmarks/results/*.txt`` produced by
``pytest benchmarks/ --benchmark-only`` and writes
``benchmarks/results/ALL_RESULTS.md`` — the raw-measurements appendix
referenced from EXPERIMENTS.md.

Usage:  python tools/collect_results.py [results_dir]
"""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path

ORDER = [
    "table1", "fig1", "fig3_a", "fig3_b", "fig3_c", "fig3_d",
    "table2", "table3",
    "fig4_tdr190k", "fig4_dds_quad", "fig4_dds_linear", "fig4_matrix211",
    "fig5_tdr190k", "fig5_dds_quad", "fig5_dds_linear", "fig5_matrix211",
    "quasidense", "scaling", "ablation_weights", "ablation_fm",
]


def main(results_dir: str | None = None) -> int:
    root = Path(results_dir) if results_dir else \
        Path(__file__).resolve().parent.parent / "benchmarks" / "results"
    if not root.is_dir():
        print(f"no results directory at {root}", file=sys.stderr)
        return 1
    files = {p.stem: p for p in root.glob("*.txt")}
    names = [n for n in ORDER if n in files]
    names += sorted(set(files) - set(ORDER))
    out = [f"# Raw benchmark outputs ({date.today().isoformat()})", ""]
    for name in names:
        out.append(f"## {name}")
        out.append("")
        out.append("```")
        out.append(files[name].read_text().rstrip())
        out.append("```")
        out.append("")
    target = root / "ALL_RESULTS.md"
    target.write_text("\n".join(out))
    print(f"wrote {target} ({len(names)} sections)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
